import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import derived_kernel
from derived_kernel.cli import build_parser, main
from derived_kernel.specfiles import parse_module, parse_scheme, parse_triple

P1_SCHEME = "ambient = 1\ndescription = the projective line\n"

DBL_SCHEME = """\
ambient = 1
description = derived double point
section = x0 : 1
section = x0 : 1
"""

POINT_MOD = """\
# structure sheaf of V(x0) as a cone
generator = g0 : h=0 : a=0
generator = g1 : h=1 : a=1
d = g1 -> g0 : x0
"""

EULER_TRIPLE = """\
[module F]
generator = f0 : h=0 : a=2
[module G]
generator = g0 : h=0 : a=1
generator = g1 : h=0 : a=1
[module H]
generator = h0 : h=0 : a=0
[map f]
source = F
target = G
entry = f0 -> g0 : x1
entry = f0 -> g1 : -1*x0
[map g]
source = G
target = H
entry = g0 -> h0 : x0
entry = g1 -> h0 : x1
"""


# d*d = x0^2 * g0 != 0 at g2
NOT_A_COMPLEX_MOD = """\
generator = g0 : h=0 : a=0
generator = g1 : h=1 : a=1
generator = g2 : h=2 : a=2
d = g1 -> g0 : x0
d = g2 -> g1 : x0
"""

# f(d f1) = x0 * g0 but d f(f1) = 0
NOT_A_CHAIN_MAP_TRIPLE = """\
[module F]
generator = f0 : h=0 : a=0
generator = f1 : h=1 : a=1
d = f1 -> f0 : x0
[module G]
generator = g0 : h=0 : a=0
[module H]
generator = h0 : h=0 : a=0
[map f]
source = F
target = G
entry = f0 -> g0 : 1
[map g]
source = G
target = H
entry = g0 -> h0 : 1
"""


@pytest.fixture
def files(tmp_path):
    p1 = tmp_path / "p1.scheme"
    p1.write_text(P1_SCHEME)
    dbl = tmp_path / "dbl.scheme"
    dbl.write_text(DBL_SCHEME)
    point = tmp_path / "point.mod"
    point.write_text(POINT_MOD)
    euler = tmp_path / "euler.triple"
    euler.write_text(EULER_TRIPLE)
    return {"p1": str(p1), "dbl": str(dbl), "point": str(point),
            "euler": str(euler), "dir": tmp_path}


def run_cli(argv, out_path):
    code = main(argv + ["--out", str(out_path)])
    if code:
        return code, None
    return 0, json.loads(out_path.read_text())


def test_scheme_and_module_parsing(files):
    dga = parse_scheme(DBL_SCHEME)
    assert dga.base.n == 1 and dga.r == 2
    p1 = parse_scheme(P1_SCHEME)
    m = parse_module(POINT_MOD, p1)
    assert m.gens == ((0, 0), (1, 1))
    f, g = parse_triple(EULER_TRIPLE, p1)
    assert f.target is g.source


def test_cohomology_command(files, tmp_path):
    code, out = run_cli(["cohomology", "--scheme", files["p1"],
                         "--sheaf", "O", "--twist", "-2"],
                        tmp_path / "r.json")
    assert code == 0
    assert out["cohomology"] == {"0": 0, "1": 1}
    assert out["stable"] == {"0": True, "1": True}


def test_k0_group_command(files, tmp_path):
    code, out = run_cli(["k0-group", "--scheme", files["p1"],
                         "--window=-3:0"], tmp_path / "r.json")
    assert code == 0
    assert out["group"]["free_rank"] == 2
    assert out["group"]["torsion"] == []


def test_resolve_command(files, tmp_path):
    code, out = run_cli(["resolve", "--scheme", files["p1"],
                         "--module", files["point"]], tmp_path / "r.json")
    assert code == 0
    assert out["resolution"]["terms"] == [[0], [-1]]
    assert out["resolution"]["steps"] == 1


def test_sections_command_derived(files, tmp_path):
    code, out = run_cli(["sections", "--scheme", files["dbl"],
                         "--sheaf", "O"], tmp_path / "r.json")
    assert code == 0
    assert out["homotopy"]["0"] == 1
    assert out["homotopy"]["1"] == 1


def test_spectral_command(files, tmp_path):
    code, out = run_cli(["spectral-sequence", "--scheme", files["p1"],
                         "--sheaf", "O(-2)"], tmp_path / "r.json")
    assert code == 0
    cells = {(c["p"], c["q"]): c["dim"] for c in out["pages"][1]["cells"]}
    assert cells.get((1, 0)) == 1
    assert out["homotopy"]["-1"] == 1


def test_exact_check_command(files, tmp_path):
    code, out = run_cli(["exact-check", "--scheme", files["p1"],
                         "--module", files["euler"]], tmp_path / "r.json")
    assert code == 0
    assert out["short_exact"] is True
    assert out["cofibre_equivalence"] is True
    assert out["agrees"] is True


def test_strong_and_twist_and_global(files, tmp_path):
    code, out = run_cli(["strong-check", "--scheme", files["dbl"],
                         "--sheaf", "O"], tmp_path / "r.json")
    assert code == 0 and out["verdict"] == "strong"
    code, out = run_cli(["twist-search", "--scheme", files["p1"],
                         "--sheaf", "O", "--index", "0", "--ceiling", "1"],
                        tmp_path / "r.json")
    assert code == 0 and out["n0"] == 0
    code, out = run_cli(["global-gen", "--scheme", files["p1"],
                         "--sheaf", "O(-1)", "--ceiling", "2"],
                        tmp_path / "r.json")
    assert code == 0 and out["n0"] == 1


def test_tor_amplitude_and_k0_class(files, tmp_path):
    code, out = run_cli(["tor-amplitude", "--scheme", files["p1"],
                         "--module", files["point"]], tmp_path / "r.json")
    assert code == 0
    assert out["upper_bound"] == 1 and out["method"] == "fitting"
    code, out = run_cli(["k0-class", "--scheme", files["p1"],
                         "--module", files["point"]], tmp_path / "r.json")
    assert code == 0
    assert out["class"] == {"basis": [-1, 0], "coeffs": [-1, 1]}


def test_verify_command(files, tmp_path):
    code, out = run_cli(["verify", "--scheme", files["p1"], "--seed", "3"],
                        tmp_path / "r.json")
    assert code == 0
    assert out["passed"] is True


def test_exit_code_parse_error(files, tmp_path):
    bad = files["dir"] / "bad.scheme"
    bad.write_text("ambient = 1\nsection = x0 + x1^2 : 2\n")
    code = main(["cohomology", "--scheme", str(bad), "--sheaf", "O"])
    assert code == 2
    code = main(["cohomology", "--scheme", str(files["dir"] / "nope"),
                 "--sheaf", "O"])
    assert code == 2


@pytest.mark.parametrize("window", ["--window=a:b", "--window=3",
                                    "--window=2:1"])
def test_k0_group_malformed_window(files, capsys, window):
    code = main(["k0-group", "--scheme", files["p1"], window])
    assert code == 2
    assert "--window" in capsys.readouterr().err


def test_verify_rejects_single_trial(files, capsys):
    code = main(["verify", "--scheme", files["p1"], "--trials", "1"])
    assert code == 2
    assert "at least 2 trials" in capsys.readouterr().err


def test_verify_rejects_single_trial_without_asserts(files):
    # the check is not an assert, so `python -O` must not skip it
    out = subprocess.run(
        [sys.executable, "-O", "-m", "derived_kernel.cli", "verify",
         "--scheme", files["p1"], "--trials", "1"],
        capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "at least 2 trials" in out.stderr


def test_exit_code_precondition(files, tmp_path):
    mod = files["dir"] / "shifted.mod"
    mod.write_text("generator = g0 : h=0 : a=0\nshift = -1\n")
    code = main(["cohomology", "--scheme", files["p1"],
                 "--module", str(mod)])
    assert code == 3


def test_exit_code_search_exhausted(files, tmp_path):
    mod = files["dir"] / "mixed.mod"
    mod.write_text(
        "generator = g0 : h=0 : a=0\ngenerator = g1 : h=1 : a=2\n")
    code = main(["twist-search", "--scheme", files["p1"],
                 "--module", str(mod), "--ceiling", "0"])
    assert code == 4


def test_report_determinism(files, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["spectral-sequence", "--scheme", files["dbl"], "--sheaf", "O",
            "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point(files, tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "derived_kernel.cli", "cohomology",
         "--scheme", files["p1"], "--sheaf", "O", "--twist", "3"],
        capture_output=True, text=True)
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["cohomology"]["0"] == 4


def test_one_parser_serves_every_call(files, tmp_path, capsys,
                                      monkeypatch):
    # main builds its parser once per process: two in-process calls on
    # different commands, then a help text and an argument error, give
    # the bytes and exit codes of fresh processes
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(
        Path(derived_kernel.__file__).resolve().parents[1]))

    def fresh(argv):
        out = subprocess.run(
            [sys.executable, "-m", "derived_kernel.cli"] + argv,
            capture_output=True, env=env)
        return out.returncode, out.stdout, out.stderr

    for argv in (["cohomology", "--scheme", files["p1"], "--sheaf", "O",
                  "--twist", "3"],
                 ["spectral-sequence", "--scheme", files["dbl"],
                  "--sheaf", "O"]):
        report = tmp_path / "r.json"
        assert main(argv + ["--out", str(report)]) == 0
        assert fresh(argv) == (0, report.read_bytes(), b"")
    for argv, code in ((["k0-group", "--help"], 0),
                       (["k0-group", "--twist", "x"], 2)):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        got = capsys.readouterr()
        assert fresh(argv) == (code, got.out.encode(), got.err.encode())
        assert exc.value.code == code
    assert build_parser() is build_parser()


def test_bad_sheaf_name_same_error_everywhere(files, capsys):
    errors = []
    for command in ("cohomology", "sections"):
        code = main([command, "--scheme", files["p1"], "--sheaf", "O(x)"])
        assert code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "unknown sheaf name 'O(x)' (use O or O(k))" in errors[0]


def test_default_ceiling(files, tmp_path, capsys):
    # default_ceiling on P^1 for O: 3 * 0 (degree spread) + 1 + 2 = 3
    code, out = run_cli(["twist-search", "--scheme", files["p1"],
                         "--sheaf", "O"], tmp_path / "r.json")
    assert code == 0
    assert out["ceiling"] == 3 and out["n0"] == 0
    assert [r["n"] for r in out["rows"]] == [0, 1, 2, 3]
    code, out = run_cli(["global-gen", "--scheme", files["p1"],
                         "--sheaf", "O"], tmp_path / "r.json")
    assert code == 0
    assert out == {"n0": 0, "sections": 1}
    # O(-k) needs the twist k: k = 3 is within the ceiling, k = 4 is not
    code, out = run_cli(["global-gen", "--scheme", files["p1"],
                         "--sheaf", "O(-3)"], tmp_path / "r.json")
    assert code == 0 and out["n0"] == 3
    capsys.readouterr()
    code = main(["global-gen", "--scheme", files["p1"], "--sheaf", "O(-4)"])
    assert code == 4
    assert "exhausted the ceiling 3" in capsys.readouterr().err


@pytest.mark.parametrize("optimize", [[], ["-O"]])
def test_malformed_module_and_triple_exit_2(files, optimize):
    # the d*d and chain-map checks are not asserts, so `python -O` must
    # not skip them; on parsed input they report an input error
    bad_mod = files["dir"] / "bad.mod"
    bad_mod.write_text(NOT_A_COMPLEX_MOD)
    bad_triple = files["dir"] / "bad.triple"
    bad_triple.write_text(NOT_A_CHAIN_MAP_TRIPLE)
    src = str(Path(derived_kernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv, message in (
            (["sections", "--module", str(bad_mod)],
             "input error: module file: d*d != 0 at generator 2"),
            (["exact-check", "--module", str(bad_triple)],
             "input error: map f: not a chain map at generator 1")):
        out = subprocess.run(
            [sys.executable] + optimize + ["-m", "derived_kernel.cli"]
            + argv + ["--scheme", files["p1"]],
            capture_output=True, text=True, env=env)
        assert out.returncode == 2, out.stderr
        assert out.stdout == ""
        assert out.stderr.strip() == message


O_MINUS_7 = {
    # T: (cohomology H^p, sections pi_i, spectral-sequence pi_i, stable)
    # for O(-7) on P^1, where T* = 7 - 1 = 6; cohomology and sections
    # read depth T + 1, spectral-sequence depth T
    2: ({"0": 0, "1": 0}, {"-1": 0, "0": 0}, {"0": 0}, (False, False)),
    4: ({"0": 0, "1": 4}, {"-1": 4, "0": 0}, {"-1": 2}, (False, False)),
    5: ({"0": 0, "1": 6}, {"-1": 6, "0": 0}, {"-1": 4}, (True, False)),
    6: ({"0": 0, "1": 6}, {"-1": 6, "0": 0}, {"-1": 6}, (True, True)),
}


@pytest.mark.parametrize("T", sorted(O_MINUS_7))
def test_global_answers_certified_by_depth(files, tmp_path, T):
    coh, sec, spec, (deep, spec_deep) = O_MINUS_7[T]
    base = ["--scheme", files["p1"], "--sheaf", "O(-7)",
            "--laurent-T", str(T)]
    for command, key, want, stable in (
            ("cohomology", "cohomology", coh, deep),
            ("sections", "homotopy", sec, deep),
            ("spectral-sequence", "homotopy", spec, spec_deep)):
        code, out = run_cli([command] + base, tmp_path / "r.json")
        assert code == 0
        assert out[key] == want, (command, T)
        assert out["stable"] == dict.fromkeys(want, stable), (command, T)


EMPTY_MODULE_TRIPLE = """\
[module F]
# no generators
[module G]
generator = g0 : h=0 : a=0
[module H]
generator = h0 : h=0 : a=0
[map f]
source = F
target = G
[map g]
source = G
target = H
entry = g0 -> h0 : 1
"""

EMPTY_MODULE_RUNS = """
import json, sys
from derived_kernel.cli import build_parser, main
for argv in json.loads(sys.argv[1]):
    print(main(argv))
"""


def test_module_without_generators_exits_2(files, capsys, run_optimized):
    # an empty module has homological span (0, -1), which no degree
    # window can hold; the parser refuses it, with and without -O
    empty = files["dir"] / "empty.mod"
    empty.write_text("# no generators\n")
    triple = files["dir"] / "empty.triple"
    triple.write_text(EMPTY_MODULE_TRIPLE)
    out = str(files["dir"] / "r.json")
    cases = [([command, "--module", str(empty)],
              "input error: module file: no generators")
             for command in ("strong-check", "resolve", "tor-amplitude",
                             "k0-class", "sections")]
    cases.append((["exact-check", "--module", str(triple)],
                  "input error: module F: no generators"))
    argvs = [argv + ["--scheme", files["p1"], "--out", out]
             for argv, _ in cases]
    for argv, (_, message) in zip(argvs, cases):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == message
    assert run_optimized(EMPTY_MODULE_RUNS, json.dumps(argvs)) \
        == ["2"] * len(argvs)


BAD_VALUE_LINES = [
    ("twist = one", "line 2: twist must be an integer"),
    ("shift = x", "line 2: shift must be an integer"),
    ("d = g1 : -> g0 : x0",
     "line 2: differential needs 'FROM -> TO : POLY'"),
]


def test_malformed_module_values_exit_2(files, capsys, run_optimized):
    # each statement used to escape as a ValueError traceback (exit 1)
    out = str(files["dir"] / "r.json")
    cases = []
    for k, (line, message) in enumerate(BAD_VALUE_LINES):
        mod = files["dir"] / ("bad%d.mod" % k)
        mod.write_text("generator = g0 : h=0 : a=0\n%s\n" % line)
        cases.append((["sections", "--module", str(mod)],
                      "input error: " + message))
        triple = files["dir"] / ("bad%d.triple" % k)
        triple.write_text(EULER_TRIPLE.replace(
            "[module F]\n", "[module F]\n%s\n" % line))
        cases.append((["exact-check", "--module", str(triple)],
                      "input error: " + message))
    argvs = [argv + ["--scheme", files["p1"], "--out", out]
             for argv, _ in cases]
    for argv, (_, message) in zip(argvs, cases):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == message
    assert run_optimized(EMPTY_MODULE_RUNS, json.dumps(argvs)) \
        == ["2"] * len(argvs)
