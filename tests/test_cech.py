import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import derived_kernel
from derived_kernel import cech, cli, twisting
from derived_kernel.cech import (
    LaurentTruncation,
    build_cech_double_complex,
    sections_homotopy,
    sheaf_cohomology,
)
from derived_kernel.charts import module_depth_hint
from derived_kernel.dga import make_koszul_dga
from derived_kernel.dgmodules import (
    DegreeWindow,
    direct_sum,
    free_module,
    structure_sheaf,
)
from derived_kernel.presentations import (
    PresentedModule,
    extract_presentation,
    presented_free,
)
from derived_kernel.spectral import DoubleComplex

from oracles import line_bundle_cohomology

import corpus


def test_sheaf_cohomology_matches_monomial_oracle_p1():
    p1 = make_koszul_dga(1, [])
    for d in range(-5, 5):
        pres = presented_free(p1, [d])
        out = sheaf_cohomology(pres, 0, LaurentTruncation(abs(d) + 1))
        for p in range(0, 2):
            assert out.table[p] == line_bundle_cohomology(1, d, p), (d, p)
            assert out.stable[p]


def test_sheaf_cohomology_matches_monomial_oracle_p2():
    p2 = make_koszul_dga(2, [])
    for d in (-4, -3, -1, 0, 2, 3):
        pres = presented_free(p2, [d])
        out = sheaf_cohomology(pres, 0, LaurentTruncation(abs(d) + 1))
        for p in range(0, 3):
            assert out.table[p] == line_bundle_cohomology(2, d, p), (d, p)


def test_both_slice_providers_match_monomial_oracle():
    # module slices (sections_homotopy) and presented slices
    # (sheaf_cohomology) of O(k) against the monomial count
    for n in (1, 2):
        dga = make_koszul_dga(n, [])
        for k in range(-4, 5):
            T = LaurentTruncation(abs(k) + 1)
            sh = sections_homotopy(free_module(dga, [0]), k, range(-n, 1), T)
            coh = sheaf_cohomology(presented_free(dga, [k]), 0, T)
            for p in range(0, n + 1):
                want = line_bundle_cohomology(n, k, p)
                assert sh.table[-p] == want and sh.stable[-p], (n, k, p)
                assert coh.table[p] == want and coh.stable[p], (n, k, p)


def test_cech_grid_shape_on_p1():
    p1 = make_koszul_dga(1, [])
    dc = build_cech_double_complex(structure_sheaf(p1), 0, LaurentTruncation(2))
    # two columns: p = 0 carries the two charts, p = 1 the double overlap
    assert dc.dim(0, 0) > 0 and dc.dim(1, 0) > 0
    assert dc.dim(2, 0) == 0


def test_totalize_sections_of_twists():
    p1 = make_koszul_dga(1, [])
    o2 = structure_sheaf(p1)
    dc = build_cech_double_complex(o2, 2, LaurentTruncation(3))
    table = dc.totalize().homology_table()
    assert table.get(0, 0) == 3  # H^0(P^1, O(2))
    assert table.get(-1, 0) == 0
    dc = build_cech_double_complex(o2, -2, LaurentTruncation(3))
    table = dc.totalize().homology_table()
    assert table.get(0, 0) == 0
    assert table.get(-1, 0) == 1  # H^1(P^1, O(-2)) as pi_(-1)


def test_totalize_direct_sum_with_shift():
    p1 = make_koszul_dga(1, [])
    m = direct_sum([structure_sheaf(p1), free_module(p1, [-2]).shift(1)])
    dc = build_cech_double_complex(m, 0, LaurentTruncation(3))
    table = dc.totalize().homology_table()
    # pi_0 = H^0(O) + H^1(O(-2)) = 1 + 1
    assert table.get(0, 0) == 2


def test_sections_homotopy_flags_and_values():
    p1 = make_koszul_dga(1, [])
    o = structure_sheaf(p1)
    sh = sections_homotopy(o, 0, range(-1, 2), LaurentTruncation(2))
    assert sh.table == {-1: 0, 0: 1, 1: 0}
    assert all(sh.stable.values())
    sh = sections_homotopy(o, -2, range(-1, 1), LaurentTruncation(2))
    assert sh.table == {-1: 1, 0: 0}


def test_sections_homotopy_derived_double_point():
    dbl = make_koszul_dga(1, [({(1, 0): 1}, 1), ({(1, 0): 1}, 1)])
    o = structure_sheaf(dbl)
    sh = sections_homotopy(o, 0, range(0, 3), LaurentTruncation(2))
    assert sh.table[0] == 1
    assert sh.table[1] == 1
    assert sh.table[2] == 0


def test_single_cell_spectral_sequence():
    dc = DoubleComplex({(0, 0): 2}, {}, {})
    ss = dc.spectral_sequence()
    assert ss.pages[1].dims() == {(0, 0): 2}
    assert ss.infinity.dims() == {(0, 0): 2}
    assert ss.stabilized_at() <= 2


def test_p1_degenerates_at_e2():
    p1 = make_koszul_dga(1, [])
    m = direct_sum([structure_sheaf(p1), free_module(p1, [-2]).shift(1)])
    dc = build_cech_double_complex(m, 0, LaurentTruncation(3))
    ss = dc.spectral_sequence()
    e2 = ss.pages[1]
    assert e2.dims() == ss.infinity.dims()
    # E_2 cells: (0,0) from H^0(O) and (1,1) from H^1(O(-2))
    assert e2.dims() == {(0, 0): 1, (1, 1): 1}


def test_p2_filtration_and_cells():
    p2 = make_koszul_dga(2, [])
    m = direct_sum([free_module(p2, [-3]).shift(1), structure_sheaf(p2)])
    dc = build_cech_double_complex(m, 0, LaurentTruncation(3))
    ss = dc.spectral_sequence()
    e2 = ss.pages[1]
    assert e2.dims() == {(0, 0): 1, (2, 1): 1}
    # filtration identity is asserted inside; check reported degrees
    assert ss.total.homology(0).dim == 1
    assert ss.total.homology(-1).dim == 1


def test_e1_is_vertical_homology_and_e2_matches_sheaf_cohomology():
    dbl = make_koszul_dga(1, [({(1, 0): 1}, 1), ({(1, 0): 1}, 1)])
    o = structure_sheaf(dbl)
    dc = build_cech_double_complex(o, 0, LaurentTruncation(3))
    ss = dc.spectral_sequence()
    w = DegreeWindow(0, 4, 0, 2)
    for q in (0, 1):
        pres = extract_presentation(o, q, w)
        coh = sheaf_cohomology(pres, 0, LaurentTruncation(3))
        for p in (0, 1):
            assert ss.pages[1].cells.get((p, q), 0) == coh.table[p], (p, q)


def test_euler_characteristic_consistency():
    p1 = make_koszul_dga(1, [])
    m = direct_sum([structure_sheaf(p1), free_module(p1, [-3]).shift(1)])
    dc = build_cech_double_complex(m, 0, LaurentTruncation(4))
    ss = dc.spectral_sequence()
    total_chi = sum((-1) ** (m_ % 2) * d
                    for m_, d in ss.total.homology_table().items())
    e2_chi = 0
    for (p, q), dim in ss.pages[1].cells.items():
        e2_chi += (-1) ** ((q - p) % 2) * dim
    assert total_chi == e2_chi


def test_truncation_monotone_stabilization():
    p1 = make_koszul_dga(1, [])
    o = structure_sheaf(p1)
    dims = []
    for T in (2, 3, 4):
        dc = build_cech_double_complex(o, -2, LaurentTruncation(T))
        table = dc.totalize().homology_table()
        dims.append(table.get(-1, 0))
    assert dims[0] <= dims[1] <= dims[2]
    assert dims[1] == dims[2] == 1


SPECTRAL_CHECK_UNDER_O = """
import sys
from derived_kernel import cli, spectral
print("debug:", __debug__)
reduce = spectral.SpectralSequence._reduce


def corrupt(self, m):
    pivots = reduce(self, m)
    if pivots and sys.argv[2] == "drop":
        del pivots[min(pivots)]
    elif pivots and sys.argv[2] == "row":
        vec, combo = pivots[min(pivots)]
        vec[max(vec) + 1] = 1
    return pivots


spectral.SpectralSequence._reduce = corrupt
print("exit:", cli.main(["spectral-sequence", "--scheme", sys.argv[1],
                         "--sheaf", "O(-2)"]))
"""


def _corrupted_reduction_under_O(tmp_path, how):
    scheme = tmp_path / "p1.scheme"
    scheme.write_text("ambient = 1\n")
    src = str(Path(derived_kernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", SPECTRAL_CHECK_UNDER_O, str(scheme), how],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["debug: False", "exit: 5"]
    return out.stderr


def test_convergence_check_survives_python_O(tmp_path):
    # a dropped pivot pair leaves both its ends in E_infinity, which the
    # filtration check against the total homology sees, asserts or not
    err = _corrupted_reduction_under_O(tmp_path, "drop")
    assert "filtration mismatch in total degree" in err


def test_reduction_check_survives_python_O(tmp_path):
    # a stored pivot row that is not D times its combination fails the
    # D*V = R check, asserts or not
    err = _corrupted_reduction_under_O(tmp_path, "row")
    assert "filtered reduction: D*V != R in total degree" in err


DOUBLE_COMPLEX_CHECKS_UNDER_O = """
from derived_kernel.errors import InternalCheckFailed
from derived_kernel.exact_linear import RatMatrix
from derived_kernel.spectral import DoubleComplex
print("debug:", __debug__)
one = RatMatrix(1, 1, {(0, 0): 1})
cells = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
for check in (True, False):
    try:
        dc = DoubleComplex(cells, {}, {(0, 0): one, (1, 0): one},
                           check=check)
        dc.totalize()
    except InternalCheckFailed as exc:
        print("raised:", exc)
"""


def test_double_complex_checks_survive_python_O(run_optimized):
    # horizontal d^2 = 1: the grid check, and without it the check of
    # the total differential, must still run under `python -O`
    assert run_optimized(DOUBLE_COMPLEX_CHECKS_UNDER_O) == [
        "debug: False", "raised: horizontal d^2 != 0",
        "raised: total D^2 != 0"]


def _spectral_command(monkeypatch, m, twist, T):
    """The `spectral-sequence` report of M(twist) at depth T."""
    monkeypatch.setattr(cli, "_load_scheme", lambda dga: dga)
    monkeypatch.setattr(cli, "_load_module", lambda args, dga: args.module)
    return cli._cmd_spectral(Namespace(scheme=m.dga, module=m, twist=twist,
                                       laurent_T=T))


def test_stable_global_answers_match_a_deeper_truncation(monkeypatch):
    # every answer flagged stable equals the answer at T* + 3, for the
    # module's sections, the spectral-sequence command and the sheaf
    # cohomology of the free cover of its generators
    checked = 0
    for name, m in corpus.spectral_corpus():
        n = m.dga.base.n
        h_lo, h_hi = m.homological_span()
        i_range = range(h_lo - n, h_hi + 1)
        pres = presented_free(m.dga, [-a for _, a in m.gens])
        for twist in range(-4, 3):
            depth = module_depth_hint(m, twist + n)
            deep = LaurentTruncation(depth + 2)     # read at depth T* + 3
            want = sections_homotopy(m, twist, i_range, deep).table
            want_coh = sheaf_cohomology(pres, twist, deep).table
            for T in range(0, depth + 2):
                sec = sections_homotopy(m, twist, i_range,
                                        LaurentTruncation(T))
                coh = sheaf_cohomology(pres, twist, LaurentTruncation(T))
                report = _spectral_command(monkeypatch, m, twist, T)
                for table, stable, ref in (
                        (sec.table, sec.stable, want),
                        (coh.table, coh.stable, want_coh),
                        (report["homotopy"], report["stable"], want)):
                    for k, v in table.items():
                        if stable[k]:
                            checked += 1
                            assert v == ref.get(int(k), 0), (name, twist, T, k)
    assert checked > 500


def test_presentation_with_syzygies_keeps_the_comparison():
    # O/(x0, x1) on P^1 is the zero sheaf, but its relations have a
    # syzygy, so the depth of generators and rows does not certify it:
    # at twist -3 the truncated chart cokernels keep x0^-3 and x1^-3 at
    # depth 3 >= T* = 3, and only the comparison with depth 2 flags them
    p1 = corpus.p1()
    pres = PresentedModule(p1, (0,), ((p1.variable(0),), (p1.variable(1),)))
    out = sheaf_cohomology(pres, -3, LaurentTruncation(2))
    assert out.table == {0: 2, 1: 0} and not out.stable[0]
    for twist in range(-4, 2):
        for T in range(0, 6):
            out = sheaf_cohomology(pres, twist, LaurentTruncation(T))
            assert all(out.table[p] == 0 for p in out.table if out.stable[p])


def test_one_cech_complex_per_global_answer(monkeypatch, tmp_path):
    built = []
    real = cech.build_cech_double_complex

    def counting(m, twist=0, trunc=LaurentTruncation(2)):
        built.append((twist, trunc.bound))
        return real(m, twist, trunc)

    for module in (cech, cli, twisting):
        monkeypatch.setattr(module, "build_cech_double_complex", counting)
    scheme = tmp_path / "p1.scheme"
    scheme.write_text("ambient = 1\n")
    for command, depth in (("sections", 3), ("spectral-sequence", 2)):
        built.clear()
        assert cli.main([command, "--scheme", str(scheme), "--sheaf", "O(-2)",
                         "--out", str(tmp_path / "r.json")]) == 0
        assert built == [(0, depth)], command
    built.clear()
    rep = twisting.twist_search(structure_sheaf(corpus.p1()), 0, ceiling=2)
    assert rep.n0 == 0 and built == [(0, 3), (1, 3), (2, 3)]
