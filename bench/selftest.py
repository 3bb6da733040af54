"""Self-test of the benchmark's answer checks.

    python3 bench/selftest.py

For seeds 1 and 2 and each workload, runs every job once, in process, and
requires its report to pass its check.  For the first seed it then
corrupts every report in each of the ways listed in CORRUPTIONS (a
wrong rank, a flipped verdict, a wrong dimension, ...) and requires the
check to reject every corrupted copy.  It also pins the oracle to a few
values worked out by hand.  Exits 1 on any miss.  Takes about two
minutes.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check  # noqa: E402
from oracle import hilbert_value, line_bundle_h  # noqa: E402
from worker import Runner, import_program  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SEEDS = (1, 2)


def _flip(out, *path):
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = not node[path[-1]]


def _first_key(d):
    return sorted(d)[0]


def _last_page_cell(out):
    out["pages"][-1]["cells"].append({"p": 0, "q": 0, "dim": 1})


def _e2_cell(out):
    out["pages"][1]["cells"].append({"p": 5, "q": 5, "dim": 1})


def _homotopy(out):
    key = _first_key(out["homotopy"])
    out["homotopy"][key] += 1


def _stable(out):
    _flip(out, "stable", _first_key(out["stable"]))


def _twist_rows(field):
    def corrupt(out):
        row = out["rows"][-1]
        row[field] = (not row[field]) if isinstance(row[field], bool) \
            else row[field] + 1
    return corrupt


def _twist_n0_later(out):
    out["n0"] = out["n0"] + 1 if out["n0"] < out["ceiling"] else 0
    if out["n0"] == 0:            # n0 = ceiling was right: make row 0 fail
        out["rows"][0]["iso"] = False


# kind -> [(label, corrupt(out) mutating a deep copy)]
CORRUPTIONS = {
    "k0_group": [
        ("free_rank + 1",
         lambda o: o["group"].update(free_rank=o["group"]["free_rank"] + 1)),
        ("torsion [2]", lambda o: o["group"].update(torsion=[2])),
        ("relation entry + 1",
         lambda o: o["group"]["relations"][0]["row"].__setitem__(
             0, o["group"]["relations"][0]["row"][0] + 1)),
        ("generator dropped", lambda o: o["group"]["generators"].pop()),
    ],
    "k0_class": [
        ("coefficient + 1",
         lambda o: o["class"]["coeffs"].__setitem__(
             0, o["class"]["coeffs"][0] + 1)),
        ("coefficients negated",
         lambda o: o["class"].update(
             coeffs=[-c for c in o["class"]["coeffs"]])),
    ],
    "resolve": [
        ("term twist - 1",
         lambda o: o["resolution"]["terms"][0].__setitem__(
             0, o["resolution"]["terms"][0][0] - 1)),
        ("steps + 1",
         lambda o: o["resolution"].update(
             steps=o["resolution"]["steps"] + 1)),
        ("extra term",
         lambda o: o["resolution"]["terms"].append([0])),
    ],
    "tor_amplitude": [
        ("upper_bound + 1",
         lambda o: o.update(upper_bound=o["upper_bound"] + 1)),
        ("not certified", lambda o: _flip(o, "certified_in_window")),
    ],
    "verify": [
        ("passed flipped", lambda o: _flip(o, "passed")),
        ("audit flipped", lambda o: _flip(o, "verify",
                                          _first_key(o["verify"]))),
    ],
    "sections": [
        ("homotopy + 1", _homotopy),
        ("unstable", _stable),
    ],
    "spectral": [
        ("homotopy + 1", _homotopy),
        ("unstable", _stable),
        ("extra last-page cell", _last_page_cell),
        ("extra E_2 cell", _e2_cell),
        ("late stabilization",
         lambda o: o.update(stabilized_at=o["stabilized_at"] + 10)),
    ],
    "exact": [
        ("short_exact flipped", lambda o: _flip(o, "short_exact")),
        ("cofibre_equivalence flipped",
         lambda o: _flip(o, "cofibre_equivalence")),
        ("agrees flipped", lambda o: _flip(o, "agrees")),
    ],
    "global_gen": [
        ("n0 + 1", lambda o: o.update(n0=o["n0"] + 1)),
        ("sections + 1", lambda o: o.update(sections=o["sections"] + 1)),
    ],
    "twist_search": [
        ("last row not iso", _twist_rows("iso")),
        ("last row unstable", _twist_rows("stable")),
        ("n0 moved", _twist_n0_later),
        ("row missing", lambda o: o["rows"].pop()),
    ],
    "strong": [
        ("verdict flipped",
         lambda o: o.update(verdict="not_strong" if o["verdict"] == "strong"
                            else "strong")),
    ],
}

# extra corruptions for jobs whose dimensions have an oracle
TWIST_SUM_CORRUPTIONS = [
    ("lhs_dim + 1 on the first row",
     lambda o: o["rows"][0].update(lhs_dim=o["rows"][0]["lhs_dim"] + 1,
                                   rhs_dim=o["rows"][0]["rhs_dim"] + 1)),
]


def oracle_pins():
    """Values worked out by hand."""
    want = [
        (line_bundle_h(2, 3, 0), 10),     # cubics in 3 variables
        (line_bundle_h(1, -2, 1), 1),     # H^1(P^1, O(-2))
        (line_bundle_h(2, -4, 2), 3),     # H^2(P^2, O(-4))
        (line_bundle_h(2, -1, 1), 0),
        (line_bundle_h(1, -7, 1), 6),
        ([hilbert_value(2, 0, t) for t in range(4)], [1, 3, 6, 10]),
        ([hilbert_value(1, -3, t) for t in range(3)], [-2, -1, 0]),
    ]
    return [(got, exp) for got, exp in want if got != exp]


def run_jobs(cli, workload, seed, workdir):
    """Run every job once; return [(job, report)] and the problems."""
    runner = Runner(cli, build(workload, seed, workdir), workdir)
    runner.run_pass()
    results = [(job, json.loads(runner.reference[job["name"]]))
               for job in runner.jobs if job["name"] in runner.reference]
    return results, runner.problems


def corruption_misses(results):
    misses, tried = [], 0
    for job, report in results:
        corruptions = list(CORRUPTIONS[job["kind"]])
        if job["kind"] == "twist_search" and "twists" in job["params"]:
            corruptions += TWIST_SUM_CORRUPTIONS
        for label, corrupt in corruptions:
            bad = copy.deepcopy(report)
            corrupt(bad)
            tried += 1
            if not check(job["kind"], job["params"], bad):
                misses.append("%s: check accepted '%s'" % (job["name"],
                                                             label))
    return misses, tried


def main():
    root = os.path.dirname(HERE)
    cli = import_program(root)
    failures = ["oracle: got %r, expected %r" % x for x in oracle_pins()]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    for n, seed in enumerate(SEEDS):
        for workload in sorted(WORKLOADS):
            workdir = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
            try:
                results, problems = run_jobs(cli, workload, seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            failures += problems
            line = "seed %d %s: %d jobs, %d problems" % (
                seed, workload, len(results), len(problems))
            if n == 0:
                misses, tried = corruption_misses(results)
                failures += misses
                line += ", %d corruptions, %d accepted" % (tried, len(misses))
            print(line, flush=True)
    for f in failures:
        print("FAIL " + f)
    print("selftest %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
