"""Answer checks for every job kind.

Each check takes the job's parameters and its parsed JSON report and
returns a list of problems (empty when the report is right).  The
expected values come from `oracle`, never from `derived_kernel`.
"""

from oracle import hilbert_vector, line_bundle_h, twist_sum_sections


def _module_classes(gens):
    """[M] = sum (-1)^h [O(-a)] over the generators (h, a) of a finite
    semifree module on P^n."""
    return [(-a, -1 if h % 2 else 1) for h, a in gens]


def _expect(problems, label, got, want):
    if got != want:
        problems.append("%s: got %r, expected %r" % (label, got, want))


def check_k0_group(p, out):
    problems = []
    g = out["group"]
    gens = g["generators"]
    _expect(problems, "generators", gens, list(range(p["lo"], p["hi"] + 1)))
    _expect(problems, "torsion", g["torsion"], [])
    want_rank = 1 if p["point"] else p["n"] + 1
    _expect(problems, "free_rank", g["free_rank"], want_rank)
    if not g["relations"]:
        problems.append("no relations")
    for rel in g["relations"]:
        row = rel["row"]
        if len(row) != len(gens):
            problems.append("relation %r has the wrong length" % row)
            continue
        if p["point"]:
            # on a point every line bundle has rank 1 and class 1
            _expect(problems, "row sum of %r" % row, sum(row), 0)
        else:
            hp = hilbert_vector(p["n"], list(zip(gens, row)))
            _expect(problems, "Hilbert polynomial of %r" % row,
                    hp, [0] * (p["n"] + 1))
    return problems


def check_k0_class(p, out):
    problems = []
    cls = out["class"]
    basis, coeffs = cls["basis"], cls["coeffs"]
    if basis and basis != list(range(basis[0], basis[-1] + 1)):
        problems.append("basis %r is not a run of twists" % basis)
    if len(basis) != len(coeffs):
        problems.append("basis and coeffs differ in length")
        return problems
    _expect(problems, "Hilbert polynomial of the class",
            hilbert_vector(p["n"], list(zip(basis, coeffs))),
            hilbert_vector(p["n"], _module_classes(p["gens"])))
    return problems


def check_resolve(p, out):
    problems = []
    res = out["resolution"]
    terms = res["terms"]
    _expect(problems, "steps", res["steps"], len(terms) - 1)
    _expect(problems, "resolution length", len(terms) - 1, p["amplitude"])
    classes = [(j, -1 if k % 2 else 1)
               for k, twists in enumerate(terms) for j in twists]
    _expect(problems, "Hilbert polynomial of the resolution",
            hilbert_vector(p["n"], classes),
            hilbert_vector(p["n"], _module_classes(p["gens"])))
    return problems


def check_tor_amplitude(p, out):
    problems = []
    _expect(problems, "upper_bound", out["upper_bound"], p["amplitude"])
    _expect(problems, "certified_in_window", out["certified_in_window"],
            True)
    return problems


def check_verify(p, out):
    problems = []
    _expect(problems, "passed", out["passed"], True)
    for name, ok in sorted(out["verify"].items()):
        _expect(problems, "audit %s" % name, ok, True)
    if not out["verify"]:
        problems.append("no audits reported")
    return problems


def _homotopy_problems(out, want):
    problems = []
    for key, stable in sorted(out["stable"].items()):
        _expect(problems, "stable[%s]" % key, stable, True)
    for key, dim in sorted(out["homotopy"].items()):
        _expect(problems, "homotopy[%s]" % key, dim, want.get(int(key), 0))
    missing = [i for i, dim in want.items()
               if dim and str(i) not in out["homotopy"]]
    if missing:
        problems.append("homotopy degrees %r missing" % missing)
    return problems


def _expected_homotopy(p):
    if "twists" in p:
        return twist_sum_sections(p["n"], p["twists"])
    return p["homotopy"]


def check_sections(p, out):
    return _homotopy_problems(out, _expected_homotopy(p))


def check_spectral(p, out):
    want = _expected_homotopy(p)
    problems = _homotopy_problems(out, want)
    pages = out["pages"]
    if len(pages) < 2:
        problems.append("fewer than two pages")
        return problems
    # E_2^(p,q) = H^p(pi_q F), read off from the expected sheaves
    if "twists" in p:
        e2 = {(deg, 0): line_bundle_h(p["n"], p["twists"][0], deg)
              for deg in range(p["n"] + 1)}
    else:
        e2 = p["e2"]
    got_e2 = {(c["p"], c["q"]): c["dim"] for c in pages[1]["cells"]}
    for cell in sorted(set(e2) | set(got_e2)):
        _expect(problems, "E_2 cell %r" % (cell,), got_e2.get(cell, 0),
                e2.get(cell, 0))
    # filtration property: the last page's cells with q - p = i add up
    # to pi_i of the total complex
    sums = {}
    for c in pages[-1]["cells"]:
        sums[c["q"] - c["p"]] = sums.get(c["q"] - c["p"], 0) + c["dim"]
    for key, dim in sorted(out["homotopy"].items()):
        _expect(problems, "last page at q-p=%s" % key,
                sums.pop(int(key), 0), dim)
    for deg, dim in sorted(sums.items()):
        if dim:
            problems.append("last page has %d at q-p=%d outside the "
                            "reported homotopy" % (dim, deg))
    if out["stabilized_at"] > p["n"] + 2:
        problems.append("stabilized_at %r exceeds n + 2"
                        % out["stabilized_at"])
    return problems


def check_exact(p, out):
    problems = []
    want = p["exact"]
    _expect(problems, "short_exact", out["short_exact"], want)
    _expect(problems, "cofibre_equivalence", out["cofibre_equivalence"],
            want)
    _expect(problems, "agrees", out["agrees"], True)
    _expect(problems, "failures listed", bool(out["failures"]), not want)
    return problems


def check_global_gen(p, out):
    problems = []
    n0 = max(0, -min(p["twists"]))
    _expect(problems, "n0", out["n0"], n0)
    _expect(problems, "sections", out["sections"],
            sum(line_bundle_h(p["n"], k + n0, 0) for k in p["twists"]))
    return problems


def check_twist_search(p, out):
    problems = []
    _expect(problems, "i", out["i"], p["i"])
    _expect(problems, "ceiling", out["ceiling"], p["ceiling"])
    rows = out["rows"]
    _expect(problems, "row twists", [r["n"] for r in rows],
            list(range(p["ceiling"] + 1)))
    n0 = out["n0"]
    if not isinstance(n0, int) or not 0 <= n0 <= p["ceiling"]:
        problems.append("n0 %r outside [0, ceiling]" % (n0,))
        return problems
    for r in rows:
        if r["n"] >= n0 and not (r["iso"] and r["stable"]):
            problems.append("row n=%d at or above n0=%d is not iso and "
                            "stable" % (r["n"], n0))
        if r["iso"] and r["lhs_dim"] != r["rhs_dim"]:
            problems.append("row n=%d is iso with unequal dims" % r["n"])
    if n0 > 0 and rows[n0 - 1]["iso"] and rows[n0 - 1]["stable"]:
        problems.append("n0=%d is not the least verified twist" % n0)
    if "twists" in p:
        # sums of shifted line bundles O(k)[s]: pi_i of sections at twist
        # n is sum H^(s-i)(O(k+n)); sections of pi_i is sum over s = i
        # of H^0(O(k+n)); the edge map is iso exactly when they agree
        want_n0 = 0
        for r in rows:
            tw = [k + r["n"] for k in p["twists"]]
            lhs = twist_sum_sections(p["n"], tw, p["shifts"]).get(p["i"], 0)
            rhs = sum(line_bundle_h(p["n"], k, 0)
                      for k, s in zip(tw, p["shifts"]) if s == p["i"])
            _expect(problems, "lhs_dim at n=%d" % r["n"], r["lhs_dim"], lhs)
            _expect(problems, "rhs_dim at n=%d" % r["n"], r["rhs_dim"], rhs)
            if lhs != rhs:
                want_n0 = r["n"] + 1
        _expect(problems, "n0", n0, want_n0)
    return problems


def check_strong(p, out):
    problems = []
    _expect(problems, "verdict", out["verdict"], p["verdict"])
    _expect(problems, "witness given", out["witness"] is not None,
            p["verdict"] != "strong")
    return problems


CHECKS = {
    "k0_group": check_k0_group,
    "k0_class": check_k0_class,
    "resolve": check_resolve,
    "tor_amplitude": check_tor_amplitude,
    "verify": check_verify,
    "sections": check_sections,
    "spectral": check_spectral,
    "exact": check_exact,
    "global_gen": check_global_gen,
    "twist_search": check_twist_search,
    "strong": check_strong,
}


def check(kind, params, out):
    """Problems found in report `out` of a job of the given kind; a
    report that lacks an expected field is a problem too."""
    try:
        return CHECKS[kind](params, out)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return ["malformed report: %s: %s" % (type(exc).__name__, exc)]
