"""Strongness, map classification, and exactness of sheaf triples.

A module is strong when the natural comparison from (homotopy of the
base ring) tensor (pi_0 of the module) onto the module's homotopy is
an isomorphism.  Both sides are sheaves, so every check here runs
chart by chart on surviving truncated slices (see `charts`): `strong`
means verified on all slices in the window, `not_strong` carries a
failing (chart, i, d) witness, and `inconclusive` records that the
truncation or window ran out before the comparison stabilized.

Nullhomotopy convention, fixed once: h solves, on every generator g of
the source,  c(g) = d(h(g)) + h_e(d(g)),  where h_e applies the entry
matrix without graded signs.  This is precisely the condition making
the block map [g, h]: cone(f) -> H a chain map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cech import LaurentTruncation
from .charts import (
    ChartHomologyPair,
    SurvivingMap,
    _stable_pair,
    homology_pair,
    map_homology_pair,
    map_is_stable_quasi_iso,
    module_depth_hint,
    presented_depth_hint,
    triple_defects,
)
from .dgmodules import DegreeWindow, DgModule, ModuleMap, cone
from .errors import PreconditionError, require
from .exact_linear import RatMatrix, solve
from .presentations import extract_presentation, tensor_presentations


@dataclass
class StrongReport:
    verdict: str                  # strong | not_strong | inconclusive
    witness: tuple = None         # (chart, i, d) on failure
    checked: int = 0
    unstable: tuple = ()


def is_strong(m: DgModule, window: DegreeWindow,
              trunc: LaurentTruncation = LaurentTruncation(2)):
    """Slice-by-slice comparison on every standard chart."""
    dga = m.dga
    base = DgModule(dga, [(0, 0)])
    pi0_m = extract_presentation(m, 0, window)
    h_lo, h_hi = m.homological_span()
    i_lo = min(h_lo, window.homological_lo)
    i_hi = max(h_hi, window.homological_hi)
    checked = 0
    unstable = []
    for i in range(i_lo, i_hi + 1):
        if i == 0:
            continue  # comparison at pi_0 is the identity
        lhs_pres, pairs, base_pi = None, None, None
        if 1 <= i <= dga.r:
            base_pi = extract_presentation(base, i, window)
            if base_pi.gen_degrees and pi0_m.gen_degrees:
                lhs_pres, pairs = tensor_presentations(base_pi, pi0_m)
        for chart in range(dga.base.nvars):
            for d in window.internal_range():
                res = _compare_slice(m, lhs_pres, pairs, base_pi, pi0_m,
                                     i, d, chart, trunc)
                checked += 1
                if res == "mismatch":
                    return StrongReport("not_strong", (chart, i, d), checked)
                if res == "unstable":
                    unstable.append((chart, i, d))
    if unstable:
        return StrongReport("inconclusive", None, checked, tuple(unstable))
    return StrongReport("strong", None, checked)


def _compare_slice(m, lhs_pres, pairs, base_pi, pi0_m, i, d, chart, trunc):
    """Compare both sides of the strongness map at one (chart, i, d):
    'ok', 'mismatch', or 'unstable'."""
    extra = module_depth_hint(m, d)
    if lhs_pres is not None:
        extra = max(extra, presented_depth_hint(lhs_pres, d))

    def defects(T):
        rhs = homology_pair(m, i, d, (chart,), T + extra)
        if lhs_pres is None:
            return False, rhs.surviving_dim() > 0
        lhs = ChartHomologyPair(lambda b: lhs_pres.localized_slice(d, b),
                                m.dga, (chart,), T + extra)
        m0 = _comparison_matrix(m, lhs.h0, rhs.h0, pairs, base_pi, pi0_m,
                                i, d, lhs.b0)
        m1 = _comparison_matrix(m, lhs.h1, rhs.h1, pairs, base_pi, pi0_m,
                                i, d, lhs.b1)
        sm = SurvivingMap(lhs, rhs, m0, m1)
        return sm.surviving_kernel_dim() > 0, sm.surviving_cokernel_dim() > 0

    got, ok = _stable_pair(defects, trunc.bound)
    if not ok:
        return "unstable"
    return "ok" if got == (False, False) else "mismatch"


def _comparison_matrix(m, lhs_slice, rhs_hom, pairs, base_pi, pi0_m, i, d,
                       bounds):
    """Matrix of the strongness comparison on one truncated slice; the
    representatives of `lhs_slice` are unit vectors."""
    images = []
    for rep in lhs_slice.reps:
        (k,) = rep
        g, exps = lhs_slice.labels[k]
        pi, qj = pairs[g]
        zp = base_pi.gen_cycles[pi][0]          # cycle in the dga
        zq = pi0_m.gen_cycles[qj]               # module element
        mono = m.dga.element({(exps, ()): 1})
        elem = {gi: mono * zp * c for gi, c in zq.items()}
        images.append(_element_to_slice(m, elem, i, d, bounds))
    return rhs_hom.matrix_of(images, "comparison image is not a cycle")


def _element_to_slice(m, elem, h, d, bounds):
    labels = m.slice_basis(h, d, bounds)
    index = {lab: k for k, lab in enumerate(labels)}
    vec = {}
    for gi, c in elem.items():
        for (exps, es), coef in c.terms.items():
            k = index[(gi, es, exps)]
            vec[k] = vec.get(k, 0) + coef
    return {k: v for k, v in vec.items() if v}


@dataclass
class ClassifyReport:
    verdict: str          # epi | mono | iso | neither | inconclusive
    epi: bool = None
    mono: bool = None
    epi_witness: tuple = None     # (chart, d) where pi_0 cokernel survives
    mono_witness: tuple = None    # (chart, i, d) where a kernel class lives
    unstable: tuple = ()


def classify_map(f: ModuleMap, window: DegreeWindow,
                 trunc: LaurentTruncation = LaurentTruncation(2),
                 check_strong=True):
    """Epi/mono/iso per homotopy sheaves, chart-localized.

    Epi is decided on pi_0 alone; mono needs injectivity on all
    homotopy slices.  Requires both ends strong."""
    if check_strong:
        for which, mod in (("source", f.source), ("target", f.target)):
            rep = is_strong(mod, window, trunc)
            if rep.verdict != "strong":
                raise PreconditionError(
                    "classify_map requires strong modules: %s is %s (%r)"
                    % (which, rep.verdict, rep.witness))
    dga = f.dga
    unstable = []
    epi, epi_witness = True, None
    # generator-degree honesty: cokernel generators are images of target
    # pi_0 generators, so those must fall inside the window
    tgt_pres = extract_presentation(f.target, 0, window)
    gens_visible = all(g <= window.internal_hi - 1
                       for g in tgt_pres.new_gen_degrees)
    for chart in range(dga.base.nvars):
        for d in window.internal_range():
            extra = max(module_depth_hint(f.source, d),
                        module_depth_hint(f.target, d))
            got, ok = _stable_pair(lambda T: map_homology_pair(
                f, 0, d, (chart,), T, extra).surviving_cokernel_dim() > 0,
                trunc.bound)
            if not ok:
                unstable.append((chart, 0, d))
            elif got:
                epi = False
                if epi_witness is None:
                    epi_witness = (chart, d)
    mono, mono_witness = True, None
    h_lo, h_hi = f.source.homological_span()
    for chart in range(dga.base.nvars):
        for i in range(min(h_lo, window.homological_lo),
                       max(h_hi, window.homological_hi) + 1):
            for d in window.internal_range():
                extra = max(module_depth_hint(f.source, d),
                            module_depth_hint(f.target, d))
                got, ok = _stable_pair(lambda T: map_homology_pair(
                    f, i, d, (chart,), T, extra).surviving_kernel_dim() > 0,
                    trunc.bound)
                if not ok:
                    unstable.append((chart, i, d))
                elif got:
                    mono = False
                    if mono_witness is None:
                        mono_witness = (chart, i, d)
    if unstable and epi and mono:
        return ClassifyReport("inconclusive", None, None,
                              unstable=tuple(unstable))
    if epi and not gens_visible:
        return ClassifyReport("inconclusive", None, mono,
                              unstable=tuple(unstable))
    if epi and mono:
        verdict = "iso"
    elif epi:
        verdict = "epi"
    elif mono:
        verdict = "mono"
    else:
        verdict = "neither"
    return ClassifyReport(verdict, epi, mono, epi_witness, mono_witness,
                          tuple(unstable))


def nullhomotopy_witness(f: ModuleMap):
    """Matrix h with f(g) = d(h(g)) + h_e(d(g)) on every generator, or
    None when no solution exists (exact linear solve)."""
    dga = f.dga
    src, tgt = f.source, f.target
    unknowns = []     # (k, j, basis element)
    ucols = {}
    for j, (hj, aj) in enumerate(src.gens):
        for k, (hk, ak) in enumerate(tgt.gens):
            for b in dga.slice_basis(hj + 1 - hk, aj - ak):
                ucols[(k, j, b)] = len(unknowns)
                unknowns.append((k, j, b))
    rows = {}

    def row_of(j, k, belt):
        key = (j, k, belt)
        if key not in rows:
            rows[key] = len(rows)
        return rows[key]

    ent = {}

    def add_entry(j, k, elem, col, sign=1):
        for belt, c in elem.terms.items():
            r = row_of(j, k, belt)
            ent[(r, col)] = ent.get((r, col), 0) + sign * c

    for (k, j, b), col in ucols.items():
        belem = dga.element({b: 1})
        # d(h(g_j)) contribution: d(b)*g_k + (-1)^|b| b*d(g_k)
        db = belem.differential()
        if not db.is_zero():
            add_entry(j, k, db, col)
        sign = -1 if len(b[1]) % 2 else 1
        for (kk, ii), dent in tgt.diff.items():
            if ii == k:
                add_entry(j, kk, belem * dent, col, sign)
        # h_e(d(g_j2)) contribution: this unknown is hit by every
        # differential entry of the source landing on generator j
        for (i2, j2), dent in src.diff.items():
            if i2 != j:
                continue
            add_entry(j2, k, dent * belem, col)

    rhs = {}
    for (k, j), fe in f.entries.items():
        for belt, c in fe.terms.items():
            r = row_of(j, k, belt)
            rhs[r] = rhs.get(r, 0) + c
    mat = RatMatrix(len(rows), len(unknowns), ent)
    sol = solve(mat, rhs)
    if sol is None:
        return None
    hent = {}
    for col, x in sol.items():
        k, j, b = unknowns[col]
        cur = hent.get((k, j), dga.zero())
        hent[(k, j)] = cur + dga.element({b: x})
    hent = {k: v for k, v in hent.items() if not v.is_zero()}
    _assert_nullhomotopy(f, hent)
    return hent


def _apply_entries(dga, entries, elem):
    """Entrywise application without graded signs (the h_e extension)."""
    out = {}
    for j, c in elem.items():
        for (k, jj), e in entries.items():
            if jj != j:
                continue
            out[k] = out.get(k, dga.zero()) + c * e
    return {k: v for k, v in out.items() if not v.is_zero()}


def _assert_nullhomotopy(f, hent):
    dga = f.dga
    src, tgt = f.source, f.target
    for j in range(len(src.gens)):
        want = f.apply(src.gen_unit(j))
        hj = _apply_entries(dga, hent, src.gen_unit(j))
        got = tgt.apply_d(hj)
        hd = _apply_entries(dga, hent, src.apply_d(src.gen_unit(j)))
        for k, v in hd.items():
            got[k] = got.get(k, dga.zero()) + v
        diff = {k: want.get(k, dga.zero()) - got.get(k, dga.zero())
                for k in set(want) | set(got)}
        require(all(c.is_zero() for c in diff.values()),
                "nullhomotopy identity failed at generator %d" % j)


@dataclass
class ExactnessReport:
    verdict: bool
    nullhomotopy: object          # entry dict or None
    failures: tuple = ()          # (chart, i, d, reason)
    unstable: tuple = ()


def is_short_exact(f: ModuleMap, g: ModuleMap, window: DegreeWindow,
                   trunc: LaurentTruncation = LaurentTruncation(2),
                   check_strong=True):
    """Short-exactness of F -> G -> H as strong sheaves: nullhomotopic
    composite plus chart-wise short exact homotopy slices."""
    assert g.source is f.target or g.source == f.target
    if check_strong:
        for name, mod in (("first", f.source), ("middle", f.target),
                          ("last", g.target)):
            rep = is_strong(mod, window, trunc)
            if rep.verdict != "strong":
                raise PreconditionError(
                    "is_short_exact requires strong modules: %s is %s"
                    % (name, rep.verdict))
    h = nullhomotopy_witness(g.compose(f))
    failures = []
    unstable = []
    dga = f.dga
    lo = min(f.source.homological_span()[0], f.target.homological_span()[0],
             g.target.homological_span()[0], window.homological_lo)
    hi = max(f.source.homological_span()[1], f.target.homological_span()[1],
             g.target.homological_span()[1], window.homological_hi)
    for chart in range(dga.base.nvars):
        for i in range(lo, hi + 1):
            for d in window.internal_range():
                extra = max(module_depth_hint(f.source, d),
                            module_depth_hint(f.target, d),
                            module_depth_hint(g.target, d))
                got, ok = _stable_pair(lambda T: triple_defects(
                    f, g, i, d, chart, T, extra), trunc.bound)
                if not ok:
                    unstable.append((chart, i, d))
                    continue
                inj_defect, surj_defect, middle_defect = got
                if inj_defect:
                    failures.append((chart, i, d, "not injective"))
                if surj_defect:
                    failures.append((chart, i, d, "not surjective"))
                if middle_defect:
                    failures.append((chart, i, d, "middle homology"))
    verdict = (h is not None) and not failures and not unstable
    return ExactnessReport(verdict, h, tuple(failures), tuple(unstable))


@dataclass
class CofibreComparison:
    equivalence: bool
    short_exact: ExactnessReport
    agrees: bool
    failing_slice: tuple = None


def induced_cone_comparison(f: ModuleMap, g: ModuleMap, h_entries):
    """The chain map cone(f) -> H built from g and a nullhomotopy of
    the composite: [g, h] on the blocks."""
    c = cone(f)
    ent = {}
    off = len(f.target.gens)
    for (k, i), e in g.entries.items():
        ent[(k, i)] = e
    for (k, j), e in h_entries.items():
        ent[(k, off + j)] = e
    return ModuleMap(c, g.target, ent)


def exact_iff_cofibre_check(f: ModuleMap, g: ModuleMap, window: DegreeWindow,
                            trunc: LaurentTruncation = LaurentTruncation(2),
                            se: ExactnessReport = None):
    """Both sides of the exactness/cofibre equivalence, cross-checked.

    Builds H' = cone(f), induces H' -> H from a nullhomotopy of the
    composite, tests quasi-isomorphism chart-wise on surviving slices,
    and compares the outcome with the short-exactness verdict (`se`,
    the report of `is_short_exact` on the same window and truncation,
    computed here unless given)."""
    if se is None:
        se = is_short_exact(f, g, window, trunc, check_strong=False)
    if se.nullhomotopy is None:
        return CofibreComparison(False, se, agrees=(not se.verdict))
    phi = induced_cone_comparison(f, g, se.nullhomotopy)
    lo, hi = phi.source.homological_span()
    lo2, hi2 = phi.target.homological_span()
    i_range = range(min(lo, lo2, window.homological_lo),
                    max(hi, hi2, window.homological_hi) + 1)
    ok, witness, unstable = map_is_stable_quasi_iso(
        phi, i_range, window.internal_range(), trunc.bound)
    equivalence = ok and not unstable
    return CofibreComparison(equivalence, se,
                             agrees=(equivalence == se.verdict),
                             failing_slice=witness)
