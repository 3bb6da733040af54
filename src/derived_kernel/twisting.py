"""Twisting: ampleness bookkeeping, the twist-isomorphism search, and
global generation of strong coherent sheaves.

The twist isomorphism (homotopy of twisted global sections against
sections of the twisted homotopy sheaf) is tested as dimension equality
plus bijectivity of the explicit edge map onto the (0, i) cell of the
second spectral page, never dimension equality alone.  Searches report
the least verified bound and per-twist evidence rows; they never
predict bounds a priori.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cech import (
    LaurentTruncation,
    build_cech_double_complex,
    sheaf_cohomology,
)
from .charts import module_depth_hint
from .dgmodules import DegreeWindow, DgModule, ModuleMap, free_module
from .errors import PreconditionError, SearchExhausted
from .presentations import (
    PresentedModule,
    _labels_to_element,
    extract_presentation,
)
from .strong import classify_map, is_strong


@dataclass(frozen=True)
class AmpleWitness:
    twist: int
    verdict: str             # ample | not_ample
    justification: dict


def is_ample(k, dga):
    """Ampleness of O_X(k) in the model class: the truncation is the
    pullback of O(k) to tX, ample exactly when k > 0."""
    just = {
        "pi0_bundle": "pullback of O(%d) along tX -> P^%d" % (k, dga.base.n),
        "twist": k,
        "positive": k > 0,
    }
    return AmpleWitness(k, "ample" if k > 0 else "not_ample", just)


def default_window(m: DgModule, pad=3):
    """Internal window wide enough for presentations of m's homotopy."""
    if m.gens:
        lo = min(a for _, a in m.gens)
        hi = max(a for _, a in m.gens) + sum(m.dga.section_degrees)
    else:
        lo, hi = 0, 0
    h_lo, h_hi = m.homological_span()
    return DegreeWindow(lo - 1, hi + m.dga.base.nvars + pad, h_lo, h_hi)


def default_ceiling(m: DgModule):
    """3 * (generator degree spread) + ambient dimension + 2."""
    if m.gens:
        spread = max(a for _, a in m.gens) - min(a for _, a in m.gens)
    else:
        spread = 0
    return 3 * spread + m.dga.base.n + 2


@dataclass
class EvidenceRow:
    n: int
    i: int
    lhs_dim: int          # dim pi_i of twisted global sections
    rhs_dim: int          # dim sections of twisted homotopy sheaf
    edge_rank: int
    iso: bool
    stable: bool


def twist_isomorphism_check(m: DgModule, i, n,
                            trunc: LaurentTruncation = LaurentTruncation(2),
                            window: DegreeWindow = None,
                            pres: PresentedModule = None):
    """One evidence row of the twisting comparison at twist n; `pres`
    is the windowed presentation of pi_i(M), extracted here unless
    given."""
    if pres is None:
        pres = extract_presentation(m, i, window or default_window(m))
    rhs = sheaf_cohomology(pres, n, trunc)
    T = trunc.bound + 1
    dc = build_cech_double_complex(m, n, LaurentTruncation(T))
    edge_rank, lhs_dim, e2_dim = dc.spectral_sequence().edge_map_rank(i)
    stable = T >= module_depth_hint(m, n + m.dga.base.n) and rhs.stable[0]
    rhs_dim = rhs.table[0]
    iso = (lhs_dim == rhs_dim == e2_dim == edge_rank)
    return EvidenceRow(n, i, lhs_dim, rhs_dim, edge_rank, iso, stable)


@dataclass
class TwistSearchReport:
    i: int
    n0: int
    rows: tuple
    ceiling: int


def twist_search(m: DgModule, i, ceiling=None,
                 trunc: LaurentTruncation = LaurentTruncation(2),
                 window: DegreeWindow = None):
    """Least n0 with the twist isomorphism verified for every tested
    n in [n0, ceiling]."""
    if ceiling is None:
        ceiling = default_ceiling(m)
    if ceiling < 0:
        raise PreconditionError("ceiling must be nonnegative")
    pres = extract_presentation(m, i, window or default_window(m))
    rows = [twist_isomorphism_check(m, i, n, trunc, pres=pres)
            for n in range(0, ceiling + 1)]
    n0 = None
    for start in range(0, ceiling + 1):
        if all(r.iso and r.stable for r in rows[start:]):
            n0 = start
            break
    if n0 is None:
        raise SearchExhausted(
            "twist search for pi_%d exhausted the ceiling %d" % (i, ceiling),
            suggestion="raise the ceiling or deepen the Laurent truncation")
    return TwistSearchReport(i, n0, tuple(rows), ceiling)


def uniform_twist_search(m: DgModule, i_range=None, ceiling=None,
                         trunc: LaurentTruncation = LaurentTruncation(2),
                         window: DegreeWindow = None):
    """Single bound covering the finitely many relevant homotopy
    indices: the max of the per-index searches."""
    h_lo, h_hi = m.homological_span()
    if i_range is None:
        i_range = range(max(h_lo, 0), h_hi + 1)
    relevant = [i for i in i_range if h_lo <= i <= h_hi]
    n0 = 0
    reports = {}
    for i in relevant:
        rep = twist_search(m, i, ceiling, trunc, window)
        reports[i] = rep
        n0 = max(n0, rep.n0)
    return n0, reports


@dataclass
class GlobalGenReport:
    generated: bool
    n0: int = None
    sections: int = 0
    witness: ModuleMap = None
    reason: str = None
    failing: tuple = None


def is_globally_generated(m: DgModule,
                          trunc: LaurentTruncation = LaurentTruncation(2),
                          window: DegreeWindow = None, check_strong=True):
    """Global generation of a strong coherent sheaf, decided on pi_0.

    Candidate sections are the degree-(0, 0) cycle classes; they are
    assembled into a map from a trivial free sheaf whose epi-ness is
    then certified independently by classify_map."""
    if window is None:
        window = default_window(m)
    if check_strong:
        rep = is_strong(m, window, trunc)
        if rep.verdict != "strong":
            raise PreconditionError(
                "global generation requires a strong sheaf (verdict %s)"
                % rep.verdict)
    hom = m.homology(0, 0)
    nsec = hom.dim
    if nsec == 0:
        has_pi0 = any(
            m.homology(0, d).dim for d in window.internal_range())
        return GlobalGenReport(not has_pi0, n0=None, sections=0,
                               reason="no degree-0 sections"
                               if has_pi0 else "zero sheaf",
                               witness=None)
    source = free_module(m.dga, [0] * nsec)
    entries = {}
    for col, rep_vec in enumerate(hom.reps):
        for gi, el in _labels_to_element(m, hom.labels, rep_vec).items():
            entries[(gi, col)] = el
    witness = ModuleMap(source, m, entries)
    verdict = classify_map(witness, window, trunc, check_strong=False)
    if verdict.epi:
        return GlobalGenReport(True, n0=0, sections=nsec, witness=witness)
    return GlobalGenReport(False, sections=nsec, witness=witness,
                           reason="sections do not generate"
                           if verdict.epi is False else "inconclusive",
                           failing=verdict.epi_witness)


def global_generation_search(m: DgModule, ceiling=None,
                             trunc: LaurentTruncation = LaurentTruncation(2),
                             window: DegreeWindow = None):
    """Least n0 <= ceiling with M(n0) globally generated, witness
    included."""
    if ceiling is None:
        ceiling = default_ceiling(m)
    if ceiling < 0:
        raise PreconditionError("ceiling must be nonnegative")
    rep = is_strong(m, window or default_window(m), trunc)
    if rep.verdict != "strong":
        raise PreconditionError(
            "global generation search requires a strong sheaf (verdict %s)"
            % rep.verdict)
    for n in range(0, ceiling + 1):
        twisted = m.twist(n)
        out = is_globally_generated(twisted, trunc,
                                    window or default_window(twisted),
                                    check_strong=False)
        if out.generated:
            return GlobalGenReport(True, n0=n, sections=out.sections,
                                   witness=out.witness)
    raise SearchExhausted(
        "global generation search exhausted the ceiling %d" % ceiling,
        suggestion="raise the ceiling or deepen the Laurent truncation")
