"""Tor-amplitude, vector bundle detection, resolutions by twist sums,
and the window presentation of the Grothendieck group of bundles.

Betti tables are computed against the ambient Koszul complex by
restriction of scalars.  Sheaf-level Tor-amplitude is certified by the
resolution procedure itself (each step drops the amplitude, and the
final fibre's bundle-ness is certified by quasi-isomorphism onto a twist
sum); the raw Betti bound can overshoot by contributions supported only
at the irrelevant ideal and is reported as the fallback method.

The group presentation lives on the generators [O(j)] for j in a twist
window.  Relations are (a) the ambient Koszul relations, each backed by
a verified chart-acyclic twisted Koszul complex on X, (b) detected
twist equivalences (multiplication by a section invertible on X), and
(c) user-supplied short exact sequences, verified before admission.
Smith normal form presents the resulting abelian group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .cech import LaurentTruncation
from .charts import chart_homology_vanishes, map_is_stable_quasi_iso
from .dgmodules import (
    DegreeWindow,
    DgModule,
    ModuleMap,
    free_module,
    koszul_module,
    tensor_with_koszul,
)
from .errors import InputError, PreconditionError, SearchExhausted, require
from .exact_linear import (
    integer_row_space_contains,
    smith_normal_form,
)
from .presentations import (
    PresentedModule,
    extract_presentation,
    fitting_minors,
    saturates_to_unit,
    saturates_to_zero,
)
from .strong import is_short_exact, is_strong
from .twisting import default_window


# -- Betti tables ----------------------------------------------------------

@dataclass
class BettiTable:
    entries: dict              # (i, j) -> dim Tor_i(M, k)_j
    def amplitude_bound(self):
        live = [i for (i, j), v in self.entries.items() if v]
        return max(live) if live else 0

    def row(self, i):
        return {j: v for (ii, j), v in sorted(self.entries.items())
                if ii == i and v}


def betti_window(m: DgModule):
    if not m.gens:
        return DegreeWindow(0, 0, 0, 0)
    lo = min(a for _, a in m.gens)
    hi = (max(a for _, a in m.gens) + m.dga.base.nvars
          + sum(m.dga.section_degrees) + 1)
    h_lo, h_hi = m.homological_span()
    return DegreeWindow(lo, hi, h_lo, h_hi + m.dga.base.nvars)


def _coordinates(dga):
    """The coordinates x0..xn as (polynomial, degree) pairs."""
    n1 = dga.base.nvars
    return [({tuple(1 if k == t else 0 for k in range(n1)): 1}, 1)
            for t in range(n1)]


def graded_betti(m: DgModule, window: DegreeWindow = None):
    """Tor against the residue field via the ambient Koszul complex."""
    if window is None:
        window = betti_window(m)
    tk = tensor_with_koszul(m, _coordinates(m.dga))
    entries = {}
    for i in window.homological_range():
        for j in window.internal_range():
            d = tk.homology(i, j).dim
            if d:
                entries[(i, j)] = d
    return BettiTable(entries)


# -- bundle detection ------------------------------------------------------

@dataclass
class BundleReport:
    verdict: object            # True | False | None (inconclusive)
    rank: int = None
    witness: tuple = None      # counterexample (kind, data)
    reason: str = None


def _find_points_on_locus(dga, limit=24):
    """Deterministic small rational points of the zero locus (projective
    representatives, first nonzero coordinate = 1)."""
    from itertools import product

    nvars = dga.base.nvars
    pts = []
    for cand in product((0, 1, -1, 2), repeat=nvars):
        if all(c == 0 for c in cand):
            continue
        lead = next(c for c in cand if c)
        if lead != 1:
            continue
        if all(_eval_poly(f, cand) == 0 for f in dga.sections):
            pts.append(cand)
            if len(pts) >= limit:
                break
    return pts


def _eval_poly(p, point):
    out = Fraction(0)
    for (exps, es), c in p.terms.items():
        if es:
            continue
        v = Fraction(1)
        for e, x in zip(exps, point):
            v *= Fraction(x) ** e
        out += c * v
    return out


def _fibre_dim_at_point(pres: PresentedModule, point):
    """dim of pi_0 (x) k(point) = #gens - rank of evaluated relations."""
    from .exact_linear import RatMatrix, rank
    a = len(pres.gen_degrees)
    rows = pres.all_relations()
    ent = {}
    for r, row in enumerate(rows):
        for g, p in enumerate(row):
            v = _eval_poly(p, point)
            if v:
                ent[(r, g)] = v
    return a - rank(RatMatrix(len(rows), a, ent))


def is_vector_bundle(m: DgModule, window: DegreeWindow = None,
                     trunc: LaurentTruncation = LaurentTruncation(2)):
    """Strongness plus local freeness of pi_0 via Fitting ideals.

    The Fitting tests saturate within the window (a full ideal slice
    certifies unit; classes dying under every chart variable certify
    zero); explicit points of the locus certify failures."""
    if window is None:
        window = default_window(m)
    h_lo, _ = m.homological_span()
    if h_lo < 0:
        ok, witness, unstable = chart_homology_vanishes(
            m, range(h_lo, 0), window.internal_range(), trunc.bound)
        if not ok:
            return BundleReport(False, witness=("negative homotopy", witness),
                                reason="not connective as a sheaf")
        if unstable:
            return BundleReport(None, reason="connectivity unstable")
    srep = is_strong(m, window, trunc)
    if srep.verdict == "not_strong":
        return BundleReport(False, witness=("not strong", srep.witness),
                            reason="not strong")
    if srep.verdict == "inconclusive":
        return BundleReport(None, reason="strongness inconclusive")
    pres = extract_presentation(m, 0, window)
    a = len(pres.gen_degrees)
    if a == 0:
        return BundleReport(True, rank=0)
    dga = m.dga
    points = _find_points_on_locus(dga)
    fibre_dims = sorted({_fibre_dim_at_point(pres, p) for p in points})
    if len(fibre_dims) > 1:
        return BundleReport(False, witness=("fibre jump", tuple(fibre_dims)),
                            reason="pi_0 rank jumps between points")
    for r in range(0, a + 1):
        minors = fitting_minors(pres, a - r)
        zero_ok, z_wit = saturates_to_zero(dga, minors, window.internal_hi)
        if zero_ok:
            continue    # Fitt_r is sheaf-zero: local rank exceeds r
        unit_ok, _ = saturates_to_unit(dga, minors, window.internal_lo,
                                       window.internal_hi)
        lower = fitting_minors(pres, a - r + 1)
        lower_zero, lw = saturates_to_zero(dga, lower, window.internal_hi)
        if unit_ok and lower_zero:
            return BundleReport(True, rank=r)
        if fibre_dims and fibre_dims[0] != r:
            return BundleReport(False,
                                witness=("fibre dim", fibre_dims[0]),
                                reason="pi_0 fibre dimension differs from "
                                       "the generic Fitting rank")
        return BundleReport(None, reason="Fitting saturation exhausted the "
                                         "window", witness=("rank", r))
    return BundleReport(None, reason="no admissible rank found")


# -- resolutions -----------------------------------------------------------

@dataclass
class Resolution:
    terms: list                # list of twist lists
    maps: list                 # F_i -> K_i
    fibres: list               # K_1 ... (K_d is the last term itself)
    target: DgModule
    split_witness: ModuleMap   # final comparison twist-sum -> K_d

    @property
    def steps(self):
        return len(self.terms) - 1 if self.terms else 0


def _pi0_generator_choice(pres: PresentedModule, seed):
    """Seeded generator selection: the deterministic lexicographic
    default, or (seed != 0) a shuffled order with deliberately
    redundant extra generators."""
    idx = list(range(len(pres.gen_degrees)))
    if not seed:
        return [(pres.gen_degrees[i], pres.gen_cycles[i]) for i in idx]
    rng = random.Random(seed)
    rng.shuffle(idx)
    out = [(pres.gen_degrees[i], pres.gen_cycles[i]) for i in idx]
    dga = pres.dga
    extras = max(1, len(idx) // 2)
    for k in range(extras):
        i = idx[k % len(idx)]
        t = rng.randrange(dga.base.nvars)
        xt = dga.variable(t)
        cyc = {gi: xt * c for gi, c in pres.gen_cycles[i].items()}
        out.append((pres.gen_degrees[i] + 1, cyc))
    return out


def _twist_sum_cover(m: DgModule, chosen):
    """The twists -a and the map from their twist sum to m that sends
    generator c to the cycle of chosen[c] = (degree a, cycle)."""
    twists = [-a for a, _ in chosen]
    entries = {(gi, col): c for col, (_, cyc) in enumerate(chosen)
               for gi, c in cyc.items()}
    return twists, ModuleMap(free_module(m.dga, twists), m, entries)


def try_split(m: DgModule, window: DegreeWindow,
              trunc: LaurentTruncation, pres: PresentedModule = None):
    """Twist-sum form of m, certified by a quasi-isomorphism, or None.

    Requires the windowed pi_0 presentation (`pres`, extracted here
    unless given) to be relation-free; the comparison map built on
    representative cycles is then verified chart-by-chart."""
    if pres is None:
        pres = extract_presentation(m, 0, window)
    if pres.relations:
        return None
    twists, cmp_map = _twist_sum_cover(
        m, list(zip(pres.gen_degrees, pres.gen_cycles)))
    h_lo, h_hi = m.homological_span()
    i_range = range(min(h_lo, 0) - 1, h_hi + 1)
    ok, _, unstable = map_is_stable_quasi_iso(
        cmp_map, i_range, window.internal_range(), trunc.bound)
    if ok and not unstable:
        return twists, cmp_map
    return None


def resolve_perfect(m: DgModule, max_steps=None, seed=0,
                    window: DegreeWindow = None,
                    trunc: LaurentTruncation = LaurentTruncation(2),
                    _skip_connectivity=False):
    """Resolution by twist sums: repeatedly cover pi_0 by a free twist
    sum and pass to the homotopy fibre, until the fibre itself is a
    certified twist sum."""
    if window is None:
        window = default_window(m)
    h_lo, _ = m.homological_span()
    if h_lo < 0 and not _skip_connectivity:
        ok, witness, unstable = chart_homology_vanishes(
            m, range(h_lo, 0), window.internal_range(), trunc.bound)
        if not ok or unstable:
            raise PreconditionError(
                "resolve_perfect requires a connective sheaf; pi_%d "
                "survives at %r" % (witness[1], witness) if witness
                else "connectivity unstable")
    if max_steps is None:
        max_steps = graded_betti(m).amplitude_bound() + 2
    terms, maps, fibres = [], [], []
    current = m
    for step in range(max_steps + 1):
        pres = extract_presentation(current, 0, window)
        split = try_split(current, window, trunc, pres)
        if split is not None:
            twists, cmp_map = split
            terms.append(twists)
            maps.append(cmp_map)
            return Resolution(terms, maps, fibres, m, cmp_map)
        chosen = _pi0_generator_choice(pres, seed if step == 0 else 0)
        if not chosen:
            # pi_0 must really vanish as a sheaf; then the empty cover
            # shifts the module down and the resolution continues
            ok, witness, unstable = chart_homology_vanishes(
                current, [0], window.internal_range(), trunc.bound)
            if not ok or unstable:
                raise SearchExhausted(
                    "pi_0 presentation is empty but the sheaf is not a "
                    "certified zero; widen the window",
                    suggestion="widen the degree window")
        twists, cover = _twist_sum_cover(current, chosen)
        terms.append(twists)
        maps.append(cover)
        from .dgmodules import fibre
        current = fibre(cover)
        fibres.append(current)
        # window must deepen with the fibre's generators
        window = DegreeWindow(window.internal_lo,
                              max(window.internal_hi,
                                  max(a for _, a in current.gens)
                                  + m.dga.base.nvars + 2),
                              min(window.homological_lo,
                                  current.homological_span()[0]),
                              max(window.homological_hi,
                                  current.homological_span()[1]))
    raise SearchExhausted(
        "resolution did not terminate within %d steps" % max_steps,
        suggestion="raise max_steps or widen the window")


# -- Tor-amplitude ---------------------------------------------------------

@dataclass
class TorAmplitudeReport:
    upper_bound: int
    method: str                   # fitting | koszul_betti
    certified_in_window: bool
    betti_bound: int


def tor_amplitude(m: DgModule, window: DegreeWindow = None,
                  trunc: LaurentTruncation = LaurentTruncation(2)):
    """Sheaf-level Tor-amplitude.

    The certified method walks the resolution's fibre chain and stops
    at the first certified vector bundle (amplitude <= 0 there, and
    every covering step drops the amplitude by one, so the index is
    exact).  Resolutions themselves continue past non-split bundles
    until a twist sum, so their step count may exceed the amplitude;
    the Betti bound alone may carry irrelevant-ideal artifacts and is
    only reported as the fallback."""
    betti = graded_betti(m).amplitude_bound()
    try:
        res = resolve_perfect(m, max_steps=betti + 2, window=window,
                              trunc=trunc)
    except (SearchExhausted, PreconditionError):
        return TorAmplitudeReport(betti, "koszul_betti", False, betti)
    certified = True
    for k, mod in enumerate([m] + res.fibres):
        rep = is_vector_bundle(mod, window, trunc)
        if rep.verdict is True:
            return TorAmplitudeReport(k, "fitting", certified, betti)
        if rep.verdict is None:
            certified = False
    # the final fibre is a twist sum by construction
    return TorAmplitudeReport(res.steps, "fitting", certified, betti)


# -- K0 classes ------------------------------------------------------------

@dataclass
class K0Class:
    j_min: int
    j_max: int
    coeffs: dict               # twist j -> integer coefficient

    def add(self, other, sign=1):
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, 0) + sign * c
        out = {j: c for j, c in out.items() if c}
        if not out:
            return K0Class(0, 0, {})
        return K0Class(min(out), max(out), out)


def class_from_terms(terms):
    coeffs = {}
    for k, twists in enumerate(terms):
        sgn = -1 if k % 2 else 1
        for j in twists:
            coeffs[j] = coeffs.get(j, 0) + sgn
    coeffs = {j: c for j, c in coeffs.items() if c}
    if not coeffs:
        return K0Class(0, 0, {})
    return K0Class(min(coeffs), max(coeffs), coeffs)


def k0_class(m: DgModule, window: DegreeWindow = None, seed=0,
             trunc: LaurentTruncation = LaurentTruncation(2)):
    """Alternating sum of the resolution's twist multiplicities; shifted
    sheaves recurse with the sign rule."""
    if window is None:
        window = default_window(m)
    h_lo, h_hi = m.homological_span()
    # find the least homotopy index with surviving sheaf homology; a
    # slice whose dimensions keep growing with the truncation is
    # certainly nonvanishing
    i0 = None
    for i in range(h_lo, h_hi + 1):
        ok, witness, unstable = chart_homology_vanishes(
            m, [i], window.internal_range(), trunc.bound)
        if not ok or unstable:
            i0 = i
            break
    if i0 is None:
        return K0Class(0, 0, {})    # sheaf-acyclic
    if i0 < 0:
        shifted = m.shift(-i0)
        sub = k0_class(shifted, window, seed, trunc)
        sign = -1 if i0 % 2 else 1
        return K0Class(sub.j_min, sub.j_max,
                       {j: sign * c for j, c in sub.coeffs.items()})
    res = resolve_perfect(m, seed=seed, window=window, trunc=trunc,
                          _skip_connectivity=True)
    return class_from_terms(res.terms)


# -- the group presentation -------------------------------------------------

def binomial(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for t in range(k):
        out = out * (n - t) // (t + 1)
    return out


@dataclass
class K0GroupPresentation:
    twists: tuple              # generators [O(j)], j in this order
    relations: tuple           # (row tuple, provenance string)
    free_rank: int
    torsion: tuple
    window_label: str = "window presentation"

    def contains(self, vector):
        rows = [list(r) for r, _ in self.relations]
        return integer_row_space_contains(rows, len(self.twists),
                                          list(vector))

    def classes_agree(self, a: K0Class, b: K0Class):
        diff = a.add(b, sign=-1)
        if not diff.coeffs:
            return True
        if any(j not in self.twists for j in diff.coeffs):
            return False
        return self.contains([diff.coeffs.get(j, 0) for j in self.twists])


def ambient_koszul(dga):
    """The Koszul complex of the coordinates over dga, built and
    validated once per dga.  It is kept on the dga, so it lives exactly
    as long as the dga does (one CLI command), and its twists share its
    slice caches."""
    kz = getattr(dga, "_ambient_koszul", None)
    if kz is None:
        kz = dga._ambient_koszul = koszul_module(dga, _coordinates(dga))
    return kz


def _verify_koszul_relation(dga, j, window, trunc):
    """The twisted ambient Koszul complex restricted to X is
    chart-acyclic; this certifies the alternating-sum relation."""
    kz = ambient_koszul(dga).twist(j)
    h_lo, h_hi = kz.homological_span()
    ok, witness, unstable = chart_homology_vanishes(
        kz, range(h_lo, h_hi + 1), window.internal_range(), trunc.bound)
    return ok and not unstable


def _detect_twist_equivalences(dga, J, window, trunc):
    """[O(a)] = [O(b)] whenever multiplication by some monomial of
    degree b - a is invertible on the locus (its ideal plus the section
    ideal saturates to the unit ideal)."""
    from .dga import monomials
    out = []
    for ai in range(len(J)):
        for bi in range(ai + 1, len(J)):
            a, b = J[ai], J[bi]
            if a == b:
                continue
            deg = abs(b - a)
            found = None
            for mm in monomials(dga.base.nvars, deg):
                s = dga.poly({mm: 1})
                ok, _ = saturates_to_unit(dga, [s], window.internal_lo,
                                          window.internal_hi)
                if ok:
                    found = mm
                    break
            if found is not None:
                row = [0] * len(J)
                row[ai] = 1
                row[bi] = -1
                out.append((tuple(row), "iso_detected"))
    return out


def k0_group(dga, J, user_sequences=None,
             window: DegreeWindow = None,
             trunc: LaurentTruncation = LaurentTruncation(2)):
    """Window presentation of the Grothendieck group of twist sums.

    J is an iterable of twists (the generators [O(j)]).  Relations from
    the ambient Koszul complex are verified on X before admission; user
    sequences must pass the short-exactness check."""
    J = sorted(J)
    if not J:
        raise PreconditionError("the twist window must be nonempty")
    if window is None:
        window = DegreeWindow(min(J) - 1, max(J) + dga.base.nvars + 3,
                              0, dga.r + 1)
    n1 = dga.base.nvars
    rel = []
    for j in J:
        touched = [j - t for t in range(n1 + 1)]
        if not all(tt in J for tt in touched):
            continue
        require(_verify_koszul_relation(dga, j, window, trunc),
                "ambient Koszul complex failed chart-acyclicity at twist %d"
                % j)
        row = [0] * len(J)
        for t in range(n1 + 1):
            row[J.index(j - t)] = (-1) ** (t % 2) * binomial(n1, t)
        rel.append((tuple(row), "koszul_ambient"))
    rel.extend(_detect_twist_equivalences(dga, J, window, trunc))
    for seq in (user_sequences or []):
        f, g = seq
        rep = is_short_exact(f, g, window, trunc)
        if not rep.verdict:
            raise PreconditionError(
                "user relation rejected: %r" % (rep.failures[:3],))
        row = [0] * len(J)
        for mod, sgn in ((f.target, 1), (f.source, -1), (g.target, -1)):
            for _, a in mod.gens:
                if -a not in J:
                    raise PreconditionError(
                        "user sequence touches twist %d outside the window"
                        % -a)
                row[J.index(-a)] += sgn
        rel.append((tuple(row), "user_supplied"))
    if rel:
        form = smith_normal_form([list(r) for r, _ in rel])
        free_rank = len(J) - len(form.nonzero())
        torsion = tuple(form.torsion())
    else:
        free_rank, torsion = len(J), ()
    return K0GroupPresentation(tuple(J), tuple(rel), free_rank, torsion)


# -- audits ------------------------------------------------------------------

@dataclass
class IndependenceReport:
    classes: list
    agreed: bool
    detail: list = field(default_factory=list)


def check_resolution_independence(m: DgModule, trials=3, seed=1,
                                  group: K0GroupPresentation = None,
                                  window: DegreeWindow = None,
                                  trunc: LaurentTruncation = LaurentTruncation(2)):
    """Distinct seeded generator choices (including deliberately
    redundant sets) must give the same class modulo the relation
    lattice."""
    if trials < 2:
        raise InputError("independence needs at least 2 trials, got %d"
                         % trials)
    classes = []
    for t in range(trials):
        s = 0 if t == 0 else seed + t
        classes.append(k0_class(m, window=window, seed=s, trunc=trunc))
    if group is None:
        lo = min((c.j_min for c in classes if c.coeffs), default=0)
        hi = max((c.j_max for c in classes if c.coeffs), default=0)
        group = k0_group(m.dga, range(lo - m.dga.base.nvars - 1, hi + 1),
                         trunc=trunc)
    detail = []
    agreed = True
    base = classes[0]
    for c in classes[1:]:
        same = group.classes_agree(base, c)
        detail.append((base.coeffs, c.coeffs, same))
        agreed = agreed and same
    return IndependenceReport(classes, agreed, detail)


@dataclass
class AdditivityReport:
    lhs: dict
    rhs: dict
    agrees: bool


def check_cofibre_additivity(f: ModuleMap, g: ModuleMap,
                             group: K0GroupPresentation = None,
                             window: DegreeWindow = None,
                             trunc: LaurentTruncation = LaurentTruncation(2),
                             verified=False):
    """[G] = [F] + [H] modulo the relation lattice, for a verified
    cofibre sequence F -> G -> H."""
    from .strong import exact_iff_cofibre_check
    if not verified:
        w = window or default_window(f.target)
        cmp = exact_iff_cofibre_check(f, g, w, trunc)
        if not cmp.equivalence:
            raise PreconditionError(
                "triple is not a verified cofibre sequence: %r"
                % (cmp.failing_slice,))
    cf = k0_class(f.source, window=window, trunc=trunc)
    cg = k0_class(f.target, window=window, trunc=trunc)
    ch = k0_class(g.target, window=window, trunc=trunc)
    total = cf.add(ch)
    if group is None:
        touched = [0]
        for c in (cf, cg, ch, total):
            touched.extend(c.coeffs)
        dga = f.dga
        group = k0_group(dga, range(min(touched) - dga.base.nvars - 1,
                                    max(touched) + 1), trunc=trunc)
    agrees = group.classes_agree(cg, total)
    return AdditivityReport(cg.coeffs, total.coeffs, agrees)
