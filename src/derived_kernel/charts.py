"""Stable chart-local homology over truncated Laurent slices.

Truncated slices of a localized module approximate chart sections from
below, and homology of a truncation carries phantom classes whose
killing boundary (or covering preimage) lies just outside the
truncation.  Raising the bound kills them and mints new ones at the
deeper edge, so neither dimensions nor map ranks stabilize naively.

The sound finite data are *surviving images* under the inclusion
T -> T+1: a homology class, kernel class, cokernel class, or middle
homology class of a triple only counts if it survives to the next
level.  Every chart-local verdict in the kernel (strongness, epi/mono,
exactness, quasi-isomorphism, acyclicity) is computed this way, with a
stability flag comparing the (T, T+1) answer against (T+1, T+2): the
one helper `_stable_pair` evaluates a verdict's probe at both levels
and returns the deeper answer with the flag.

Modules entering one comparison must see each other's denominators, so
all participants share an alignment depth derived from their generator
degrees (`module_depth_hint`).

The levels of a ladder are translates of one another: the slice at
lower bounds b is x^b times the global slice at degree d - sum(b), so
the (d, L) slice of a chart set with k inverted variables is its
(d - k, L + 1) slice.  Modules and presentations cache slice matrices,
homology and localized cokernel slices under that global degree, so the
ladders of nearby degrees and depths read one another's slices
(`dgmodules`).  Both kinds of slice are `HomologyData` quotients, so one
`ChartHomologyPair` serves module homology and presented cokernels.
"""

from __future__ import annotations

from .dgmodules import DgModule, ModuleMap, chart_bounds
from .exact_linear import TrackedEchelon, kernel_basis, rank
from .presentations import PresentedModule


def module_depth_hint(m: DgModule, d):
    """Extra Laurent depth so the degree-d slices of M carry their
    classes: high-degree generators need deeper denominators.  At
    d = twist + n it is the proved depth T* of global sections (`cech`)."""
    if not m.gens:
        return 0
    top = max(a for _, a in m.gens) + sum(m.dga.section_degrees)
    return max(0, top - d)


def presented_depth_hint(pres: PresentedModule, d):
    if not pres.gen_degrees:
        return 0
    return max(0, max(pres.gen_degrees) - d)


class ChartHomologyPair:
    """A slice quotient at truncations L and L+1 of a chart set with the
    inclusion map `iota`.  `quotient_at_bounds(b)` gives the quotient
    at Laurent bounds b: a module's homology H_i(M)_d, or a
    presentation's localized cokernel slice."""

    def __init__(self, quotient_at_bounds, dga, charts, L):
        self.b0 = chart_bounds(dga, charts, L)
        self.b1 = chart_bounds(dga, charts, L + 1)
        self.h0 = quotient_at_bounds(self.b0)
        self.h1 = quotient_at_bounds(self.b1)
        images = []
        if self.h0.reps:
            index1 = {lab: k for k, lab in enumerate(self.h1.labels)}
            labels0 = self.h0.labels
            images = [{index1[labels0[k]]: c for k, c in rep.items()}
                      for rep in self.h0.reps]
        self.iota = self.h1.matrix_of(images, "a class left the deeper slice")

    def surviving_dim(self):
        return rank(self.iota)


def homology_pair(m: DgModule, i, d, charts, L):
    """The ChartHomologyPair of H_i(M)_d."""
    return ChartHomologyPair(lambda b: m.homology(i, d, b), m.dga, charts, L)


def _span_dims(base_cols, extra_cols):
    """(dim base, dim base+extra) for sparse column collections."""
    e = TrackedEchelon()
    for c in base_cols:
        if c:
            e.add(c)
    d0 = e.dim
    for c in extra_cols:
        if c:
            e.add(c)
    return d0, e.dim


class SurvivingMap:
    """A map between chart homologies at two truncation levels.

    m0: matrix at level L over (src.h0, tgt.h0); m1 at level L+1;
    `kernel0()` gives the kernel basis of m0 (by default it eliminates
    m0).  Surviving kernel and cokernel dimensions are the honest finite
    approximations of the localized kernel and cokernel."""

    def __init__(self, src_pair, tgt_pair, m0, m1, kernel0=None):
        self.src = src_pair
        self.tgt = tgt_pair
        self.m0 = m0
        self.m1 = m1
        self.kernel0 = kernel0 or (lambda: kernel_basis(m0))

    def surviving_kernel_dim(self):
        kern = self.kernel0()
        return _span_dims([self.src.iota.apply(v) for v in kern], ())[0]

    def surviving_cokernel_dim(self):
        im1 = [self.m1.column(c) for c in range(self.m1.cols)]
        moved = [self.tgt.iota.column(c) for c in range(self.tgt.iota.cols)]
        d0, d1 = _span_dims(im1, moved)
        return d1 - d0


def map_homology_pair(f: ModuleMap, i, d, charts, L, extra,
                      src_pair=None, tgt_pair=None):
    """Build the SurvivingMap of f at (i, d) on a chart set; its matrices
    and the kernel of m0 come from f's caches."""
    if src_pair is None:
        src_pair = homology_pair(f.source, i, d, charts, L + extra)
    if tgt_pair is None:
        tgt_pair = homology_pair(f.target, i, d, charts, L + extra)
    b0 = src_pair.b0
    return SurvivingMap(src_pair, tgt_pair, f.homology_matrix(i, d, b0),
                        f.homology_matrix(i, d, src_pair.b1),
                        lambda: f.homology_kernel(i, d, b0))


def triple_defects(f: ModuleMap, g: ModuleMap, i, d, chart, L, extra):
    """(not injective, not surjective, middle homology) surviving
    defects of F -> G -> H at one slice."""
    charts = (chart,)
    fp = homology_pair(f.source, i, d, charts, L + extra)
    gp = homology_pair(f.target, i, d, charts, L + extra)
    hp = homology_pair(g.target, i, d, charts, L + extra)
    a = map_homology_pair(f, i, d, charts, L, extra, fp, gp)
    b = map_homology_pair(g, i, d, charts, L, extra, gp, hp)
    inj = a.surviving_kernel_dim() > 0
    surj = b.surviving_cokernel_dim() > 0
    # middle: ker(b0)/im(a0) classes surviving into ker(b1)/im(a1)
    z0 = b.kernel0()
    moved = [gp.iota.apply(v) for v in z0]
    im1 = [a.m1.column(c) for c in range(a.m1.cols)]
    d0, d1 = _span_dims(im1, moved)
    middle = (d1 - d0) > 0
    return inj, surj, middle


def _stable_pair(probe, L):
    """Evaluate `probe` at levels L and L + 1; return the L + 1 value and
    whether the two agree.  Every chart-local verdict reads its value
    and its stability flag off this pair."""
    low, high = probe(L), probe(L + 1)
    return high, low == high


def chart_homology_vanishes(m: DgModule, i_range, d_range, T, charts=None):
    """Check that every chart-local homology slice dies; returns
    (verdict, witness, unstable)."""
    nvars = m.dga.base.nvars
    chart_list = charts if charts is not None else range(nvars)
    unstable = []
    for chart in chart_list:
        for i in i_range:
            for d in d_range:
                extra = module_depth_hint(m, d)
                val, ok = _stable_pair(lambda L: homology_pair(
                    m, i, d, (chart,), L + extra).surviving_dim(), T)
                if not ok:
                    unstable.append((chart, i, d))
                elif val:
                    return False, (chart, i, d), tuple(unstable)
    return True, None, tuple(unstable)


def map_is_stable_quasi_iso(f: ModuleMap, i_range, d_range, T, charts=None):
    """Chart-local quasi-isomorphism test on surviving (kernel,
    cokernel) defects."""
    nvars = f.dga.base.nvars
    chart_list = charts if charts is not None else range(nvars)
    unstable = []
    for chart in chart_list:
        for i in i_range:
            for d in d_range:
                extra = max(module_depth_hint(f.source, d),
                            module_depth_hint(f.target, d))

                def defects(L):
                    sm = map_homology_pair(f, i, d, (chart,), L, extra)
                    return (sm.surviving_kernel_dim() > 0,
                            sm.surviving_cokernel_dim() > 0)

                got, ok = _stable_pair(defects, T)
                if not ok:
                    unstable.append((chart, i, d))
                    continue
                if got != (False, False):
                    return False, (chart, i, d), tuple(unstable)
    return True, None, tuple(unstable)
