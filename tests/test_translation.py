"""Truncation as a degree offset.

At lower bounds b, the (h, d) slice is x^b times the global slice at
degree d - sum(b), label for label.  So `DgModule` caches slice
matrices, their ranks and homology under (h, d + offset - sum(b)), and
`PresentedModule` caches its relation span under d - sum(b); only labels
are kept per bounds.  Here one module per corpus entry fills its caches
at every twist, chart set and depth in turn, so most requests are served
from what another twist or truncation cached.  Every answer must equal
that of a freshly built module that shares no cache, and must carry the
labels of its own bounds.
"""

from itertools import combinations

from derived_kernel.charts import ChartHomologyPair, homology_pair
from derived_kernel.dga import laurent_monomials
from derived_kernel.dgmodules import DegreeWindow, DgModule, chart_bounds
from derived_kernel.exact_linear import rank
from derived_kernel.presentations import (
    PresentedModule,
    extract_presentation,
    homology_mult_matrix,
)

import corpus
from reference import RefLocalizedSlice

TWISTS = range(-2, 3)
DEPTHS = range(3)
DEGREES = range(-2, 3)


def _cold(m, n=0):
    """A freshly built M(n): same differential, empty caches."""
    return DgModule(m.dga, [(h, a - n) for h, a in m.gens], m.diff,
                    check=False)


def _chart_sets(nvars):
    """Single charts, then every intersection of two or more."""
    return [c for k in range(1, nvars + 1)
            for c in combinations(range(nvars), k)]


def _probes(n, reps):
    """Unit vectors, the representatives and their sum."""
    out = [{k: 1} for k in range(n)] + list(reps)
    if len(reps) > 1:
        total = {}
        for r in reps:
            for k, c in r.items():
                total[k] = total.get(k, 0) + c
        out.append({k: c for k, c in total.items() if c})
    return out


def _same_homology(m, fresh, h, d, bounds):
    got, want = m.homology(h, d, bounds), fresh.homology(h, d, bounds)
    assert got.labels == m.slice_basis(h, d, bounds) \
        == fresh.slice_basis(h, d, bounds) == want.labels
    assert got.dim == want.dim
    assert [list(r.items()) for r in got.reps] \
        == [list(r.items()) for r in want.reps]
    for vec in _probes(len(want.labels), want.reps):
        assert got.coords(vec) == want.coords(vec)


def test_module_slices_are_translation_invariant():
    served = 0
    for name, root in corpus.spectral_corpus():
        dga = root.dga
        h_lo, h_hi = root.homological_span()
        for charts in _chart_sets(dga.base.nvars):
            for L in DEPTHS:
                bounds = chart_bounds(dga, charts, L)
                for n in TWISTS:
                    m = root.twist(n)
                    fresh = _cold(root, n)
                    for h in range(h_lo, h_hi + 1):
                        for d in DEGREES:
                            key = (h, d + n - sum(bounds))
                            served += key in root._homology_cache
                            mat = m.slice_matrix(h, d, bounds)
                            assert mat == fresh.slice_matrix(h, d, bounds)
                            _same_homology(m, fresh, h, d, bounds)
                            for var in range(dga.base.nvars):
                                assert homology_mult_matrix(
                                    m, h, d, var, bounds) == \
                                    homology_mult_matrix(fresh, h, d, var,
                                                         bounds), name
                            # the pair also reads depth L + 1; a module of
                            # its own keeps that from fresh's other keys
                            assert homology_pair(
                                m, h, d, charts, L).iota == \
                                homology_pair(_cold(root, n), h, d,
                                              charts, L).iota, name
        # each cached rank is that of the matrix cached under its key
        for key, r in root._rank_cache.items():
            assert r == rank(root._matrix_cache[key]), (name, key)
    # many answers came from slices cached at other bounds or twists
    assert served > 4000


def _presentations():
    """pi_i of every corpus module, over degrees -1..2."""
    for name, m in corpus.spectral_corpus():
        h_lo, h_hi = m.homological_span()
        for i in range(h_lo, h_hi + 1):
            window = DegreeWindow(-1, 2, h_lo, h_hi)
            yield "%s:pi_%d" % (name, i), extract_presentation(m, i, window)


def _slice_pair(pres, d, charts, L):
    return ChartHomologyPair(lambda b: pres.localized_slice(d, b), pres.dga,
                             charts, L)


def test_localized_slices_are_translation_invariant():
    served = 0
    for name, pres in _presentations():
        dga = pres.dga
        nvars = dga.base.nvars

        def fresh():
            return PresentedModule(dga, pres.gen_degrees, pres.relations)

        for charts in _chart_sets(nvars):
            for L in DEPTHS:
                bounds = chart_bounds(dga, charts, L)
                other = fresh()
                for d in DEGREES:
                    served += (d - sum(bounds)) in pres._span_cache
                    got = pres.localized_slice(d, bounds)
                    want = other.localized_slice(d, bounds)
                    labels = [(g, mm) for g, ag in enumerate(pres.gen_degrees)
                              for mm in laurent_monomials(nvars, d - ag,
                                                          bounds)]
                    assert got.labels == want.labels == labels, name
                    assert (got.reps, got.dim) == (want.reps, want.dim)
                    for k in range(len(labels)):
                        assert got.coords({k: 1}) == want.coords({k: 1})
                    assert _slice_pair(pres, d, charts, L).iota == \
                        _slice_pair(fresh(), d, charts, L).iota, name
    assert served > 900


def test_localized_slices_match_the_former_cokernel():
    # the representatives are the unit vectors at the label positions
    # the former relation-span elimination chose, with the same
    # coordinates for every label
    checked = 0
    for name, pres in _presentations():
        dga = pres.dga
        for charts in [()] + _chart_sets(dga.base.nvars):
            for L in DEPTHS:
                bounds = chart_bounds(dga, charts, L)
                for d in DEGREES:
                    got = pres.localized_slice(d, bounds)
                    want = RefLocalizedSlice(pres, d, bounds)
                    assert got.labels == want.labels, name
                    assert got.dim == want.dim, name
                    assert [list(r.items()) for r in got.reps] == \
                        [[(k, 1)] for k in want.rep_labels], name
                    for k, (g, mm) in enumerate(want.labels):
                        assert got.coords({k: 1}) == want.coords_of(g, mm)
                    checked += got.dim
    assert checked > 1000
