"""Rank-first homology against the eager construction it replaced.

`DgModule.homology` and `TotalComplex.homology` take a slice's dimension
from two ranks and build representatives only when it is positive.
`reference.ref_homology` builds them for every slice.  Both must agree on
the dimension, the representatives (key order included) and `coords`,
and a zero slice must build no tracker.  Slices that are translates of
each other (same global key (h, d - sum(bounds))) share one homology, so
a nonzero slice builds its tracker only the first time its key is asked.
"""

import random
from fractions import Fraction

import pytest

from derived_kernel import dgmodules, exact_linear
from derived_kernel.cech import LaurentTruncation, build_cech_double_complex
from derived_kernel.dga import make_koszul_dga
from derived_kernel.dgmodules import (
    chart_bounds,
    direct_sum,
    free_module,
    global_bounds,
    structure_sheaf,
)
from derived_kernel.exact_linear import kernel_basis

import corpus
from reference import ref_homology

COEFFS = [-2, -1, 1, 2, Fraction(1, 2)]


@pytest.fixture
def trackers(monkeypatch):
    """Counts the trackers `HomologyData.from_maps` constructs."""
    made = []

    class Counting(dgmodules.TrackedEchelon):
        def __init__(self):
            made.append(self)
            super().__init__()

    monkeypatch.setattr(dgmodules, "TrackedEchelon", Counting)
    return made


def items(vecs):
    return [list(v.items()) for v in vecs]


def combination(rng, vecs):
    out = {}
    for v in vecs:
        c = rng.choice(COEFFS)
        for k, x in v.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def check_slice(rng, got, labels, out_map, in_map, built, fresh=True):
    """`got` is the kernel's homology of the slice, `built` the number of
    trackers its construction made, `fresh` whether its key was new."""
    want = ref_homology(labels, out_map, in_map)
    assert got.labels == want.labels
    assert got.dim == want.dim
    assert items(got.reps) == items(want.reps)
    assert built == (1 if want.dim and fresh else 0)
    cycles = kernel_basis(out_map)
    boundaries = [in_map.column(c) for c in range(in_map.cols)]
    probes = [combination(rng, rng.sample(cycles, min(3, len(cycles))))
              for _ in range(3)] if cycles else []
    if boundaries:
        probes.append(combination(rng, rng.sample(boundaries,
                                                  min(3, len(boundaries)))))
    for vec in probes:
        coords = want.coords(vec)
        assert coords is not None and got.coords(vec) == coords
    n = len(labels)
    for _ in range(3):
        vec = {k: rng.choice(COEFFS) for k in rng.sample(range(n), min(2, n))}
        if out_map.apply(vec):
            assert got.coords(vec) is None and want.coords(vec) is None
        else:
            assert got.coords(vec) == want.coords(vec)


def slice_bounds(dga):
    """Global bounds, then every chart and the full intersection at
    Laurent depth L = 0..2, each once (at L = 0 they are global)."""
    nv = dga.base.nvars
    chart_sets = [(i,) for i in range(nv)] + [tuple(range(nv))]
    return dict.fromkeys([global_bounds(dga)] + [
        chart_bounds(dga, charts, L)
        for L in range(3) for charts in chart_sets])


def test_module_homology_matches_eager(trackers):
    rng = random.Random(8)
    slices = zeros = shared = 0
    for name, m in corpus.spectral_corpus():
        h_lo, h_hi = m.homological_span()
        seen = set()
        for bounds in slice_bounds(m.dga):
            for h in range(h_lo, h_hi + 1):
                for d in range(-4, 5):
                    key = (h, d - sum(bounds))
                    before = len(trackers)
                    got = m.homology(h, d, bounds)
                    built = len(trackers) - before
                    check_slice(rng, got, m.slice_basis(h, d, bounds),
                                m.slice_matrix(h, d, bounds),
                                m.slice_matrix(h + 1, d, bounds), built,
                                fresh=key not in seen)
                    slices += 1
                    zeros += not got.dim
                    shared += bool(got.dim) and key in seen
                    seen.add(key)
    # zero, nonzero and shared nonzero slices are all covered
    assert 0 < zeros < slices and shared


def cech_complexes():
    """The Cech double complexes of the totalization tests in
    `test_cech.py`."""
    p1, p2 = make_koszul_dga(1, []), make_koszul_dga(2, [])
    dbl = make_koszul_dga(1, [({(1, 0): 1}, 1), ({(1, 0): 1}, 1)])
    o1 = structure_sheaf(p1)
    yield o1, 0, 2
    yield o1, 2, 3
    for T in (2, 3, 4):
        yield o1, -2, T
    yield direct_sum([o1, free_module(p1, [-2]).shift(1)]), 0, 3
    yield direct_sum([o1, free_module(p1, [-3]).shift(1)]), 0, 4
    yield direct_sum([free_module(p2, [-3]).shift(1),
                      structure_sheaf(p2)]), 0, 3
    yield structure_sheaf(dbl), 0, 3


def test_total_homology_matches_eager(trackers):
    rng = random.Random(9)
    for m, twist, T in cech_complexes():
        tc = build_cech_double_complex(m, twist, LaurentTruncation(T)).totalize()
        degrees = tc.degrees()
        for deg in range(degrees[0] - 1, degrees[-1] + 2):
            before = len(trackers)
            got = tc.homology(deg)
            check_slice(rng, got, tc.basis.get(deg, []), tc.matrix(deg),
                        tc.matrix(deg + 1), len(trackers) - before)


def test_fresh_slice_eliminates_each_map_once(monkeypatch):
    """A fresh slice with dim > 0 and two nonzero maps: the rank and the
    cycles of d_h come from one elimination, d_(h+1) is ranked once."""
    calls = []
    eliminate = exact_linear._eliminate

    def counting(m):
        calls.append(m)
        return eliminate(m)

    monkeypatch.setattr(exact_linear, "_eliminate", counting)
    m = structure_sheaf(corpus.double_point())
    got = m.homology(1, 3)
    out_map, in_map = m.slice_matrix(1, 3), m.slice_matrix(2, 3)
    assert got.dim == 1 and out_map.vals and in_map.vals
    assert calls == [out_map, in_map]


def test_twist_views_share_the_rank_cache():
    p1 = corpus.p1()
    m = corpus.point_sheaf(p1)
    view = m.twist(2)
    assert view._rank_cache is m._rank_cache
    view.homology(0, -1)
    # the view's (0, -1) is the root's (0, 1): ranks of d_0 and d_1,
    # under the global keys (h, d + offset - sum(bounds))
    assert set(m._rank_cache) == {(0, 1), (1, 1)}
    ranks = dict(m._rank_cache)
    assert m.homology(0, 1).dim == view.homology(0, -1).dim
    assert m._rank_cache == ranks


def test_map_homology_kernel_is_eliminated_once_per_key(monkeypatch):
    """The kernel of a map's cached homology matrix is cached beside it:
    repeated surviving-kernel and middle-homology probes over several
    depths eliminate each matrix at most once."""
    from derived_kernel.charts import map_homology_pair, triple_defects

    calls = []
    eliminate = exact_linear._eliminate

    def counting(m):
        calls.append(m)
        return eliminate(m)

    monkeypatch.setattr(exact_linear, "_eliminate", counting)
    f, g = corpus.euler_maps(corpus.p1())
    for _ in range(2):
        for L in range(3):
            for d in range(-1, 3):
                triple_defects(f, g, 0, d, 0, L, 1)
                map_homology_pair(f, 0, d, (0,), L, 1).surviving_kernel_dim()
    for fm in (f, g):
        assert set(fm._kernel_cache) <= set(fm._homology_cache)
    cached = [mat for fm in (f, g) for mat in fm._homology_cache.values()
              if mat.vals]
    kernels = [mat for fm in (f, g)
               for key, mat in fm._homology_cache.items()
               if mat.vals and key in fm._kernel_cache]
    assert kernels, "no nonzero homology matrix had its kernel asked"
    for mat in cached:
        assert sum(1 for m in calls if m is mat) <= 1
    for mat in kernels:
        assert sum(1 for m in calls if m is mat) == 1
