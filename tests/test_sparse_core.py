"""The compressed-column core, its canonical scalars and the compiled
slice stencils against the reference implementations in `reference.py`."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from derived_kernel.dgmodules import (
    ModuleMap,
    chart_bounds,
    cone,
    cone_inclusion,
    cone_projection_to_shifted_source,
    fibre_projection,
    free_module,
    global_bounds,
    koszul_module,
    structure_sheaf,
    tensor_with_koszul,
)
from derived_kernel.exact_linear import (
    RatMatrix,
    TrackedEchelon,
    kernel_basis,
    rank,
    solve,
)
from derived_kernel.grammar import parse_polynomial

import corpus
from reference import (
    RefEchelon,
    RefMatrix,
    ref_kernel_basis,
    ref_map_slice_matrix,
    ref_rank,
    ref_slice_matrix,
    ref_solve,
)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

# exact inputs in every form the kernel accepts, with non-unit and
# non-integral pivots; integral Fractions and bools must come out as ints
values = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    st.sampled_from([2, -3, Fraction(1, 2), Fraction(-2, 3), True]))


@st.composite
def matrices(draw, max_dim=6):
    """(rows, cols, entries) with sparse, often zero rows and columns."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    ent = {}
    if rows and cols:
        keys = draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                       st.integers(0, cols - 1)),
                             max_size=rows * cols))
        for key in keys:
            ent[key] = draw(values)
    return rows, cols, ent


@st.composite
def matrix_and_vector(draw):
    rows, cols, ent = draw(matrices())
    vec = draw(st.dictionaries(st.integers(0, max(cols - 1, 0)), values,
                               max_size=cols))
    return rows, cols, ent, vec


def both(rows, cols, ent):
    return RatMatrix(rows, cols, ent), RefMatrix(rows, cols, ent)


def items(vecs):
    return [list(v.items()) for v in vecs]


def _is_canonical(x):
    """An int when integral, a Fraction only when not: never a float, a
    bool or an integral Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_canonical(scalars):
    bad = [x for x in scalars if not _is_canonical(x)]
    assert not bad, bad


def canonical_items(vecs):
    """`items` of vectors the exact layer returned, checked canonical."""
    for v in vecs:
        assert_canonical(v.values())
    return items(vecs)


@SETTINGS
@given(matrices())
def test_views_match_reference(data):
    m, ref = both(*data)
    assert_canonical(m.vals)
    assert m.entries == ref.entries
    assert list(m.entries) == list(ref.entries)
    assert items(m.row_dicts()) == items(ref.row_dicts())
    for c in range(m.cols):
        assert canonical_items([m.column(c)]) == items([ref.column(c)])


@SETTINGS
@given(matrix_and_vector())
def test_apply_matches_reference(data):
    rows, cols, ent, vec = data
    m, ref = both(rows, cols, ent)
    assert canonical_items([m.apply(vec)]) == items([ref.apply(vec)])


@SETTINGS
@given(matrices(), st.integers(0, 6))
def test_mul_matches_reference(data, width):
    rows, cols, ent = data
    m, ref = both(rows, cols, ent)
    other_ent = {(r, c): Fraction(r - 2 * c + 1)
                 for r in range(cols) for c in range(width) if (r + c) % 3}
    got = m.mul(RatMatrix(cols, width, other_ent))
    want = ref.mul(RefMatrix(cols, width, other_ent))
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert_canonical(got.vals)
    assert list(got.entries.items()) == list(want.entries.items())


@SETTINGS
@given(matrices())
def test_elimination_matches_reference(data):
    m, ref = both(*data)
    assert canonical_items(kernel_basis(m)) == items(ref_kernel_basis(ref))
    assert rank(m) == ref_rank(ref)


@SETTINGS
@given(matrix_and_vector())
def test_solve_matches_reference(data):
    rows, cols, ent, vec = data
    m, ref = both(rows, cols, ent)
    b = m.apply(vec)
    got, want = solve(m, b), ref_solve(ref, b)
    assert canonical_items([got]) == items([want])
    assert m.apply(got) == b
    b2 = {r: Fraction(r + 1) for r in range(rows)}
    got2, want2 = solve(m, b2), ref_solve(ref, b2)
    assert (got2 is None) == (want2 is None)
    if got2 is not None:
        assert canonical_items([got2]) == items([want2])


def test_apply_ignores_out_of_range_keys():
    m = RatMatrix(2, 3, {(0, 0): 1, (1, 2): 2, (0, 2): -1})
    vec = {0: Fraction(1), 2: Fraction(3)}
    want = m.apply(vec)
    assert want == {0: Fraction(-2), 1: Fraction(6)}
    assert m.apply({-2: Fraction(5), -1: Fraction(5), **vec,
                    3: Fraction(7), 9: 1}) == want
    assert RatMatrix(0, 3).apply(vec) == {}


def test_returned_dicts_do_not_alias_the_store():
    m = RatMatrix(2, 2, {(0, 0): 1, (1, 0): 2, (1, 1): 3})
    snapshot = m.entries
    m.column(0)[0] = Fraction(9)
    m.column(1).clear()
    m.row_dicts()[1][0] = Fraction(-5)
    m.entries[(0, 1)] = Fraction(4)
    assert m.entries == snapshot
    assert m == RatMatrix(2, 2, snapshot)


def test_blocks_and_submatrix():
    a = RatMatrix(2, 2, {(0, 0): 1, (1, 1): 2})
    b = RatMatrix(1, 2, {(0, 1): 3})
    m = RatMatrix.from_blocks(3, 4, [(0, 0, a, 1), (2, 2, b, -1)])
    assert m.entries == {(0, 0): 1, (1, 1): 2, (2, 3): -3}
    assert m.submatrix([1, 2], [1, 3]).entries == {(0, 0): 2, (1, 1): -3}


# -- compiled slice stencils ---------------------------------------------

def _stencil_modules():
    P1, P2, DBL = corpus.p1(), corpus.p2(), corpus.double_point()
    x0 = {(1, 0): 1}
    f = ModuleMap(free_module(DBL, [-1]), free_module(DBL, [0]),
                  {(0, 0): x0})
    # e1 - e2 is a cycle on V(x0, x0): an odd chain map O(-1)[1] -> O
    odd = ModuleMap(free_module(DBL, [-1]).shift(1), structure_sheaf(DBL),
                    {(0, 0): {((0, 0), (1,)): 1, ((0, 0), (2,)): -1}})
    mods = [
        structure_sheaf(P1),
        structure_sheaf(DBL),
        structure_sheaf(corpus.derived_line()),
        koszul_module(P2, [({(1, 0, 0): 1}, 1), ({(0, 1, 0): 1}, 1)]),
        corpus.double_point_pushforward(P1),
        tensor_with_koszul(structure_sheaf(DBL), [(x0, 1)]),
        cone(f),
        cone(odd),
        cone(f).shift(3),
        cone(odd).twist(2),
        corpus.cotangent_p2(P2).twist(-1),
    ]
    maps = [f, odd, cone_inclusion(f), fibre_projection(f),
            cone_projection_to_shifted_source(odd), *corpus.euler_maps(P1)]
    return mods, maps


def _all_bounds(dga):
    n = dga.base.nvars
    return [global_bounds(dga), chart_bounds(dga, (0,), 2),
            chart_bounds(dga, (n - 1,), 1), chart_bounds(dga, range(n), 1)]


def _same(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert_canonical(got.vals)
    assert got.entries == want.entries


def test_module_stencils_match_apply_d():
    mods, _ = _stencil_modules()
    for m in mods:
        h_lo, h_hi = m.homological_span()
        for bounds in _all_bounds(m.dga):
            for h in range(h_lo, h_hi + 2):
                for d in range(-2, 4):
                    _same(m.slice_matrix(h, d, bounds),
                          ref_slice_matrix(m, h, d, bounds))


def test_map_stencils_match_apply():
    _, maps = _stencil_modules()
    for f in maps:
        h_lo, h_hi = f.source.homological_span()
        for bounds in _all_bounds(f.dga):
            for h in range(h_lo, h_hi + 1):
                for d in range(-2, 4):
                    _same(f.slice_matrix(h, d, bounds),
                          ref_map_slice_matrix(f, h, d, bounds))


# -- canonical scalars ---------------------------------------------------

@SETTINGS
@given(matrix_and_vector())
def test_echelons_match_reference(data):
    rows, cols, ent, vec = data
    m = RatMatrix(rows, cols, ent)
    # `e` takes untagged inserts only: its rows carry empty combinations
    e, te, ref = TrackedEchelon(), TrackedEchelon(), RefEchelon()
    for i, row in enumerate(m.row_dicts()):
        foreign = {k: Fraction(x) for k, x in row.items()}  # not canonical
        e.add(foreign)
        te.add(foreign, tag=i)
        ref.add(row, tag=i)
    assert list(e.pivots) == list(te.pivots) == list(ref.pivots)
    assert e.dim == te.dim == len(ref.pivots)
    for p, (ref_row, ref_combo) in ref.pivots.items():
        row, combo = te.pivots[p]
        assert e.pivots[p][1] == {}
        assert canonical_items([e.pivots[p][0], row, combo]) == \
            items([ref_row, ref_row, ref_combo])
    target = {k: Fraction(x) for k, x in vec.items() if x}
    got, want = te.coordinates(target), ref.coordinates(target)
    assert (got is None) == (want is None)
    if got is not None:
        assert canonical_items([got]) == items([want])


def test_pivot_inverses_are_exact_fractions_not_floats():
    # on ints, 1 / 2 is the float 0.5 and 1 / 3 an inexact float
    m = RatMatrix(1, 2, {(0, 0): 2, (0, 1): 1})
    x = solve(m, {0: 1})
    assert x == {0: Fraction(1, 2)}
    assert type(x[0]) is Fraction
    e = TrackedEchelon()
    e.add({0: 3, 1: 1})
    assert e.pivots == {0: ({0: 1, 1: Fraction(1, 3)}, {})}
    assert [type(v) for v in e.pivots[0][0].values()] == [int, Fraction]
    basis = kernel_basis(RatMatrix(1, 2, {(0, 0): 3, (0, 1): 1}))
    assert canonical_items(basis) == [[(0, 1), (1, -3)]]


def test_dga_coefficients_are_canonical():
    p2 = corpus.p2()
    e = parse_polynomial("1/2*x0 + 2*x1", p2)
    assert e.terms == {((0, 1, 0), ()): 2, ((1, 0, 0), ()): Fraction(1, 2)}
    assert_canonical(e.terms.values())
    doubled = e.scale(Fraction(2, 2)) + e
    assert doubled.terms == {((0, 1, 0), ()): 4, ((1, 0, 0), ()): 1}
    assert_canonical(doubled.terms.values())
    assert_canonical(e.scale(Fraction(2, 2)).terms.values())
