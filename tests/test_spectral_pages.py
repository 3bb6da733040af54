"""The spectral sequence read off one filtered reduction against the
former page-by-page quotients (`reference.RefSpectralSequence`).

Three families of double complexes: the Cech double complexes of the
totalization tests, the spectral corpus at T = 0..3, and random grids
(derandomized Hypothesis) assembled from dots, squares and staircases
and then scrambled by a change of basis in every cell.  A staircase of
k sources carries a d_k, so the random grids reach the d_2 and d_3 that
the Cech corpus never has.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from derived_kernel.cech import LaurentTruncation, build_cech_double_complex
from derived_kernel.exact_linear import RatMatrix
from derived_kernel.spectral import DoubleComplex

import corpus
from reference import RefSpectralSequence
from test_rank_first import cech_complexes

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)


def assert_matches_reference(dc):
    ss = dc.spectral_sequence()
    ref = RefSpectralSequence(dc)
    assert [(p.r, p.dims(), p.differentials) for p in ss.pages] == \
        [(k + 1, dims, diffs) for k, (dims, diffs) in enumerate(ref.pages)]
    assert ss.infinity.dims() == ref.infinity[0]
    assert ss.infinity.r == ref.infinity_r
    assert ss.stabilized_at() == ref.stabilized_at()
    if ss.p_range[0] >= 0:
        degrees = ss.total.degrees() or [0]
        for i in range(degrees[0] - 1, degrees[-1] + 2):
            assert ss.edge_map_rank(i) == ref.edge_map_rank(i), i
    return ss


def test_cech_complexes_match_the_former_pages():
    for m, twist, T in cech_complexes():
        assert_matches_reference(
            build_cech_double_complex(m, twist, LaurentTruncation(T)))


def test_spectral_corpus_matches_the_former_pages():
    for T in range(4):
        for name, m in corpus.spectral_corpus():
            assert_matches_reference(
                build_cech_double_complex(m, 0, LaurentTruncation(T)))


# -- random grids --------------------------------------------------------

def _staircase(p, h, sources, starts_with_source, ends_with_source):
    """Vertices and arrows of a staircase: sources and targets
    alternate, each source maps right (horizontal) to the next target
    and down (vertical) to the previous one.  With k sources, a source
    first and a target last, it carries d_k from its first vertex at
    (p, h) to its last at (p + k, h + k - 1)."""
    kinds = []
    if not starts_with_source:
        kinds.append("t")
    for k in range(sources):
        kinds.append("s")
        if k < sources - 1 or not ends_with_source:
            kinds.append("t")
    pos = [(p, h)]
    for a, b in zip(kinds, kinds[1:]):
        x, y = pos[-1]
        # right from a source to its target, up from a target to its source
        pos.append((x + 1, y) if a == "s" else (x, y + 1))
    arrows = []
    for k, kind in enumerate(kinds):
        if kind == "s":
            if k > 0:
                arrows.append(("v", k, k - 1))
            if k + 1 < len(kinds):
                arrows.append(("h", k, k + 1))
    return pos, arrows


def _square(p, h):
    pos = [(p, h), (p + 1, h), (p, h - 1), (p + 1, h - 1)]
    return pos, [("h", 0, 1), ("v", 0, 2), ("v", 1, 3), ("h", 2, 3)]


def _random_pieces(rng):
    pieces = []
    for _ in range(rng.randrange(1, 6)):
        p, h = rng.randrange(0, 3), rng.randrange(-1, 3)
        kind = rng.randrange(3)
        if kind == 0:
            pieces.append(([(p, h)], []))
        elif kind == 1:
            pieces.append(_square(p, h))
        else:
            pieces.append(_staircase(p, h, rng.randrange(1, 4),
                                     rng.random() < 0.6, rng.random() < 0.4))
    return pieces


def _grid(pieces, rng=None):
    """The double complex of a sum of pieces; with `rng`, each cell's
    basis is changed by a few random unitriangular moves and scalings,
    which keeps the differentials commuting and D*D = 0."""
    cells, place = {}, []
    for pos, arrows in pieces:
        idx = []
        for cell in pos:
            idx.append(cells.get(cell, 0))
            cells[cell] = idx[-1] + 1
        place.append((pos, idx, arrows))
    vert, horiz = {}, {}
    for pos, idx, arrows in place:
        for kind, a, b in arrows:
            store = vert if kind == "v" else horiz
            blk = store.setdefault(pos[a], {})
            blk[(idx[b], idx[a])] = 1
    if rng is not None:
        for cell, n in cells.items():
            for _ in range(rng.randrange(0, 2 * n + 1)):
                _change_basis(vert, horiz, cell, n, rng)
    targets = {"v": lambda p, h: (p, h - 1), "h": lambda p, h: (p + 1, h)}
    out = {}
    for kind, store in (("v", vert), ("h", horiz)):
        out[kind] = {
            cell: RatMatrix(cells[targets[kind](*cell)], cells[cell], blk)
            for cell, blk in store.items() if blk}
    return DoubleComplex(cells, out["v"], out["h"])


def _change_basis(vert, horiz, cell, n, rng):
    """New basis e_i' = e_i + c e_j (i != j), or e_i' = s e_i, in `cell`:
    column i of every map out of the cell changes one way, row j (row
    i) of every map into it the inverse way."""
    p, h = cell
    outs = [vert.setdefault(cell, {}), horiz.setdefault(cell, {})]
    ins = [vert.setdefault((p, h + 1), {}), horiz.setdefault((p - 1, h), {})]
    i = rng.randrange(n)
    j = rng.randrange(n)
    if i == j:
        s = rng.choice([-1, 2, 3])
        for blk in outs:
            for key in [k for k in blk if k[1] == i]:
                blk[key] = blk[key] * s
        for blk in ins:
            for key in [k for k in blk if k[0] == i]:
                blk[key] = Fraction(blk[key]) / s
        return
    c = rng.choice([-2, -1, 1, 2])
    for blk in outs:  # column i += c * column j
        for (r, col), x in [(k, x) for k, x in blk.items() if k[1] == j]:
            blk[(r, i)] = blk.get((r, i), 0) + c * x
    for blk in ins:   # row j -= c * row i
        for (r, col), x in [(k, x) for k, x in blk.items() if k[0] == i]:
            blk[(j, col)] = blk.get((j, col), 0) - c * x
    for blk in outs + ins:
        for key in [k for k, x in blk.items() if not x]:
            del blk[key]


def test_staircase_carries_d2():
    # x at (0,0) with h(x) = v(z) and h(z) = w at (2,1): d_2 x = w
    x_to_y = RatMatrix(1, 1, {(0, 0): 1})
    dc = DoubleComplex({(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1},
                       {(1, 1): x_to_y}, {(0, 0): x_to_y, (1, 1): x_to_y})
    ss = assert_matches_reference(dc)
    assert ss.pages[0].dims() == {(0, 0): 1, (2, 1): 1}
    assert ss.pages[0].differentials == {}
    assert ss.pages[1].differentials == {(0, 0): ((2, 1), 1)}
    assert ss.pages[2].dims() == {} == ss.infinity.dims()
    assert ss.stabilized_at() == 3
    assert ss.edge_map_rank(0) == (0, 0, 1)


def test_staircases_carry_d2_and_d3():
    # a staircase of k sources, from a source to a target, has one d_k
    for k in (1, 2, 3):
        ss = assert_matches_reference(_grid([_staircase(0, 0, k, True,
                                                        False)]))
        first, last = (0, 0), (k, k - 1)
        diffs = [(page.r, page.differentials) for page in ss.pages
                 if page.differentials]
        assert diffs == [(k, {first: (last, 1)})], k


@SETTINGS
@given(st.randoms(use_true_random=False))
def test_random_grids_match_the_former_pages(rng):
    pieces = _random_pieces(rng)
    assert_matches_reference(_grid(pieces, rng))


def test_random_grids_reach_d2_and_d3():
    # the random family is not vacuous: over a fixed set of draws it
    # holds nonzero d_2 and d_3, also after the change of basis
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        ss = _grid(_random_pieces(rng), rng).spectral_sequence()
        seen.update(p.r for p in ss.pages if p.differentials)
    assert {1, 2, 3} <= seen
