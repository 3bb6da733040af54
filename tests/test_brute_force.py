"""`rank`, `kernel_basis`, `solve` and `smith_normal_form` against brute
force.

The oracles here share no code with the exact layer: a rank is the size
of the largest nonzero minor, each minor a `Fraction` cofactor
determinant, and products are summed entry by entry.  The Smith form's
leading products are the gcds of the minors of each size.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from derived_kernel.exact_linear import (
    RatMatrix,
    kernel_basis,
    rank,
    smith_normal_form,
    solve,
)

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)

ENTRIES = st.sampled_from([-2, -1, 0, 1, 2, Fraction(1, 2)])


@st.composite
def dense(draw, max_dim=5):
    """A rows x cols matrix as a list of rows, zeros included."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    return [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)], cols


def det(a):
    """Cofactor expansion along the first row."""
    if not a:
        return Fraction(1)
    return sum((-1) ** j * Fraction(x) * det([r[:j] + r[j + 1:] for r in a[1:]])
               for j, x in enumerate(a[0]) if x)


def brute_rank(a, cols):
    for k in range(min(len(a), cols), 0, -1):
        for rs in combinations(range(len(a)), k):
            for cs in combinations(range(cols), k):
                if det([[a[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def sparse(a, cols):
    return RatMatrix(len(a), cols, {(r, c): x for r, row in enumerate(a)
                                    for c, x in enumerate(row)})


def times(a, vec):
    """a * vec with `vec` a sparse dict, as a dense list."""
    return [sum(Fraction(x) * vec.get(c, 0) for c, x in enumerate(row))
            for row in a]


@SETTINGS
@given(dense())
def test_rank_is_the_largest_nonzero_minor(data):
    a, cols = data
    assert rank(sparse(a, cols)) == brute_rank(a, cols)


@SETTINGS
@given(dense())
def test_kernel_basis_is_a_basis_of_the_kernel(data):
    a, cols = data
    basis = kernel_basis(sparse(a, cols))
    assert len(basis) == cols - brute_rank(a, cols)
    for v in basis:
        assert all(0 <= k < cols for k in v)
        assert not any(times(a, v))
    # independent: the vectors as rows have full rank
    as_rows = [[v.get(c, 0) for c in range(cols)] for v in basis]
    assert brute_rank(as_rows, cols) == len(basis)


@SETTINGS
@given(dense(), st.data())
def test_solve_solves_or_proves_inconsistent(data, draw):
    a, cols = data
    if draw.draw(st.booleans(), label="in the image"):
        x = {c: draw.draw(ENTRIES) for c in range(cols)}
        b = times(a, x)
    else:
        b = [draw.draw(ENTRIES) for _ in a]
    got = solve(sparse(a, cols), {r: y for r, y in enumerate(b) if y})
    augmented = [row + [y] for row, y in zip(a, b)]
    if brute_rank(augmented, cols + 1) > brute_rank(a, cols):
        assert got is None
    else:
        assert got is not None
        assert times(a, got) == b


@st.composite
def integer_matrix(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return [[draw(st.integers(-6, 6)) for _ in range(cols)]
            for _ in range(rows)]


def product(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row))
             for j in range(len(b[0]))] for row in a]


def minor_gcd(a, k):
    """gcd of the k x k minors of a: d_1 * ... * d_k of its Smith form."""
    out = 0
    for rs in combinations(range(len(a)), k):
        for cs in combinations(range(len(a[0])), k):
            out = gcd(out, int(det([[a[r][c] for c in cs] for r in rs])))
    return out


@SETTINGS
@given(integer_matrix())
def test_smith_normal_form_is_unimodular_and_divisible(a):
    rows, cols = len(a), len(a[0])
    form = smith_normal_form(a)
    diag = list(form.diagonal)
    U = [list(r) for r in form.left]
    V = [list(r) for r in form.right]
    assert (len(U), len(V), len(diag)) == (rows, cols, min(rows, cols))
    assert product(product(U, a), V) == [
        [diag[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    assert abs(det(U)) == abs(det(V)) == 1
    # nonnegative, d_i | d_(i+1), zeros trail
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert y % x == 0 if x else y == 0
    for k in range(1, len(diag) + 1):
        assert prod(diag[:k]) == minor_gcd(a, k)
