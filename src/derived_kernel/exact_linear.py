"""Exact rational and integer linear algebra.

Every scalar is exact and canonical: a Python `int` when it is integral,
and a `fractions.Fraction` (denominator > 1) only when it is not; there
is no floating point anywhere.  Sums and products of ints stay ints, so
the small integer entries that dominate (signs, section coefficients,
unit pivots) never allocate a Fraction or pay a gcd.  A result that may
be an integral Fraction goes through `_q`, and the only division is the
pivot inverse `_recip`: no `/` is applied to a scalar anywhere else,
since `int / int` would give a float.  `int(n) == Fraction(n)` with
equal hashes and equal `str`, so canonical scalars print and compare as
the Fractions they stand for.

A matrix is stored once, as compressed sparse columns (only nonzero
entries, rows ascending within each column), and is read-only after
construction: routines that need rows build a throwaway row view, and
every dict a matrix hands out is a copy.  Every routine is
deterministic: pivots are chosen by fixed tie-breaking rules and results
iterate in sorted order, so identical inputs give bit-exact identical
outputs across runs.

Vectors are plain dicts {index: scalar} holding only nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import PreconditionError, require

_FRACTION_ONE = Fraction(1)


def _q(x):
    """The canonical scalar equal to x: an int when x is integral, else
    a Fraction.  Inputs other than int and Fraction go through
    `Fraction(x)` first."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _recip(x):
    """1/x for a nonzero scalar, canonical; the one division."""
    if x == 1 or x == -1:
        return x
    return _q(_FRACTION_ONE / x)


def _canonical(vec):
    """A fresh copy of a foreign vector with canonical, nonzero values."""
    return {k: x if type(x) is int else _q(x) for k, x in vec.items() if x}


def vec_add(u, v):
    out = dict(u)
    for k, x in v.items():
        s = out.get(k, 0) + x
        if s:
            out[k] = s if type(s) is int else _q(s)
        else:
            out.pop(k, None)
    return out


def vec_scale(c, u):
    if not c:
        return {}
    if c == 1:
        return dict(u)
    return {k: _q(c * x) for k, x in u.items()}


def vec_axpy(out, c, u):
    """out += c*u in place."""
    if not c:
        return out
    for k, x in u.items():
        s = out.get(k, 0) + c * x
        if s:
            out[k] = s if type(s) is int else _q(s)
        else:
            out.pop(k, None)
    return out


class RatMatrix:
    """Sparse rows x cols matrix over Q in compressed sparse columns.

    The one store is three flat tuples: column c holds the rows
    `row_idx[ptr[c]:ptr[c+1]]`, strictly increasing, with the nonzero
    values `vals[ptr[c]:ptr[c+1]]`, each a canonical scalar (int when
    integral, Fraction otherwise; entries given in any exact form are
    canonicalized on the way in).  A matrix is read-only after
    construction and nothing is cached beside the store; row views are
    built on demand by the routines that need them and dicts handed
    out (`column`, `row_dicts`, `entries`) are fresh copies.
    """

    __slots__ = ("rows", "cols", "ptr", "row_idx", "vals")

    def __init__(self, rows, cols, entries=None):
        assert rows >= 0 and cols >= 0
        columns = [{} for _ in range(cols)]
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (r, c), x in items:
                assert 0 <= r < rows and 0 <= c < cols, (r, c, rows, cols)
                if x:
                    columns[c][r] = x
        self._fill(rows, columns)

    def _fill(self, rows, columns):
        ptr, row_idx, vals = [0], [], []
        for col in columns:
            for r in sorted(col):
                x = col[r]
                assert 0 <= r < rows, (r, rows)
                if type(x) is not int:
                    x = _q(x)
                if x:
                    row_idx.append(r)
                    vals.append(x)
            ptr.append(len(vals))
        self.rows = rows
        self.cols = len(columns)
        self.ptr = tuple(ptr)
        self.row_idx = tuple(row_idx)
        self.vals = tuple(vals)

    @property
    def entries(self):
        """{(row, col): value} in (row, col) order; a fresh dict."""
        ptr, row_idx = self.ptr, self.row_idx
        keys = [(row_idx[k], c) for c in range(self.cols)
                for k in range(ptr[c], ptr[c + 1])]
        return {key: x for key, x in sorted(zip(keys, self.vals))}

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.ptr == other.ptr
                and self.row_idx == other.row_idx and self.vals == other.vals)

    def __repr__(self):
        return "RatMatrix(%d, %d, %r)" % (self.rows, self.cols, self.entries)

    @classmethod
    def from_columns(cls, cols_list, rows):
        """Matrix whose column c is the sparse dict cols_list[c]."""
        m = cls.__new__(cls)
        m._fill(rows, cols_list)
        return m

    @classmethod
    def from_blocks(cls, rows, cols, blocks):
        """Matrix assembled from (row offset, col offset, block, sign)
        pieces with disjoint supports."""
        columns = [{} for _ in range(cols)]
        for r0, c0, blk, sign in blocks:
            ptr, row_idx = blk.ptr, blk.row_idx
            vals = blk.vals if sign == 1 else [sign * x for x in blk.vals]
            for c in range(blk.cols):
                col = columns[c0 + c]
                for k in range(ptr[c], ptr[c + 1]):
                    col[r0 + row_idx[k]] = vals[k]
        return cls.from_columns(columns, rows)

    def submatrix(self, row_keep, col_keep):
        """The rows `row_keep` and columns `col_keep`, renumbered from 0
        in the order given."""
        row_pos = {r: i for i, r in enumerate(row_keep)}
        ptr, row_idx, vals = self.ptr, self.row_idx, self.vals
        columns = []
        for c in col_keep:
            col = {}
            for k in range(ptr[c], ptr[c + 1]):
                i = row_pos.get(row_idx[k])
                if i is not None:
                    col[i] = vals[k]
            columns.append(col)
        return RatMatrix.from_columns(columns, len(row_keep))

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        ptr, row_idx, vals = self.ptr, self.row_idx, self.vals
        for c in range(self.cols):
            for k in range(ptr[c], ptr[c + 1]):
                rows[row_idx[k]][c] = vals[k]
        return rows

    def column(self, c):
        a, b = self.ptr[c], self.ptr[c + 1]
        return dict(zip(self.row_idx[a:b], self.vals[a:b]))

    def apply(self, vec):
        """Matrix times sparse column vector: walks the columns in the
        support of `vec` (keys outside 0..cols-1 are ignored); the
        result has no zero entries and ascending rows."""
        return self._times(vec)

    def _times(self, vec):
        acc = {}
        ptr, row_idx, vals, ncols = self.ptr, self.row_idx, self.vals, self.cols
        for c, v in vec.items():
            if 0 <= c < ncols:
                for k in range(ptr[c], ptr[c + 1]):
                    r = row_idx[k]
                    acc[r] = acc.get(r, 0) + vals[k] * v
        return {r: x if type(x) is int else _q(x)
                for r in sorted(acc) if (x := acc[r])}

    def mul(self, other):
        assert self.cols == other.rows
        return RatMatrix.from_columns(
            [self._times(other.column(c)) for c in range(other.cols)],
            self.rows)

    def is_zero(self):
        return not self.vals


class TrackedEchelon:
    """Incremental row echelon structure over Q that remembers how each
    reduced row was formed, so membership comes with explicit
    coordinates over tagged inserts.

    Reduced rows are keyed by pivot column, the smallest index of a
    vector.  Vectors inserted without a tag enlarge the span anonymously
    (used for quotients: reduce modulo boundaries, coordinates over
    chosen representatives only); a row built from untagged inserts
    alone has an empty combination, and reducing by it costs no
    bookkeeping.  `reduce` and `add` copy `vec` first, unless
    `owned=True` hands it over: the caller then promises a fresh dict of
    canonical nonzero values (a `column` or `row_dicts` entry of a
    RatMatrix) that it never reads again, and it is reduced in place.
    """

    def __init__(self):
        self.pivots = {}  # pivot col -> (row, combo)  combo: {tag: coeff}

    @property
    def dim(self):
        return len(self.pivots)

    def reduce(self, vec, owned=False):
        res = vec if owned else _canonical(vec)
        combo = {}
        while res:
            p = min(res)
            hit = self.pivots.get(p)
            if hit is None:
                return res, combo
            row, rcombo = hit
            c = res[p]
            vec_axpy(res, -c, row)
            if rcombo:
                vec_axpy(combo, -c, rcombo)
        return res, combo

    def add(self, vec, tag=None, owned=False):
        res, combo = self.reduce(vec, owned)
        if not res:
            return False
        if tag is not None:
            combo = vec_add(combo, {tag: 1})
        p = min(res)
        inv = _recip(res[p])
        self.pivots[p] = (vec_scale(inv, res), vec_scale(inv, combo))
        return True

    def coordinates(self, vec):
        """Express vec over the tagged inserts; None if not in span."""
        res, combo = self.reduce(vec)
        if res:
            return None
        return {t: -c for t, c in combo.items() if c}


def _eliminate(m: RatMatrix):
    """The one elimination behind `kernel_basis` and `rank`: reduced
    echelon form by Gaussian elimination.

    Pivot columns are processed in increasing order; among candidate
    pivot rows the sparsest wins, ties by lowest row index.  Candidates
    come from a column -> rows index over a throwaway row view, kept
    current as elimination fills in and cancels entries.  Returns the
    reduced row view, the index and {pivot row: pivot column}.
    """
    rows = m.row_dicts()
    ptr, row_idx = m.ptr, m.row_idx
    where = [set(row_idx[ptr[c]:ptr[c + 1]])   # col -> rows nonzero there
             for c in range(m.cols)]
    pivot_of = {}                              # pivot row index -> col
    for col, hits in enumerate(where):
        idx = None
        for i in hits:
            if i not in pivot_of:
                n = len(rows[i])
                if idx is None or n < fewest or n == fewest and i < idx:
                    idx, fewest = i, n
        if idx is None:
            continue
        pivot_of[idx] = col
        row = rows[idx]
        inv = _recip(row[col])
        if inv != 1:
            for k in row:
                row[k] = _q(inv * row[k])
        if len(hits) == 1:                     # nothing else to clear
            continue
        for i in list(hits):
            if i == idx:
                continue
            r = rows[i]
            f = -r[col]
            for k, x in row.items():
                s = r.get(k, 0) + f * x
                if s:
                    if k not in r:
                        where[k].add(i)
                    r[k] = s if type(s) is int else _q(s)
                else:
                    del r[k]
                    where[k].discard(i)
    return rows, where, pivot_of


def kernel_basis(m: RatMatrix):
    """Basis of {x : m x = 0}, deterministic.

    Read off the reduced echelon form of `_eliminate`, the one
    elimination it shares with `rank`.  Kernel vectors are emitted in
    increasing order of their free column, each with its lowest-index
    entry 1.
    """
    if not m.vals:  # zero map, often into an empty slice
        return [{c: 1} for c in range(m.cols)]
    rows, where, pivot_of = _eliminate(m)
    # every non-pivot row was eliminated, so `where` holds pivot rows only
    basis = []
    pivot_cols = set(pivot_of.values())
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        v = {free: 1}
        for i in where[free]:
            v[pivot_of[i]] = -rows[i][free]
        lead = _recip(v[min(v)])  # lowest-index entry normalized to +1
        basis.append(vec_scale(lead, dict(sorted(v.items()))))
    return basis


def rank(m: RatMatrix):
    """Rank of m: the pivot count of `_eliminate`, the one elimination
    it shares with `kernel_basis`."""
    if not m.vals:
        return 0
    return len(_eliminate(m)[2])


def solve(m: RatMatrix, b):
    """One solution x of m x = b (sparse dicts), or None.

    Free variables are set to zero; deterministic.
    """
    te = TrackedEchelon()
    for c in range(m.cols):
        te.add(m.column(c), tag=c, owned=True)
    coords = te.coordinates(b)
    return coords


@dataclass(frozen=True)
class SmithForm:
    """U * A * V = diag(diagonal), U and V unimodular (|det| = 1).

    `diagonal` is the full min(rows, cols) diagonal, nonnegative, with
    the divisibility chain d1 | d2 | ... (zeros trail).
    """

    diagonal: tuple
    left: tuple      # rows x rows, tuple of row-tuples of ints
    right: tuple     # cols x cols

    def nonzero(self):
        return [d for d in self.diagonal if d]

    def torsion(self):
        return [d for d in self.diagonal if d > 1]


def _mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _int_rows(matrix):
    """The rows of `matrix` as lists of ints; a non-integral entry is
    rejected, never truncated."""
    out = []
    for row in matrix:
        ints = [_q(x) for x in row]
        for x in ints:
            if type(x) is not int:
                raise PreconditionError(
                    "Smith normal form needs integer entries, got %s" % x)
        out.append(ints)
    return out


def smith_normal_form(matrix):
    """Smith normal form of an integer matrix (list of rows).

    Elementary gcd-step elimination; no modular tricks.  Entries may be
    given in any exact form but must be integral (PreconditionError
    otherwise).  Returns a SmithForm whose invariants are checked before
    returning (the checks run under `python -O` too).
    """
    A = _int_rows(matrix)
    m = len(A)
    n = len(A[0]) if m else 0
    U = _mat_identity(m)
    V = _mat_identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            A[r][i] -= q * A[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    size = min(m, n)
    for s in range(size):
        while True:
            # find entry of least |value| in the block from (s, s)
            best = None
            for i in range(s, m):
                for j in range(s, n):
                    a = abs(A[i][j])
                    if a and (best is None or a < best[0]):
                        best = (a, i, j)
            if best is None:
                break
            _, bi, bj = best
            if bi != s:
                row_swap(s, bi)
            if bj != s:
                col_swap(s, bj)
            if A[s][s] < 0:
                negate_row(s)
            piv = A[s][s]
            dirty = False
            for i in range(s + 1, m):
                if A[i][s]:
                    row_op(i, s, A[i][s] // piv)
                    if A[i][s]:
                        dirty = True
            for j in range(s + 1, n):
                if A[s][j]:
                    col_op(j, s, A[s][j] // piv)
                    if A[s][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the remaining block
            offender = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if A[i][j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(s, offender, -1)  # adds offending row, restart step

    # enforce the divisibility chain on the diagonal
    for i in range(size):
        for j in range(i + 1, size):
            a, b = A[i][i], A[j][j]
            if a and b % a == 0:
                continue
            if a == 0 and b != 0:
                row_swap(i, j)
                col_swap(i, j)
                continue
            if b == 0:
                continue
            # mix the two diagonal positions and re-clean the 2x2 block
            col_op(i, j, -1)        # col_i += col_j -> A[j][i] = b
            g = gcd(a, b)
            while A[j][i]:
                q = A[i][i] // A[j][i]
                row_op(i, j, q)
                row_swap(i, j)
            # now A[i][i] = +-g, clear fill-in at (i, j)
            if A[i][i] < 0:
                negate_row(i)
            col_op(j, i, A[i][j] // A[i][i])
            require(A[i][j] == 0 and A[j][i] == 0,
                    "SNF 2x2 clean-up left an off-diagonal entry")
            require(A[i][i] == g and abs(A[j][j]) == abs(a * b) // g,
                    "SNF 2x2 clean-up changed the invariants")
            if A[j][j] < 0:
                negate_row(j)

    diag = tuple(abs(A[i][i]) for i in range(size))
    for i in range(size):
        if A[i][i] < 0:
            negate_row(i)
    form = SmithForm(diag, tuple(map(tuple, U)), tuple(map(tuple, V)))
    _assert_smith(matrix, form, m, n)
    return form


def _int_matmul(X, Y):
    if not X or not Y:
        return [[0] * (len(Y[0]) if Y else 0) for _ in X]
    p, q, r = len(X), len(Y), len(Y[0])
    out = [[0] * r for _ in range(p)]
    for i in range(p):
        Xi = X[i]
        for k in range(q):
            x = Xi[k]
            if x:
                Yk = Y[k]
                row = out[i]
                for j in range(r):
                    row[j] += x * Yk[j]
    return out


def _int_det(M):
    """Determinant by exact elimination (small matrices)."""
    n = len(M)
    if n == 0:
        return 1
    A = [[_q(x) for x in row] for row in M]
    det = 1
    for c in range(n):
        piv = None
        for r in range(c, n):
            if A[r][c]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        inv = _recip(A[c][c])
        for r in range(c + 1, n):
            if A[r][c]:
                f = A[r][c] * inv
                A[r] = [_q(a - f * b) for a, b in zip(A[r], A[c])]
    det = _q(det)
    require(type(det) is int, "determinant of an integer matrix is %s" % det)
    return det


def _assert_smith(original, form, m, n):
    A = _int_rows(original)
    prod = _int_matmul(_int_matmul(list(map(list, form.left)), A),
                       list(map(list, form.right)))
    for i in range(m):
        for j in range(n):
            want = form.diagonal[i] if i == j and i < len(form.diagonal) else 0
            require(prod[i][j] == want, "SNF reconstruction failed")
    nz = form.nonzero()
    for a, b in zip(nz, nz[1:]):
        require(b % a == 0, "SNF divisibility chain broken")
    require(abs(_int_det(list(map(list, form.left)))) == 1,
            "SNF left factor is not unimodular")
    require(abs(_int_det(list(map(list, form.right)))) == 1,
            "SNF right factor is not unimodular")


def integer_row_space_contains(rows, ncols, target):
    """Is `target` (length-ncols int vector) in the Z-span of `rows`?"""
    rows = [list(r) for r in rows]
    if not rows:
        return all(t == 0 for t in target)
    form = smith_normal_form(rows)
    # rowspace(A) = rowspace(U A) = rowspace(D V^{-1}); t in rowspace
    # iff (t V) is componentwise divisible by the diagonal of D.
    V = list(map(list, form.right))
    tv = [sum(target[i] * V[i][j] for i in range(ncols)) for j in range(ncols)]
    for j in range(ncols):
        d = form.diagonal[j] if j < len(form.diagonal) else 0
        if d == 0:
            if tv[j] != 0:
                return False
        elif tv[j] % d:
            return False
    return True
