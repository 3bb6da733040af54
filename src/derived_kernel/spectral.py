"""Bounded double complexes over Q and their spectral sequences.

Grid convention: a cell sits at (p, h) where p is the column (Cech
degree, increasing along the horizontal differential) and h the row
(homological degree, decreasing along the vertical differential).  The
raw horizontal and vertical differentials commute; the totalization
uses D = vertical + (-1)^h horizontal on total degree m = h - p, so
the sign-twisted pair anticommutes and D*D = 0.

The spectral sequence filters by columns.  With q = h, the page-r
differential runs d_r: (p, q) -> (p+r, q+r-1), pages are computed from
the subspaces A_r^p = {y in F^p : D y in F^(p+r)} and

    E_r^(p,q) = A_r^p / (A_(r-1)^(p+1) + D A_(r-1)^(p-r+1)),

everything by exact linear algebra on explicit bases.  A page cell is a
`dgmodules.HomologyData` quotient with representatives in total-complex
coordinates, and d_r is written over the cells' representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linear import RatMatrix, kernel_basis, rank
from .dgmodules import HomologyData
from .errors import require


class DoubleComplex:
    """Finite grid of based Q-vector spaces with commuting raw
    differentials (vertical drops h, horizontal raises p)."""

    def __init__(self, cells, vertical, horizontal, labels=None, check=True):
        self.cells = {k: v for k, v in cells.items() if v}
        self.vertical = vertical      # (p, h) -> RatMatrix into (p, h-1)
        self.horizontal = horizontal  # (p, h) -> RatMatrix into (p+1, h)
        self.labels = labels or {}
        self._total = None
        if check:
            self._validate()

    def dim(self, p, h):
        return self.cells.get((p, h), 0)

    def vmat(self, p, h):
        m = self.vertical.get((p, h))
        if m is None:
            return RatMatrix(self.dim(p, h - 1), self.dim(p, h))
        return m

    def hmat(self, p, h):
        m = self.horizontal.get((p, h))
        if m is None:
            return RatMatrix(self.dim(p + 1, h), self.dim(p, h))
        return m

    def _validate(self):
        for (p, h) in self.cells:
            v1 = self.vmat(p, h)
            assert v1.rows == self.dim(p, h - 1) and v1.cols == self.dim(p, h)
            h1 = self.hmat(p, h)
            assert h1.rows == self.dim(p + 1, h) and h1.cols == self.dim(p, h)
            require(self.vmat(p, h - 1).mul(v1).is_zero(), "vertical d^2 != 0")
            require(self.hmat(p + 1, h).mul(h1).is_zero(),
                    "horizontal d^2 != 0")
            # commuting raw differentials = anticommuting in the
            # (-1)^h-twisted convention used by the totalization
            a = self.vmat(p + 1, h).mul(h1)
            require(a == self.hmat(p, h - 1).mul(v1),
                    "differentials do not commute")

    def span(self):
        ps = [p for p, _ in self.cells]
        hs = [h for _, h in self.cells]
        return (min(ps), max(ps), min(hs), max(hs)) if ps else (0, 0, 0, 0)

    def totalize(self):
        if self._total is None:
            self._total = TotalComplex(self)
        return self._total

    def spectral_sequence(self, max_page=None):
        return SpectralSequence(self, max_page=max_page)


class TotalComplex:
    """Totalization: degree m = h - p, D = vertical + (-1)^h horizontal."""

    def __init__(self, dc: DoubleComplex):
        self.dc = dc
        self.basis = {}    # m -> list of (p, h, local index)
        self.offsets = {}  # m -> {(p, h): offset}
        for (p, h), dim in sorted(dc.cells.items()):
            m = h - p
            lst = self.basis.setdefault(m, [])
            self.offsets.setdefault(m, {})[(p, h)] = len(lst)
            lst.extend((p, h, i) for i in range(dim))
        self._dmat = {}
        self._rank = {}    # m -> rank of D: T_m -> T_(m-1)
        self._homology = {}
        for m in sorted(self.basis):
            dm = self.matrix(m)
            dm1 = self.matrix(m + 1)
            require(dm.mul(dm1).is_zero(), "total D^2 != 0")

    def degrees(self):
        return sorted(self.basis)

    def dim(self, m):
        return len(self.basis.get(m, ()))

    def matrix(self, m):
        """D: T_m -> T_(m-1)."""
        if m in self._dmat:
            return self._dmat[m]
        tgt_off = self.offsets.get(m - 1, {})
        blocks = []
        for (p, h), off in self.offsets.get(m, {}).items():
            if (p, h - 1) in tgt_off:
                blocks.append((tgt_off[(p, h - 1)], off, self.dc.vmat(p, h), 1))
            if (p + 1, h) in tgt_off:
                blocks.append((tgt_off[(p + 1, h)], off, self.dc.hmat(p, h),
                               -1 if h % 2 else 1))
        mat = RatMatrix.from_blocks(self.dim(m - 1), self.dim(m), blocks)
        self._dmat[m] = mat
        return mat

    def homology(self, m):
        if m not in self._homology:
            out_map, in_map = self.matrix(m), self.matrix(m + 1)
            self._homology[m] = HomologyData.from_maps(
                self.basis.get(m, []), out_map, in_map, self._rank, m, m + 1)
        return self._homology[m]

    def homology_table(self):
        return {m: self.homology(m).dim for m in self.degrees()}

    def filtration_column(self, m, p_min):
        """Indices of T_m basis vectors with column >= p_min."""
        return [k for k, (p, h, i) in enumerate(self.basis.get(m, []))
                if p >= p_min]


@dataclass
class SpectralSequencePage:
    r: int
    cells: dict            # (p, q) -> HomologyData, reps in total coords
    differentials: dict    # (p, q) -> ((p+r, q+r-1), rank, RatMatrix)

    def dims(self):
        return {pq: c.dim for pq, c in sorted(self.cells.items()) if c.dim}


class SpectralSequence:
    """Column-filtration spectral sequence of a bounded double complex."""

    def __init__(self, dc: DoubleComplex, max_page=None):
        self.dc = dc
        self.total = dc.totalize()
        p_lo, p_hi, h_lo, h_hi = dc.span()
        self.p_range = (p_lo, p_hi)
        self.q_range = (h_lo, h_hi)
        # pages r = 1, 2, ... until no differential can move (r > width)
        width = p_hi - p_lo + 1
        last = max_page if max_page is not None else width + 1
        self.pages = []
        for r in range(1, last + 1):
            self.pages.append(self._page(r))
        self.infinity = self._page(width + 2)
        self._check_convergence()

    def _subspace_a(self, p, m, r):
        """Basis of A_r^p in T_m coordinates."""
        cols = self.total.filtration_column(m, p)
        if not cols:
            return []
        d = self.total.matrix(m)
        rows_keep = [k for k, (pp, hh, i) in
                     enumerate(self.total.basis.get(m - 1, []))
                     if p <= pp < p + r]
        mat = d.submatrix(rows_keep, cols)
        kern = kernel_basis(mat)
        out = []
        for v in kern:
            out.append({cols[k]: x for k, x in v.items()})
        return out

    def _cell(self, p, q, r):
        """Page-r cell at (p, q) as the quotient A_r^p / (A_(r-1)^(p+1) +
        D A_(r-1)^(p-r+1)); q = h, total degree m = q - p."""
        m = q - p
        a_r = self._subspace_a(p, m, r)
        if not a_r:
            return HomologyData.quotient(None, (), ())
        sub = self._subspace_a(p + 1, m, r - 1)
        d = self.total.matrix(m + 1)
        sub.extend(d.apply(y) for y in self._subspace_a(p - r + 1, m + 1,
                                                        r - 1))
        return HomologyData.quotient(None, a_r, sub)

    def _page(self, r):
        p_lo, p_hi = self.p_range
        h_lo, h_hi = self.q_range
        cells = {}
        for p in range(p_lo, p_hi + 1):
            for q in range(h_lo, h_hi + 1):
                cell = self._cell(p, q, r)
                if cell.dim:
                    cells[(p, q)] = cell
        diffs = {}
        for (p, q), cell in cells.items():
            tgt = cells.get((p + r, q + r - 1))
            if tgt is None:
                continue
            d = self.total.matrix(q - p)
            mat = tgt.matrix_of([d.apply(y) for y in cell.reps],
                                "d_r left the target page cell")
            rk = rank(mat)
            if rk:
                diffs[(p, q)] = ((p + r, q + r - 1), rk, mat)
        page = SpectralSequencePage(r, cells, diffs)
        return page

    def _check_convergence(self):
        # E_(r+1) must be the homology of (E_r, d_r), cell by cell
        for k in range(len(self.pages) - 1):
            cur, nxt = self.pages[k], self.pages[k + 1]
            r = cur.r
            for (p, q), cell in cur.cells.items():
                out_rank = cur.differentials.get((p, q), (None, 0, None))[1]
                in_rank = 0
                src = (p - r, q - r + 1)
                hit = cur.differentials.get(src)
                if hit and hit[0] == (p, q):
                    in_rank = hit[1]
                want = cell.dim - out_rank - in_rank
                got = nxt.cells[(p, q)].dim if (p, q) in nxt.cells else 0
                require(got == want, "page %d -> %d mismatch at %r"
                        % (r, r + 1, (p, q)))
        # filtration: E_infinity dimensions sum to totalization homology
        sums = {}
        for (p, q), cell in self.infinity.cells.items():
            m = q - p
            sums[m] = sums.get(m, 0) + cell.dim
        for m in set(self.total.degrees()) | set(sums):
            require(sums.get(m, 0) == self.total.homology(m).dim,
                    "filtration mismatch in total degree %d" % m)

    def stabilized_at(self):
        """First r with E_r = E_infinity dimensionwise."""
        inf_dims = self.infinity.dims()
        for page in self.pages:
            if page.dims() == inf_dims and not page.differentials:
                return page.r
        return self.infinity.r

    def edge_map_rank(self, i):
        """Rank of the edge H_i(Tot) -> E_2^(0, i) together with both
        dimensions.  A representative cycle lies in A_2^0 (it is a
        D-cycle of filtration 0), so its page-2 class is its quotient
        coordinate; the quotient itself only sees the p = 0 component."""
        hom = self.total.homology(i)
        if len(self.pages) < 2:
            return 0, hom.dim, 0
        e2 = self.pages[1]
        cell = e2.cells.get((0, i))
        if cell is None or cell.dim == 0:
            return 0, hom.dim, 0
        rk = rank(cell.matrix_of(hom.reps, "cycle escaped the page-2 cell"))
        return rk, hom.dim, cell.dim
