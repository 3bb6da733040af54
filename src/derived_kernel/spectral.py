"""Bounded double complexes over Q and their spectral sequences.

Grid convention: a cell sits at (p, h) where p is the column (Cech
degree, increasing along the horizontal differential) and h the row
(homological degree, decreasing along the vertical differential).  The
raw horizontal and vertical differentials commute; the totalization
uses D = vertical + (-1)^h horizontal on total degree m = h - p, so
the sign-twisted pair anticommutes and D*D = 0.

The spectral sequence filters by columns: F^p is spanned by the cells
of column >= p, and with q = h the page-r differential runs
d_r: (p, q) -> (p+r, q+r-1).  Its pages are read off the persistence
pairs of one exact column reduction R = D V per total degree m of
D: T_m -> T_(m-1) (Edelsbrunner and Harer, *Computational Topology*,
2010, ch. VII; Basu and Parida, "Spectral sequences, exact couples and
persistent homology of filtrations", Expo. Math. 35, 2017).  Basis
vectors go in by decreasing p, with a fixed order inside a cell; a
column adds only earlier columns, so V is unitriangular, and the pivot
of a reduced column is its row of least p.  Each pivot pairs a source
at (p, q) with a target at (p + r, q + r - 1), and

- d_r out of (p, q) has rank the number of its pairs with gap r;
- dim E_r^(p,q) is the size of the cell less its vectors in pairs of
  gap < r (gap 0 pairs die on E_1, the vertical homology);
- E_infinity is what stays unpaired.

Two exact checks certify the reduction, under `python -O` too:
D V = R for every pivot, and the E_infinity dimensions of each total
degree add up to the homology of the totalization, which
`TotalComplex.homology` computes apart, from ranks.  That E_(r+1) is the
homology of (E_r, d_r) then holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linear import RatMatrix, TrackedEchelon
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

    def spectral_sequence(self):
        return SpectralSequence(self)


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
    cells: dict            # (p, q) -> dim E_r^(p,q), nonzero cells only
    differentials: dict    # (p, q) -> ((p+r, q+r-1), rank of d_r), rank > 0

    @classmethod
    def from_pairs(cls, r, sizes, pairs):
        """Page r read off the persistence pairs (source cell, target
        cell, gap): a cell loses the ends of its pairs of gap < r, and
        each pair of gap r adds one to the rank of d_r out of its
        source."""
        cells = dict(sizes)
        diffs = {}
        for src, tgt, gap in pairs:
            if gap < r:
                cells[src] -= 1
                cells[tgt] -= 1
            elif gap == r:
                rk = diffs[src][1] if src in diffs else 0
                diffs[src] = (tgt, rk + 1)
        return cls(r, {pq: n for pq, n in sorted(cells.items()) if n},
                   dict(sorted(diffs.items())))

    def dims(self):
        return dict(self.cells)


class SpectralSequence:
    """Column-filtration spectral sequence of a bounded double complex,
    read off one filtered reduction per total degree."""

    def __init__(self, dc: DoubleComplex):
        self.total = dc.totalize()
        p_lo, p_hi = self.p_range = dc.span()[:2]
        basis = self.total.basis
        pairs = []
        for m in self.total.degrees():
            d = self.total.matrix(m)
            for row, (vec, combo) in self._reduce(m).items():
                require(d.apply(combo) == vec,
                        "filtered reduction: D*V != R in total degree %d" % m)
                # V is unitriangular: a column's least tag is its own index
                p, q, _ = basis[m][min(combo)]
                pt, qt, _ = basis[m - 1][row]
                pairs.append(((p, q), (pt, qt), pt - p))
        # pages r = 1, 2, ... until no differential can move (r > width)
        width = p_hi - p_lo + 1
        sizes = dc.cells
        self.pages = [SpectralSequencePage.from_pairs(r, sizes, pairs)
                      for r in range(1, width + 2)]
        self.infinity = SpectralSequencePage.from_pairs(width + 2, sizes,
                                                        pairs)
        # filtration: E_infinity dimensions sum to totalization homology
        sums = {}
        for (p, q), n in self.infinity.cells.items():
            sums[q - p] = sums.get(q - p, 0) + n
        for m in set(self.total.degrees()) | set(sums):
            require(sums.get(m, 0) == self.total.homology(m).dim,
                    "filtration mismatch in total degree %d" % m)

    def _reduce(self, m):
        """The filtered reduction of D: T_m -> T_(m-1) as {pivot row:
        (R column, V column)}.  Columns go in tagged, by decreasing
        index: decreasing p, the order in which F^p grows.  The pivot is
        the least row index, a row of least p and the last in the order
        in which T_(m-1) goes in, so each vector ends at most one pair."""
        d = self.total.matrix(m)
        te = TrackedEchelon()
        for c in reversed(range(d.cols)):
            te.add(d.column(c), tag=c, owned=True)
        return te.pivots

    def stabilized_at(self):
        """First r with E_r = E_infinity dimensionwise."""
        inf_dims = self.infinity.dims()
        for page in self.pages:
            if page.dims() == inf_dims and not page.differentials:
                return page.r
        return self.infinity.r

    def edge_map_rank(self, i):
        """Rank of the edge map H_i(Tot) -> E_2^(0, i), with the
        dimensions of both sides.  No differential reaches column 0
        when it is the lowest, so the image of the edge map is
        E_infinity^(0, i)."""
        require(self.p_range[0] >= 0,
                "edge map needs no column below 0, got %d" % self.p_range[0])
        return (self.infinity.cells.get((0, i), 0),
                self.total.homology(i).dim,
                self.pages[1].cells.get((0, i), 0))
