"""Cech machinery over the standard cover of P^n restricted to X.

Chart U_i is the locus x_i != 0; an index set I = {i1 < ... < ik}
denotes the intersection of those charts.  Sections over U_I in
internal degree 0 of a twist are truncated Laurent slices: monomial
denominators on the inverted variables are bounded by T, and since
every differential and restriction only multiplies by polynomials or
includes bases, the truncated grid is an honest double complex.
Reported values carry stabilization flags (T and T+1 agree) instead of
certified regularity bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .dgmodules import DgModule, chart_bounds
from .errors import InputError
from .exact_linear import RatMatrix
from .presentations import PresentedModule
from .spectral import DoubleComplex


@dataclass(frozen=True)
class StandardCover:
    ambient_dim: int

    def charts(self):
        return tuple(range(self.ambient_dim + 1))

    def index_sets(self, p):
        """All I with |I| = p + 1, sorted."""
        return list(combinations(self.charts(), p + 1))


@dataclass(frozen=True)
class LaurentTruncation:
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise InputError("Laurent truncation must be nonnegative")


def build_cech_double_complex(m: DgModule, twist=0, trunc=LaurentTruncation(2)):
    """Level-wise Cech double complex of M(twist) in internal degree 0.

    Columns p = 0..n hold the degree-0 truncated Laurent slices of the
    twisted module over all (p+1)-fold chart intersections; the
    vertical differential is the module differential, the horizontal
    one the alternating-sum restriction."""
    dga = m.dga
    n = dga.base.n
    cover = StandardCover(n)
    mt = m.twist(twist)
    T = trunc.bound
    h_lo, h_hi = mt.homological_span()

    cells = {}
    labels = {}
    offsets = {}
    for p in range(0, n + 1):
        for h in range(h_lo, h_hi + 1):
            labs = []
            offs = {}
            for I in cover.index_sets(p):
                offs[I] = len(labs)
                b = chart_bounds(dga, I, T)
                labs.extend((I, lab) for lab in mt.slice_basis(h, 0, b))
            if labs:
                cells[(p, h)] = len(labs)
                labels[(p, h)] = labs
                offsets[(p, h)] = offs

    vertical = {}
    horizontal = {}
    for (p, h), labs in labels.items():
        # vertical: block diagonal module differential per chart
        tgt = labels.get((p, h - 1))
        if tgt:
            toff = offsets[(p, h - 1)]
            vertical[(p, h)] = RatMatrix.from_blocks(
                len(tgt), len(labs),
                [(toff[I], offsets[(p, h)][I],
                  mt.slice_matrix(h, 0, chart_bounds(dga, I, T)), 1)
                 for I in cover.index_sets(p)])
        # horizontal: alternating restriction maps
        tgt = labels.get((p + 1, h))
        if tgt:
            ent = {}
            toff = offsets[(p + 1, h)]
            tindex = {}
            for k, (I, lab) in enumerate(tgt):
                tindex[(I, lab)] = k
            for col, (I, lab) in enumerate(labs):
                for j in cover.charts():
                    if j in I:
                        continue
                    I2 = tuple(sorted(I + (j,)))
                    sign = -1 if I2.index(j) % 2 else 1
                    row = tindex.get((I2, lab))
                    assert row is not None
                    ent[(row, col)] = sign
            horizontal[(p, h)] = RatMatrix(len(tgt), len(labs), ent)

    return DoubleComplex(cells, vertical, horizontal, labels=labels)


def totalize(dc: DoubleComplex):
    """Total complex and its homology table (degree m = h - p)."""
    total = dc.totalize()
    return total, total.homology_table()


def run_spectral_sequence(dc: DoubleComplex, max_page=None):
    return dc.spectral_sequence(max_page=max_page)


@dataclass
class SectionsHomotopy:
    """pi_i of the global-sections spectrum per twist, with a stability
    flag per entry (two successive truncations agreed)."""

    table: dict
    stable: dict


def sections_homotopy(m: DgModule, twist, i_range, trunc=LaurentTruncation(2)):
    """Homotopy of the derived global sections of M(twist).

    Negative indices are meaningful (spectrum-level sections); the
    space-level sections are the truncation at zero."""
    t0, t1 = [build_cech_double_complex(m, twist, LaurentTruncation(T))
              .totalize() for T in (trunc.bound, trunc.bound + 1)]
    table = {}
    stable = {}
    for i in i_range:
        a = t0.homology(i).dim
        b = t1.homology(i).dim
        table[i] = b
        stable[i] = (a == b)
    return SectionsHomotopy(table, stable)


def _presented_cech_complex(pres: PresentedModule, twist, trunc):
    """Cech complex of the sheafification of a presented pi0-module,
    one column per p, as a one-row double complex (h = 0)."""
    dga = pres.dga
    n = dga.base.n
    cover = StandardCover(n)
    T = trunc.bound
    cells = {}
    labels = {}
    offsets = {}
    slices = {}
    for p in range(0, n + 1):
        labs = []
        offs = {}
        for I in cover.index_sets(p):
            b = chart_bounds(dga, I, T)
            sl = pres.localized_slice(twist, b)
            slices[I] = sl
            offs[I] = len(labs)
            labs.extend((I, k) for k in range(sl.dim))
        cells[(p, 0)] = len(labs)
        labels[(p, 0)] = labs
        offsets[p] = offs
    horizontal = {}
    for (p, _), labs in labels.items():
        ncols = len(labs)
        tgt = labels.get((p + 1, 0))
        nrows = len(tgt) if tgt else 0
        if nrows == 0 or ncols == 0:
            continue
        ent = {}
        for col, (I, k) in enumerate(labs):
            src = slices[I]
            g, exps = src.labels[src.rep_labels[k]]
            for j in cover.charts():
                if j in I:
                    continue
                I2 = tuple(sorted(I + (j,)))
                sign = -1 if I2.index(j) % 2 else 1
                base = offsets[p + 1][I2]
                for row, x in slices[I2].coords_of(g, exps).items():
                    ent[(base + row, col)] = sign * x
        horizontal[(p, 0)] = RatMatrix(nrows, ncols, ent)
    return DoubleComplex(cells, {}, horizontal, labels=labels)


@dataclass
class SheafCohomology:
    table: dict     # p -> dim H^p
    stable: dict    # p -> bool


def sheaf_cohomology(pres: PresentedModule, twist=0, trunc=LaurentTruncation(2)):
    """Cech cohomology H^p of the sheafified presentation twisted by
    `twist`, p = 0..n, with stabilization flags."""
    n = pres.dga.base.n

    def run(T):
        dc = _presented_cech_complex(pres, twist, LaurentTruncation(T))
        total = dc.totalize()
        return {p: total.homology(-p).dim for p in range(0, n + 1)}

    a, b = [run(T) for T in (trunc.bound, trunc.bound + 1)]
    return SheafCohomology(table=b,
                           stable={p: a[p] == b[p] for p in range(0, n + 1)})
