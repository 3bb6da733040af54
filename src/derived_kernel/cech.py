"""Cech machinery over the standard cover of P^n restricted to X.

Chart U_i is the locus x_i != 0; an index set I = {i1 < ... < ik}
denotes the intersection of those charts.  Sections over U_I in
internal degree 0 of a twist are truncated Laurent slices: monomial
denominators on the inverted variables are bounded by T, and since
every differential and restriction only multiplies by polynomials or
includes bases, the truncated grid is an honest double complex.
Reported values carry stabilization flags (T and T+1 agree) instead of
certified regularity bounds.

One assembler, `_cech_complex`, builds every Cech grid from a slice
provider; it alone holds the cover, offsets and restriction signs.  A
dg-module provides its truncated Laurent slices, which restrict label
by label, with its slice matrices as vertical blocks
(`build_cech_double_complex`).  A presented pi0-module provides one
row of localized cokernel slices, which restrict by coordinates
(`sheaf_cohomology`).
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


def _cech_complex(dga, T, h_range, basis, restrict, vertical):
    """Level-wise Cech double complex over the standard cover.

    A slice provider describes the sections over U_I by the Laurent
    bounds b = chart_bounds(dga, I, T) of I: `basis(h, b)` lists the
    basis labels of row h, `restrict(b, lab, b2)` writes the
    restriction of basis element `lab` to the bounds b2 of a larger
    chart set as {label: coefficient}, and `vertical(h, b)` is the
    matrix from row h to row h - 1 (None for a one-row complex).
    Columns p = 0..n hold the (p+1)-fold intersections; the horizontal
    differential is the alternating sum of restrictions."""
    cover = StandardCover(dga.base.n)
    sets = [cover.index_sets(p) for p in range(dga.base.n + 1)]
    bounds = {I: chart_bounds(dga, I, T) for col in sets for I in col}
    labels = {}
    offsets = {}
    for p, col in enumerate(sets):
        for h in h_range:
            labs = []
            offs = {}
            for I in col:
                offs[I] = len(labs)
                labs.extend((I, lab) for lab in basis(h, bounds[I]))
            if labs:
                labels[(p, h)] = labs
                offsets[(p, h)] = offs

    vert = {}
    horizontal = {}
    for (p, h), labs in labels.items():
        tgt = labels.get((p, h - 1))
        if tgt and vertical is not None:
            toff = offsets[(p, h - 1)]
            vert[(p, h)] = RatMatrix.from_blocks(
                len(tgt), len(labs),
                [(toff[I], offsets[(p, h)][I], vertical(h, bounds[I]), 1)
                 for I in sets[p]])
        tgt = labels.get((p + 1, h))
        if tgt:
            tindex = {lab: k for k, lab in enumerate(tgt)}
            ent = {}
            for col, (I, lab) in enumerate(labs):
                for j in cover.charts():
                    if j in I:
                        continue
                    I2 = tuple(sorted(I + (j,)))
                    sign = -1 if I2.index(j) % 2 else 1
                    for lab2, x in restrict(bounds[I], lab, bounds[I2]).items():
                        ent[(tindex[(I2, lab2)], col)] = sign * x
            horizontal[(p, h)] = RatMatrix(len(tgt), len(labs), ent)

    cells = {ph: len(labs) for ph, labs in labels.items()}
    return DoubleComplex(cells, vert, horizontal, labels=labels)


def build_cech_double_complex(m: DgModule, twist=0, trunc=LaurentTruncation(2)):
    """Level-wise Cech double complex of M(twist) in internal degree 0.

    Columns p = 0..n hold the degree-0 truncated Laurent slices of the
    twisted module over all (p+1)-fold chart intersections; the
    vertical differential is the module differential, the horizontal
    one the alternating-sum restriction."""
    mt = m.twist(twist)
    h_lo, h_hi = mt.homological_span()
    return _cech_complex(m.dga, trunc.bound, range(h_lo, h_hi + 1),
                         lambda h, b: mt.slice_basis(h, 0, b),
                         lambda b, lab, b2: {lab: 1},
                         lambda h, b: mt.slice_matrix(h, 0, b))


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
    """Cech complex of the sheafification of a presented pi0-module, a
    one-row double complex (h = 0) over its localized cokernel slices."""
    slices = {}

    def basis(h, b):
        slices[b] = pres.localized_slice(twist, b)
        return range(slices[b].dim)

    def restrict(b, k, b2):
        src = slices[b]
        return slices[b2].coords_of(*src.labels[src.rep_labels[k]])

    return _cech_complex(pres.dga, trunc.bound, (0,), basis, restrict, None)


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
