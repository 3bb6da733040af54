"""Cech machinery over the standard cover of P^n restricted to X.

Chart U_i is the locus x_i != 0; an index set I = {i1 < ... < ik}
denotes the intersection of those charts.  Sections over U_I in
internal degree 0 of a twist are truncated Laurent slices: monomial
denominators on the inverted variables are bounded by T, and since
every differential and restriction only multiplies by polynomials or
includes bases, the truncated grid is an honest double complex.

Global answers carry a proved depth.  Forget the differential of a
semifree M: each row of M(t) is free, one O(k), k = t - a_j - deg E,
per generator (h_j, a_j) and exterior monomial e_E.  Its T-truncated
Cech complex splits over the Laurent monomials x^u of degree k with
all u_i >= -T; the piece of x^u lives on the I containing
N(u) = {i : u_i < 0} and has H^0 = Q if N(u) is empty, H^n = Q if
N(u) holds every chart, and no cohomology otherwise (Hartshorne,
III.5).  An H^n piece has every u_i >= k + n, so E_1 of the filtration
by rows is complete once T >= T* = module_depth_hint(m, t + n), which
is max(0, max_j a_j + sum deg f_j - t - n).  The double complex is
bounded, so the totalization is then complete too: pi_i read at a
depth >= T* is certified and flagged stable.  Columns are not covered:
their E_1 grows with T, and the E_2 cells the twist search reads can
hold phantom classes at a depth >= T*.  A presentation without
relation rows is certified alike; otherwise the T* of its generators
and rows is necessary, and T and T + 1 must also agree.

One assembler, `_cech_complex`, builds every Cech grid from a slice
provider; it alone holds the cover, offsets and restriction signs.  A
dg-module provides its truncated Laurent slices, which restrict label
by label, with its slice matrices as vertical blocks
(`build_cech_double_complex`).  A presented pi0-module provides one
row of localized cokernel slices (`HomologyData` quotients), which
restrict by coordinates: a representative's labels, read in the larger
chart set's slice (`sheaf_cohomology`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .charts import module_depth_hint
from .dgmodules import DgModule, chart_bounds
from .errors import InputError, require
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
class CechTable:
    """A global answer per index (pi_i, or H^p) with its stable flags."""

    table: dict
    stable: dict


def sections_homotopy(m: DgModule, twist, i_range, trunc=LaurentTruncation(2)):
    """Homotopy of the derived global sections of M(twist), read at depth
    T + 1.  Negative indices are meaningful (spectrum-level sections);
    the space-level sections are the truncation at zero."""
    T = trunc.bound + 1
    dc = build_cech_double_complex(m, twist, LaurentTruncation(T))
    stable = T >= module_depth_hint(m, twist + m.dga.base.n)
    return CechTable({i: dc.totalize().homology(i).dim for i in i_range},
                     dict.fromkeys(i_range, stable))


def sheaf_cohomology(pres: PresentedModule, twist=0, trunc=LaurentTruncation(2)):
    """Cech cohomology H^p of the sheafified presentation twisted by
    `twist`, p = 0..n, read at depth T + 1."""
    n = pres.dga.base.n
    rows = pres.all_relations()
    degrees = list(pres.gen_degrees) + [pres.relation_degree(r) for r in rows]
    deep = all(d is None or d - twist - n <= trunc.bound + 1 for d in degrees)
    slices, index = {}, {}

    def basis(h, b):
        sl = slices[b] = pres.localized_slice(twist, b)
        index[b] = {lab: j for j, lab in enumerate(sl.labels)}
        return range(sl.dim)

    def restrict(b, k, b2):
        src = slices[b]
        coords = slices[b2].coords(
            {index[b2][src.labels[j]]: c for j, c in src.reps[k].items()})
        require(coords is not None, "vector outside the localized slice")
        return coords

    def run(T):
        total = _cech_complex(pres.dga, T, (0,), basis, restrict, None)
        return {p: total.totalize().homology(-p).dim for p in range(n + 1)}

    b = run(trunc.bound + 1)
    a = run(trunc.bound) if rows else b
    return CechTable(b, {p: deep and a[p] == b[p] for p in b})
