"""Reference implementations kept as oracles for the sparse core.

`RefMatrix`, `ref_kernel_basis`, `ref_rank` and `ref_solve` are the
dict-of-entries matrix and the row-scanning elimination the kernel used
before it moved to compressed columns and canonical int-or-Fraction
scalars; they compute in `Fraction` only (`RefEchelon` is the kernel's
former echelon).  `ref_slice_matrix` and `ref_map_slice_matrix` build
slice matrices by applying the module differential (or the map) to one
basis element at a time.  `ref_koszul_module` is the kernel's former
direct construction of a Koszul module, before it became the Koszul
tensor of the structure sheaf.  `ref_homology` is the eager homology
of a slice that the kernel computed before it went rank-first: cycle
basis, boundary tracker and representatives for every slice, zero or
not.  `RefLocalizedSlice` is the former localized cokernel slice of a
presentation, before it became a `HomologyData` whose representatives
are unit vectors.  `RefSpectralSequence` is the former page-by-page
spectral sequence, before its pages were read off one filtered
reduction: every cell of every page a `HomologyData` quotient of
explicit subspaces, and d_r written over the cells' representatives.
The property tests require the kernel to reproduce them exactly, key
order included.
"""

from fractions import Fraction
from itertools import combinations

from derived_kernel.dga import as_element, laurent_monomials
from derived_kernel.dgmodules import DgModule, HomologyData, global_bounds
from derived_kernel.exact_linear import TrackedEchelon, kernel_basis, rank

ZERO = Fraction(0)
ONE = Fraction(1)


def vec_axpy(out, c, u):
    """out += c*u in place, in Fractions."""
    for k, x in u.items():
        s = out.get(k, ZERO) + Fraction(c) * x
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class RefEchelon:
    """Row echelon structure in Fractions: pivot of a vector is its
    smallest index; rows inserted with a tag remember their
    coordinates over the tagged inserts."""

    def __init__(self):
        self.pivots = {}  # pivot col -> (normalized row, combo)

    def reduce(self, vec):
        res = {k: Fraction(x) for k, x in vec.items() if x}
        combo = {}
        while res:
            p = min(res)
            hit = self.pivots.get(p)
            if hit is None:
                break
            c = res[p]
            vec_axpy(res, -c, hit[0])
            vec_axpy(combo, -c, hit[1])
        return res, combo

    def add(self, vec, tag=None):
        res, combo = self.reduce(vec)
        if not res:
            return False
        if tag is not None:
            vec_axpy(combo, ONE, {tag: ONE})
        p = min(res)
        inv = ONE / res[p]
        self.pivots[p] = ({k: inv * x for k, x in res.items()},
                          {t: inv * c for t, c in combo.items()})
        return True

    def coordinates(self, vec):
        res, combo = self.reduce(vec)
        if res:
            return None
        return {t: -c for t, c in combo.items() if c}


class RefMatrix:
    """Sparse rows x cols matrix over Q stored as {(row, col): value},
    iterated in (row, col) order."""

    def __init__(self, rows, cols, entries=None):
        assert rows >= 0 and cols >= 0
        self.rows = rows
        self.cols = cols
        ent = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (r, c), x in items:
                assert 0 <= r < rows and 0 <= c < cols, (r, c, rows, cols)
                x = Fraction(x)
                if x:
                    ent[(r, c)] = x
        self.entries = dict(sorted(ent.items()))

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), x in self.entries.items():
            rows[r][c] = x
        return rows

    def column(self, c):
        return {r: x for (r, cc), x in self.entries.items() if cc == c}

    def apply(self, vec):
        out = {}
        rows = self.row_dicts()
        for r, row in enumerate(rows):
            s = ZERO
            for c, x in row.items():
                v = vec.get(c)
                if v is not None:
                    s += x * v
            if s:
                out[r] = s
        return out

    def mul(self, other):
        assert self.cols == other.rows
        orows = other.row_dicts()
        ent = {}
        srows = self.row_dicts()
        for r, row in enumerate(srows):
            acc = {}
            for k, x in sorted(row.items()):
                vec_axpy(acc, x, orows[k])
            for c, x in acc.items():
                ent[(r, c)] = x
        return RefMatrix(self.rows, other.cols, ent)


def ref_kernel_basis(m):
    rows = [r for r in m.row_dicts() if r]
    pivots = {}
    for col in range(m.cols):
        cand = [(len(r), i) for i, r in enumerate(rows) if col in r]
        if not cand:
            continue
        _, idx = min(cand)
        row = rows.pop(idx)
        inv = ONE / row[col]
        row = {k: inv * x for k, x in row.items()}
        for r in rows:
            if col in r:
                vec_axpy(r, -r[col], row)
        for p, prow in pivots.items():
            if col in prow:
                vec_axpy(prow, -prow[col], row)
        pivots[col] = row
        rows = [r for r in rows if r]
    basis = []
    pivot_cols = set(pivots)
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        v = {free: ONE}
        for p, prow in pivots.items():
            c = prow.get(free)
            if c:
                v[p] = -c
        lead = ONE / v[min(v)]
        basis.append({k: lead * x for k, x in sorted(v.items())})
    return basis


def ref_rank(m):
    e = RefEchelon()
    for row in m.row_dicts():
        if row:
            e.add(row)
    return len(e.pivots)


def ref_solve(m, b):
    te = RefEchelon()
    for c in range(m.cols):
        te.add(m.column(c), tag=c)
    return te.coordinates(b)


def ref_homology(labels, out_map, in_map):
    """Homology between in_map and out_map: every cycle of
    `kernel_basis(out_map)` is reduced against the boundaries, and the
    ones that stay independent are the representatives."""
    cycles = kernel_basis(out_map)
    te = TrackedEchelon()
    for c in range(in_map.cols):
        col = in_map.column(c)
        if col:
            te.add(col, owned=True)
    reps = []
    for z in cycles:
        if te.add(z, tag=len(reps)):
            reps.append(z)
    return HomologyData(labels, reps, te, out_map)


class RefLocalizedSlice:
    """The kernel's former localized cokernel slice of a presentation:
    labels (g, monomial) with their index, the label positions chosen as
    basis, and coordinates of a label over them."""

    def __init__(self, pres, d, bounds):
        nvars = pres.dga.base.nvars
        self.labels = [(g, mm) for g, ag in enumerate(pres.gen_degrees)
                       for mm in laurent_monomials(nvars, d - ag, bounds)]
        self.index = {lab: k for k, lab in enumerate(self.labels)}
        te = TrackedEchelon()
        for row in pres.all_relations():
            bdeg = pres.relation_degree(row)
            if bdeg is None:
                continue
            for mm in laurent_monomials(nvars, d - bdeg, bounds):
                vec = {}
                for g, p in enumerate(row):
                    for (exps, es), c in p.terms.items():
                        lab = (g, tuple(a + b for a, b in zip(exps, mm)))
                        k = self.index[lab]
                        vec[k] = vec.get(k, 0) + c
                if vec:
                    te.add(vec)
        self.rep_labels = []
        for k in range(len(self.index)):
            if te.add({k: 1}, tag=len(self.rep_labels)):
                self.rep_labels.append(k)
        self.dim = len(self.rep_labels)
        self._tracker = te

    def coords_of(self, g, exps, coeff=1):
        out = self._tracker.coordinates({self.index[(g, exps)]: coeff})
        assert out is not None, "vector outside the localized slice"
        return out


class RefSpectralSequence:
    """The former column-filtration spectral sequence: with
    A_r^p = {y in F^p : D y in F^(p+r)},

        E_r^(p,q) = A_r^p / (A_(r-1)^(p+1) + D A_(r-1)^(p-r+1)),

    each cell a quotient with representatives in total-complex
    coordinates.  `pages[k]` is E_(k+1) as ({(p, q): dim}, {(p, q):
    (target, rank of d_r)}), nonzero entries only, for r = 1 .. width
    + 1, and `infinity` is E_(width+2)."""

    def __init__(self, dc):
        self.total = dc.totalize()
        p_lo, p_hi, h_lo, h_hi = dc.span()
        self.p_range, self.q_range = (p_lo, p_hi), (h_lo, h_hi)
        width = p_hi - p_lo + 1
        self._quotients = {}
        self.pages = [self._page(r) for r in range(1, width + 2)]
        self.infinity_r = width + 2
        self.infinity = self._page(width + 2)

    def _subspace_a(self, p, m, r):
        """Basis of A_r^p in T_m coordinates."""
        cols = self.total.filtration_column(m, p)
        if not cols:
            return []
        rows_keep = [k for k, (pp, _, _) in
                     enumerate(self.total.basis.get(m - 1, []))
                     if p <= pp < p + r]
        mat = self.total.matrix(m).submatrix(rows_keep, cols)
        return [{cols[k]: x for k, x in v.items()}
                for v in kernel_basis(mat)]

    def _cell(self, p, q, r):
        m = q - p
        a_r = self._subspace_a(p, m, r)
        if not a_r:
            return HomologyData.quotient(None, (), ())
        sub = self._subspace_a(p + 1, m, r - 1)
        d = self.total.matrix(m + 1)
        sub.extend(d.apply(y)
                   for y in self._subspace_a(p - r + 1, m + 1, r - 1))
        return HomologyData.quotient(None, a_r, sub)

    def _page(self, r):
        cells = {}
        for p in range(self.p_range[0], self.p_range[1] + 1):
            for q in range(self.q_range[0], self.q_range[1] + 1):
                cell = self._cell(p, q, r)
                if cell.dim:
                    cells[(p, q)] = cell
        self._quotients[r] = cells
        diffs = {}
        for (p, q), cell in cells.items():
            tgt = cells.get((p + r, q + r - 1))
            if tgt is None:
                continue
            d = self.total.matrix(q - p)
            rk = rank(tgt.matrix_of([d.apply(y) for y in cell.reps],
                                    "d_r left the target page cell"))
            if rk:
                diffs[(p, q)] = ((p + r, q + r - 1), rk)
        return {pq: c.dim for pq, c in cells.items()}, diffs

    def stabilized_at(self):
        for k, (dims, diffs) in enumerate(self.pages):
            if dims == self.infinity[0] and not diffs:
                return k + 1
        return self.infinity_r

    def edge_map_rank(self, i):
        """Rank of H_i(Tot) -> E_2^(0, i) in page-2 quotient coordinates
        of the total homology representatives, with both dimensions."""
        hom = self.total.homology(i)
        cell = self._quotients[2].get((0, i))
        if cell is None:
            return 0, hom.dim, 0
        rk = rank(cell.matrix_of(hom.reps, "cycle escaped the page-2 cell"))
        return rk, hom.dim, cell.dim


def _fill(src, tgt, image):
    index = {lab: k for k, lab in enumerate(tgt)}
    ent = {}
    for col, (gi, es, m) in enumerate(src):
        for k, c in image(gi, es, m).items():
            for (exps, es2), coef in c.terms.items():
                row = index.get((k, es2, exps))
                assert row is not None, "slice differential left bounds"
                ent[(row, col)] = ent.get((row, col), Fraction(0)) + coef
    return RefMatrix(len(tgt), len(src), ent)


def ref_slice_matrix(module, h, d, bounds=None):
    """d: slice(h, d) -> slice(h-1, d) through `apply_d`."""
    if bounds is None:
        bounds = global_bounds(module.dga)
    dga = module.dga
    return _fill(module.slice_basis(h, d, bounds),
                 module.slice_basis(h - 1, d, bounds),
                 lambda gi, es, m: module.apply_d(
                     {gi: dga.element({(m, es): 1})}))


def ref_map_slice_matrix(f, h, d, bounds=None):
    """Induced map on (h, d) slices through `ModuleMap.apply`."""
    if bounds is None:
        bounds = global_bounds(f.dga)
    dga = f.dga
    return _fill(f.source.slice_basis(h, d, bounds),
                 f.target.slice_basis(h, d, bounds),
                 lambda gi, es, m: f.apply({gi: dga.element({(m, es): 1})}))


def ref_koszul_module(dga, polys):
    """Koszul complex of (poly, degree) pairs: one generator per subset
    L of the sections, d(e_L) = sum over t of (-1)^t f_(L_t) e_(L - L_t)."""
    elems = [(as_element(dga, p), deg) for p, deg in polys]
    subsets = []
    for size in range(len(elems) + 1):
        subsets.extend(combinations(range(len(elems)), size))
    index = {L: k for k, L in enumerate(subsets)}
    gens = [(len(L), sum(elems[l][1] for l in L)) for L in subsets]
    diff = {}
    for L in subsets:
        for t, l in enumerate(L):
            rest = tuple(x for x in L if x != l)
            sign = -1 if t % 2 else 1
            ent = elems[l][0].scale(sign)
            key = (index[rest], index[L])
            diff[key] = diff.get(key, dga.zero()) + ent
    return DgModule(dga, gens, diff)
