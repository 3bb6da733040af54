"""Windowed generator/relation presentations of graded modules.

A homotopy module pi_i(M) is only ever seen through its finite degree
slices.  This module extracts an honest presentation from slice data:
minimal generators appear where a slice outgrows the image of lower
degrees under multiplication, relations where the induced map from the
free cover acquires new kernel.  The presentation provably reproduces
the slice dimension table on the extraction range; completeness above
that range is reported, never assumed.

Presentations also drive chart-local computations: the degree-d slice
of a presented module localized at a chart intersection is the
cokernel of the relation span on truncated Laurent monomial bases, a
`dgmodules.HomologyData` whose representatives are the unit vectors
that survive the span.  At lower bounds b that slice is x^b times the
global one at degree d - sum(b), so the quotient is computed once per
d - sum(b) and relabelled per bounds, as module homology is.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from itertools import combinations
from operator import add

from .dga import laurent_monomials, monomials
from .dgmodules import HomologyData
from .errors import PreconditionError
from .exact_linear import RatMatrix, TrackedEchelon, kernel_basis


def homology_mult_matrix(m, i, d, var, bounds=None):
    """Multiplication by x_var on homology: H_(i, d) -> H_(i, d+1)."""
    hs = m.homology(i, d, bounds)
    ht = m.homology(i, d + 1, bounds)
    tgt_index = {lab: k for k, lab in enumerate(ht.labels)}
    images = []
    for rep in hs.reps:
        shifted = {}
        for idx, c in rep.items():
            gi, es, exps = hs.labels[idx]
            new = list(exps)
            new[var] += 1
            row = tgt_index[(gi, es, tuple(new))]
            shifted[row] = shifted.get(row, 0) + c
        images.append(shifted)
    return ht.matrix_of(images, "x_%d moved a cycle off the cycles" % var)


def _labels_to_element(m, labels, vec):
    """Slice vector -> module element {gen: DgaElement}."""
    out = {}
    for idx, c in vec.items():
        gi, es, exps = labels[idx]
        terms = out.setdefault(gi, {})
        terms[(exps, es)] = terms.get((exps, es), 0) + c
    return {gi: m.dga.element(t) for gi, t in out.items()}


@dataclass
class PresentedModule:
    """Graded pi0-module given by generator degrees and relation rows.

    Relation rows are tuples of polynomials (one per generator); the
    row for the ambient sections' action need not be listed when it is
    already implied by extraction.  `gen_cycles` optionally carries a
    representing cycle (a module element) for each generator.
    """

    dga: object
    gen_degrees: tuple
    relations: tuple          # rows: tuples of DgaElement, len == #gens
    gen_cycles: tuple = None
    floor: int = 0
    extracted_hi: int = None
    new_gen_degrees: tuple = ()
    new_rel_degrees: tuple = ()
    _slice_cache: dict = field(default_factory=dict, repr=False)
    _span_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for row in self.relations:
            assert len(row) == len(self.gen_degrees)

    def relation_degree(self, row):
        for g, p in enumerate(row):
            if not p.is_zero():
                return p.bidegree()[1] + self.gen_degrees[g]
        return None

    def all_relations(self):
        """The relation rows, then the rows implied by the ambient
        sections, which annihilate every pi0-module: section f_j on
        generator g, for each j and then each g."""
        rows = list(self.relations)
        for f in self.dga.sections:
            for g in range(len(self.gen_degrees)):
                row = [self.dga.zero()] * len(self.gen_degrees)
                row[g] = f
                rows.append(tuple(row))
        return rows

    def localized_slice(self, d, bounds):
        """Cokernel of the relation span on the degree-d truncated
        Laurent slice, as a HomologyData over the labels (g, monomial)
        whose representatives are the unit vectors that survive the
        span.  Labels are kept per bounds, the quotient per global
        degree d - sum(bounds)."""
        key = (d, bounds)
        hit = self._slice_cache.get(key)
        if hit is not None:
            return hit
        nvars = self.dga.base.nvars
        labels = [(g, mm) for g, ag in enumerate(self.gen_degrees)
                  for mm in laurent_monomials(nvars, d - ag, bounds)]
        depth = d - sum(bounds)
        hit = self._span_cache.get(depth)
        if hit is None:
            hit = self._span_cache[depth] = HomologyData.quotient(
                labels, ({k: 1} for k in range(len(labels))),
                self._relation_vectors(d, bounds, labels))
        else:
            hit = copy(hit)
            hit.labels = labels
        self._slice_cache[key] = hit
        return hit

    def _relation_vectors(self, d, bounds, labels):
        """The relation span on the degree-d slice at `bounds`: each
        relation row times each Laurent monomial, over `labels`."""
        nvars = self.dga.base.nvars
        index = {lab: k for k, lab in enumerate(labels)}
        for row in self.all_relations():
            bdeg = self.relation_degree(row)
            if bdeg is None:
                continue
            for mm in laurent_monomials(nvars, d - bdeg, bounds):
                vec = {}
                for g, p in enumerate(row):
                    for (exps, es), c in p.terms.items():
                        k = index[(g, tuple(map(add, exps, mm)))]
                        vec[k] = vec.get(k, 0) + c
                yield vec


def extract_presentation(m, i, window, bounds=None):
    """Presentation of pi_i(M) from global slices.

    Extraction always starts at the least degree where the (i, d)
    slice can be nonzero, so generators and relations below the window
    are never missed; `extracted_hi` marks how far the data goes.
    """
    hi = window.internal_hi
    floor = None
    for gi, (hg, ag) in enumerate(m.gens):
        size = i - hg
        if size < 0 or size > m.dga.r:
            continue
        for es in m.dga.e_subsets(size):
            cand = ag + sum(m.dga.section_degrees[j - 1] for j in es)
            floor = cand if floor is None else min(floor, cand)
    if floor is None or floor > hi:
        return PresentedModule(m.dga, (), (), gen_cycles=(), floor=0,
                               extracted_hi=hi)

    gen_degrees = []
    gen_cycles = []
    relations = []
    new_gen_degrees = []
    new_rel_degrees = []
    phi_prev = {}      # (monomial, gen index) -> class vector at degree d-1
    kernel_prev = []   # kernel vectors over phi_prev labels
    kernel_prev_cols = []
    nvars = m.dga.base.nvars

    for d in range(floor, hi + 1):
        hd = m.homology(i, d, bounds)
        mult = [homology_mult_matrix(m, i, d - 1, t, bounds)
                for t in range(nvars)] if d > floor else None
        # build phi_d columns from phi_(d-1) via each variable, keeping
        # the lexicographically canonical factorization route
        phi = {}
        for (mm, g), cls in phi_prev.items():
            for t in range(nvars):
                new = list(mm)
                new[t] += 1
                key = (tuple(new), g)
                if key in phi:
                    continue
                first = next(k for k, e in enumerate(new) if e > 0)
                if t != first:
                    continue  # canonical route: lowest variable first
                phi[key] = mult[t].apply(cls)
        span = TrackedEchelon()
        for key in sorted(phi):
            span.add(phi[key])
        for k in range(hd.dim):
            unit = {k: 1}
            if span.add(unit):
                g_idx = len(gen_degrees)
                gen_degrees.append(d)
                gen_cycles.append(_labels_to_element(m, hd.labels, hd.reps[k]))
                new_gen_degrees.append(d)
                phi[((0,) * nvars, g_idx)] = unit
        # kernel of phi_d
        cols = sorted(phi)
        col_index = {c: k for k, c in enumerate(cols)}
        mat = RatMatrix.from_columns([phi[c] for c in cols], hd.dim)
        kern = kernel_basis(mat)
        ker_span = TrackedEchelon()
        for kv in kernel_prev:
            for t in range(nvars):
                shifted = {}
                for pos, c in kv.items():
                    mm, g = kernel_prev_cols[pos]
                    new = list(mm)
                    new[t] += 1
                    shifted[col_index[(tuple(new), g)]] = c
                ker_span.add(shifted)
        for kv in kern:
            if ker_span.add(kv):
                row = [dict() for _ in gen_degrees]
                for pos, c in kv.items():
                    mm, g = cols[pos]
                    row[g][(mm, ())] = row[g].get((mm, ()), 0) + c
                relations.append(tuple(m.dga.element(t) for t in row))
                new_rel_degrees.append(d)
        phi_prev = phi
        kernel_prev = kern
        kernel_prev_cols = cols

    # pad earlier relation rows to the final generator count
    padded = []
    for row in relations:
        row = list(row) + [m.dga.zero()] * (len(gen_degrees) - len(row))
        padded.append(tuple(row))
    return PresentedModule(
        m.dga, tuple(gen_degrees), tuple(padded), gen_cycles=tuple(gen_cycles),
        floor=floor, extracted_hi=hi,
        new_gen_degrees=tuple(new_gen_degrees),
        new_rel_degrees=tuple(new_rel_degrees))


def presented_free(dga, twists):
    """Presentation of a direct sum of line bundles O(k)."""
    return PresentedModule(dga, tuple(-k for k in twists), (),
                           gen_cycles=None, floor=min((-k for k in twists),
                                                      default=0))


def truncation_pi0(m, window):
    """Presentation of pi_0(M) over pi_0 of the dg-algebra.

    Requires M connective on the window (no homology below index 0)."""
    for i in range(window.homological_lo, 0):
        for d in window.internal_range():
            if m.homology(i, d).dim:
                raise PreconditionError(
                    "module is not connective: pi_%d nonzero in degree %d"
                    % (i, d))
    return extract_presentation(m, 0, window)


def tensor_presentations(p, q):
    """Presentation of P (x) Q over pi0: generators are pairs, relations
    are rel(P) (x) gen(Q) and gen(P) (x) rel(Q)."""
    dga = p.dga
    pairs = [(i, j) for i in range(len(p.gen_degrees))
             for j in range(len(q.gen_degrees))]
    degrees = tuple(p.gen_degrees[i] + q.gen_degrees[j] for i, j in pairs)
    pos = {pr: k for k, pr in enumerate(pairs)}
    rows = []
    for row in p.relations:
        for j in range(len(q.gen_degrees)):
            out = [dga.zero()] * len(pairs)
            for i, poly in enumerate(row):
                if not poly.is_zero():
                    out[pos[(i, j)]] = poly
            rows.append(tuple(out))
    for row in q.relations:
        for i in range(len(p.gen_degrees)):
            out = [dga.zero()] * len(pairs)
            for j, poly in enumerate(row):
                if not poly.is_zero():
                    out[pos[(i, j)]] = poly
            rows.append(tuple(out))
    floor = (min(p.gen_degrees, default=0) + min(q.gen_degrees, default=0))
    return PresentedModule(dga, degrees, tuple(rows), floor=floor), pairs


# -- Fitting ideals and saturation ----------------------------------------

def _det(entries):
    """Determinant of a small square matrix of DgaElements (Laplace)."""
    n = len(entries)
    if n == 0:
        return None
    if n == 1:
        return entries[0][0]
    dga = entries[0][0].dga
    out = dga.zero()
    for j in range(n):
        piv = entries[0][j]
        if piv.is_zero():
            continue
        minor = [[entries[r][c] for c in range(n) if c != j]
                 for r in range(1, n)]
        sub = _det(minor)
        term = piv * sub if sub is not None else piv
        out = out + (term if j % 2 == 0 else term.scale(-1))
    return out


def fitting_minors(pres: PresentedModule, size):
    """All size x size minors of the presentation matrix (gens x rels),
    including the implied ambient-section rows."""
    dga = pres.dga
    a = len(pres.gen_degrees)
    rows = pres.all_relations()
    b = len(rows)
    if size <= 0:
        return [dga.one()]
    if size > min(a, b):
        return []
    out = []
    for gsel in combinations(range(a), size):
        for rsel in combinations(range(b), size):
            sub = [[rows[r][g] for r in rsel] for g in gsel]
            det = _det(sub)
            if det is not None and not det.is_zero():
                out.append(det)
    return out


def ideal_slice_echelon(dga, polys, d, include_sections=True):
    """Echelon of the degree-d slice of the ideal generated by polys
    (plus the ambient sections when asked), over the monomial basis."""
    nvars = dga.base.nvars
    basis = {mm: k for k, mm in enumerate(monomials(nvars, d))}
    gens = list(polys)
    if include_sections:
        gens += list(dga.sections)
    e = TrackedEchelon()
    for p in gens:
        if p.is_zero():
            continue
        pdeg = p.bidegree()[1]
        for mm in monomials(nvars, d - pdeg):
            vec = {}
            for (exps, es), c in p.terms.items():
                lab = tuple(a + b for a, b in zip(exps, mm))
                vec[basis[lab]] = vec.get(basis[lab], 0) + c
            if vec:
                e.add(vec)
    return e, len(basis)


def saturates_to_unit(dga, polys, lo, hi):
    """Does the ideal (polys) + (sections) contain a full degree slice
    within [lo, hi]?  One full slice certifies all higher degrees, so a
    True answer is exact; False only means 'not within the window'."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys and not dga.sections:
        return False, None
    for d in range(max(lo, 0), hi + 1):
        e, full = ideal_slice_echelon(dga, polys, d)
        if e.dim == full and full > 0:
            return True, d
    return False, None


def class_dies_under_variable(dga, poly, var, hi):
    """Least k with x_var^k * poly in the section ideal (degreewise),
    or None if it survives to the top of the window."""
    if poly.is_zero():
        return 0
    pdeg = poly.bidegree()[1]
    current = poly
    k = 0
    while pdeg + k <= hi:
        e, _ = ideal_slice_echelon(dga, [], pdeg + k)
        vec_basis = {mm: idx for idx, mm in
                     enumerate(monomials(dga.base.nvars, pdeg + k))}
        vec = {}
        for (exps, es), c in current.terms.items():
            vec[vec_basis[exps]] = c
        if e.coordinates(vec) is not None:
            return k
        current = current * dga.variable(var)
        k += 1
    return None


def saturates_to_zero(dga, polys, hi):
    """Is every generator killed, on every chart, by a power of the
    inverted variable within the window?  Returns (verdict, witness):
    verdict True is a certificate; False carries the surviving
    (chart, generator index) pair and only means 'not within window'."""
    for t in range(dga.base.nvars):
        for gi, p in enumerate(polys):
            if class_dies_under_variable(dga, p, t, hi) is None:
                return False, (t, gi)
    return True, None
