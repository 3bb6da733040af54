"""Semifree graded dg-modules over Koszul dg-algebras.

A module is a finite list of generators with bidegrees (homological h,
internal a) and a differential matrix over the dg-algebra; entry (i, j)
is the coefficient of generator i in d(gen j).  The underlying complex
is a complex of free graded S-modules (the dga differential is
S-linear), so every bidegree slice is a finite dimensional Q-vector
space and homology is exact linear algebra.

Cone convention (fixed globally): for f: X -> Y,
    cone(f) = gens(Y) + gens(X) shifted up by 1,
    differential in block form [d_Y, f; 0, -d_X].
Shifting a module by s multiplies its differential by (-1)^s.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from operator import add

from .dga import KoszulDga, _merge_sign, as_element, laurent_monomials
from .errors import require
from .exact_linear import RatMatrix, TrackedEchelon, kernel_basis, rank


class BidegreeError(ValueError):
    """Matrix entry with inconsistent bidegree; names the entry."""


@dataclass(frozen=True)
class DegreeWindow:
    internal_lo: int
    internal_hi: int
    homological_lo: int
    homological_hi: int

    def __post_init__(self):
        assert self.internal_lo <= self.internal_hi
        assert self.homological_lo <= self.homological_hi

    def internal_range(self):
        return range(self.internal_lo, self.internal_hi + 1)

    def homological_range(self):
        return range(self.homological_lo, self.homological_hi + 1)


def global_bounds(dga):
    return (0,) * dga.base.nvars


def chart_bounds(dga, charts, trunc):
    """Laurent lower bounds: inverted variables go down to -T."""
    charts = tuple(sorted(set(charts)))
    return tuple(-trunc if i in charts else 0 for i in range(dga.base.nvars))


class DgModule:
    """Immutable semifree dg-module presentation.

    Slices, slice matrices and their ranks, homology and stencils are
    cached per root module.  A twist M(n) is a view of its root M with
    internal-degree offset n: its slice (h, d) is the root's slice
    (h, d + n), labels included, so every twist of M reads and fills the
    one set of caches under the root's degrees.

    Truncation is one more degree offset.  The slice at lower bounds b
    is x^b times the global slice at degree d - sum(b), label for label
    in the same order (`laurent_monomials` builds it as that translate),
    and the stencils commute with the translation.  So slice matrices,
    their ranks and homology are cached under the global key
    (h, d + offset - sum(b)), and every chart set and depth with the
    same key shares them.  Only labels are kept per bounds, by
    `slice_basis`; homology served for other bounds carries the
    request's labels."""

    def __init__(self, dga: KoszulDga, gens, diff=None, shift_offset=0,
                 check=True):
        self.dga = dga
        self.gens = tuple((int(h), int(a)) for h, a in gens)
        d = {}
        if diff:
            for (i, j), ent in diff.items():
                el = as_element(dga, ent)
                if not el.is_zero():
                    d[(i, j)] = el
        self.diff = dict(sorted(d.items()))
        self._columns = _by_column(self.diff)
        self._stencils = {}
        self.shift_offset = shift_offset
        self._root, self._offset = self, 0
        self._slice_cache = {}
        self._matrix_cache = {}
        self._rank_cache = {}    # same keys as _matrix_cache, ints only
        self._homology_cache = {}
        if check:
            self._validate()

    def _validate(self):
        ngens = len(self.gens)
        for (i, j), ent in self.diff.items():
            assert 0 <= i < ngens and 0 <= j < ngens
            hi, ai = self.gens[i]
            hj, aj = self.gens[j]
            want = (hj - 1 - hi, aj - ai)
            if not ent.is_homogeneous(hom=want[0], internal=want[1]):
                raise BidegreeError(
                    "differential entry (%d, %d) must have bidegree %r, "
                    "got %r" % (i, j, want, ent.bidegree()))
        for j in range(ngens):
            sq = self.apply_d(self.apply_d({j: self.dga.one()}))
            require(all(c.is_zero() for c in sq.values()),
                    "d*d != 0 at generator %d" % j)

    # -- elements: {gen index: DgaElement} -------------------------------

    def apply_d(self, elem):
        """Differential of a module element, Leibniz rule with Koszul
        signs: d(c*g) = d(c)*g + (-1)^|c| c*d(g), termwise in c."""
        out = {}
        for i, c in elem.items():
            dc = c.differential()
            if not dc.is_zero():
                out[i] = out.get(i, self.dga.zero()) + dc
            for (exps, es), coef in c.terms.items():
                sign = -1 if len(es) % 2 else 1
                mono = self.dga.element({(exps, es): coef * sign})
                for k, ent in self._columns.get(i, ()):
                    out[k] = out.get(k, self.dga.zero()) + mono * ent
        return {k: v for k, v in out.items() if not v.is_zero()}

    def gen_unit(self, i):
        return {i: self.dga.one()}

    # -- slices ----------------------------------------------------------

    def homological_span(self):
        """Homological degrees where slices can be nonzero."""
        if not self.gens:
            return (0, -1)
        lo = min(h for h, _ in self.gens)
        hi = max(h for h, _ in self.gens) + self.dga.r
        return (lo, hi)

    def slice_basis(self, h, d, bounds=None):
        """Basis labels (gen, es, exps) of the (h, d) slice, with
        monomial exponents bounded below by `bounds` (default global)."""
        if bounds is None:
            bounds = global_bounds(self.dga)
        key = (h, d + self._offset, bounds)
        hit = self._slice_cache.get(key)
        if hit is not None:
            return hit
        out = []
        for gi, (hg, ag) in enumerate(self.gens):
            size = h - hg
            if size < 0 or size > self.dga.r:
                continue
            for es in self.dga.e_subsets(size):
                mdeg = d - ag - sum(self.dga.section_degrees[j - 1] for j in es)
                for m in laurent_monomials(self.dga.base.nvars, mdeg, bounds):
                    out.append((gi, es, m))
        out = tuple(out)
        self._slice_cache[key] = out
        return out

    def slice_matrix(self, h, d, bounds=None):
        """Matrix of d: slice(h, d) -> slice(h-1, d) in slice bases."""
        if bounds is None:
            bounds = global_bounds(self.dga)
        key = (h, d + self._offset - sum(bounds))
        hit = self._matrix_cache.get(key)
        if hit is not None:
            return hit
        mat = _fill_slice_matrix(self.slice_basis(h, d, bounds),
                                self.slice_basis(h - 1, d, bounds),
                                self._stencil)
        self._matrix_cache[key] = mat
        return mat

    def _stencil(self, gi, es):
        """d(e_es * g_gi) as terms (target gen, target e-set, exponent
        shift, coefficient), compiled once per (generator, e-set): the
        Leibniz term d(e_es) * g_gi, then (-1)^|es| e_es * d(g_gi)."""
        key = (gi, es)
        hit = self._stencils.get(key)
        if hit is None:
            hit = []
            for t, j in enumerate(es):
                rest = es[:t] + es[t + 1:]
                sign = -1 if t % 2 else 1
                for (fexps, _), fc in self.dga.sections[j - 1].terms.items():
                    hit.append((gi, rest, fexps, sign * fc))
            hit.extend(_product_stencil(self._columns.get(gi, ()), es,
                                        -1 if len(es) % 2 else 1))
            self._stencils[key] = hit
        return hit

    def homology(self, h, d, bounds=None):
        if bounds is None:
            bounds = global_bounds(self.dga)
        labels = self.slice_basis(h, d, bounds)
        key = (h, d + self._offset - sum(bounds))
        hit = self._homology_cache.get(key)
        if hit is None:
            hit = self._homology_cache[key] = HomologyData.from_maps(
                labels, self.slice_matrix(h, d, bounds),
                self.slice_matrix(h + 1, d, bounds),
                self._rank_cache, key, (h + 1, key[1]))
        elif hit.labels is not labels:
            hit = copy(hit)
            hit.labels = labels
        return hit

    # -- constructions ---------------------------------------------------

    def shift(self, s):
        """Homological shift: pi_i(shift(M, s)) = pi_(i-s)(M)."""
        if s == 0:
            return self
        sign = -1 if s % 2 else 1
        return DgModule(self.dga, [(h + s, a) for h, a in self.gens],
                        {k: ent.scale(sign) for k, ent in self.diff.items()},
                        shift_offset=self.shift_offset + s, check=False)

    def twist(self, n):
        """Tensor with O(n): generator internal degrees drop by n.

        The result is a view of the root module that shares its
        differential and every cache; twists compose, and a total
        offset of 0 gives the root itself."""
        if n == 0:
            return self
        root, offset = self._root, self._offset + n
        if offset == 0:
            return root
        view = copy(root)
        view.gens = tuple((h, a - offset) for h, a in root.gens)
        view._offset = offset
        return view

    def normalized(self):
        order = sorted(range(len(self.gens)), key=lambda i: (self.gens[i], i))
        pos = {old: new for new, old in enumerate(order)}
        gens = [self.gens[i] for i in order]
        diff = {(pos[i], pos[j]): ent for (i, j), ent in self.diff.items()}
        return DgModule(self.dga, gens, diff,
                        shift_offset=self.shift_offset, check=False)

    def __eq__(self, other):
        if not isinstance(other, DgModule) or self.dga is not other.dga:
            return False
        a, b = self.normalized(), other.normalized()
        return a.gens == b.gens and a.diff == b.diff

    def __repr__(self):
        return "DgModule(%d gens over %r)" % (len(self.gens), self.dga)


def _by_column(entries):
    """{(i, j): element} sorted by (i, j) -> {j: [(i, element)]}."""
    out = {}
    for (i, j), ent in entries.items():
        out.setdefault(j, []).append((i, ent))
    return out


def _product_stencil(column, es, sign):
    """Stencil terms of sign * e_es * ent for the (target, ent) pairs of
    one generator's column."""
    out = []
    for k, ent in column:
        for (fexps, fes), fc in ent.terms.items():
            merged, msign = _merge_sign(es, fes)
            if merged is not None:
                out.append((k, merged, fexps, sign * msign * fc))
    return out


def _fill_slice_matrix(src, tgt, stencil):
    """Matrix from slice basis `src` to slice basis `tgt` whose column
    (g, es, m) is sum c * (k, es2, m + shift) over the terms
    (k, es2, shift, c) of stencil(g, es)."""
    index = {lab: k for k, lab in enumerate(tgt)}
    columns = []
    for gi, es, m in src:
        col = {}
        for k, es2, shift, c in stencil(gi, es):
            row = index.get((k, es2, tuple(map(add, m, shift))))
            assert row is not None, "slice differential left bounds"
            col[row] = col[row] + c if row in col else c
        columns.append(col)
    return RatMatrix.from_columns(columns, len(tgt))


class HomologyData:
    """A slice quotient with chosen representatives: the homology of a
    module or total-complex slice, or a localized cokernel slice of a
    presentation.

    Rank first: for homology, dim = n - rank(out_map) - rank(in_map)
    comes from the two ranks alone, and only a slice with dim > 0 builds
    its cycle basis, representatives and tracker.  `coords(vec)`
    expresses a cycle's class over the representatives, and gives None
    when vec is not a cycle (out_map None: every vector is one) or not
    in the span.  A zero slice keeps no tracker: there every cycle is a
    boundary, so `coords` is {} for a cycle, as the tracker would say.
    """

    def __init__(self, labels, reps, tracker, out_map):
        self.labels = labels
        self.reps = reps
        self.dim = len(reps)
        self._tracker = tracker
        self._out_map = out_map

    @classmethod
    def quotient(cls, labels, cycles, boundaries, out_map=None):
        """The span of `cycles` modulo the span of `boundaries`, over the
        slice `labels`.  Boundaries go in untagged and are handed over
        (fresh dicts of canonical nonzero values, as `owned=True` asks);
        each cycle that grows the span becomes a representative."""
        te = TrackedEchelon()
        for b in boundaries:
            if b:
                te.add(b, owned=True)
        reps = []
        for z in cycles:
            if te.add(z, tag=len(reps)):
                reps.append(z)
        return cls(labels, reps, te, out_map)

    @classmethod
    def from_maps(cls, labels, out_map, in_map, ranks, out_key, in_key):
        """Homology at the slice `labels` between in_map and out_map,
        whose ranks `ranks` caches under out_key and in_key.  When the
        rank of out_map is not yet cached, its cycles are computed at
        once and the rank read off them: one elimination gives both."""
        cycles = None
        out_rank = ranks.get(out_key)
        if out_rank is None:
            cycles = kernel_basis(out_map)
            out_rank = ranks[out_key] = out_map.cols - len(cycles)
        in_rank = ranks.get(in_key)
        if in_rank is None:
            in_rank = ranks[in_key] = rank(in_map)
        if out_map.cols == out_rank + in_rank:
            return cls(labels, [], None, out_map)
        if cycles is None:
            cycles = kernel_basis(out_map)
        boundaries = (in_map.column(c) for c in range(in_map.cols))
        return cls.quotient(labels, cycles, boundaries, out_map)

    def coords(self, vec):
        if self._out_map is not None and self._out_map.apply(vec):
            return None
        if self._tracker is None:
            return {}
        return self._tracker.coordinates(vec)

    def matrix_of(self, images, what):
        """Matrix whose column c holds the coordinates of images[c] over
        the representatives; `what` is the message of the check that
        fails when an image has none."""
        ent = {}
        for col, img in enumerate(images):
            coords = self.coords(img)
            require(coords is not None, what)
            for row, c in coords.items():
                ent[(row, col)] = c
        return RatMatrix(self.dim, len(images), ent)


# -- maps ----------------------------------------------------------------

class ModuleMap:
    """Bidegree-0 A-linear chain map between dg-modules."""

    def __init__(self, source: DgModule, target: DgModule, entries=None,
                 check=True):
        assert source.dga is target.dga
        self.source = source
        self.target = target
        self.dga = source.dga
        ent = {}
        if entries:
            for (i, j), e in entries.items():
                el = as_element(self.dga, e)
                if not el.is_zero():
                    ent[(i, j)] = el
        self.entries = dict(sorted(ent.items()))
        self._columns = _by_column(self.entries)
        self._stencils = {}
        self._homology_cache = {}
        self._kernel_cache = {}  # same keys, kernel of the cached matrix
        if check:
            self._validate()

    def _validate(self):
        for (i, j), ent in self.entries.items():
            hi, ai = self.target.gens[i]
            hj, aj = self.source.gens[j]
            want = (hj - hi, aj - ai)
            if not ent.is_homogeneous(hom=want[0], internal=want[1]):
                raise BidegreeError(
                    "map entry (%d, %d) must have bidegree %r, got %r"
                    % (i, j, want, ent.bidegree()))
        for j in range(len(self.source.gens)):
            lhs = self.target.apply_d(self.apply(self.source.gen_unit(j)))
            rhs = self.apply(self.source.apply_d(self.source.gen_unit(j)))
            diff = {k: lhs.get(k, self.dga.zero()) - rhs.get(k, self.dga.zero())
                    for k in set(lhs) | set(rhs)}
            require(all(c.is_zero() for c in diff.values()),
                    "not a chain map at generator %d" % j)

    def apply(self, elem):
        out = {}
        for j, c in elem.items():
            for i, ent in self._columns.get(j, ()):
                out[i] = out.get(i, self.dga.zero()) + c * ent
        return {k: v for k, v in out.items() if not v.is_zero()}

    def slice_matrix(self, h, d, bounds=None):
        """Induced map on (h, d) slices."""
        if bounds is None:
            bounds = global_bounds(self.dga)
        return _fill_slice_matrix(self.source.slice_basis(h, d, bounds),
                                 self.target.slice_basis(h, d, bounds),
                                 self._stencil)

    def _stencil(self, gi, es):
        """e_es * f(g_gi) as slice stencil terms, compiled once."""
        key = (gi, es)
        hit = self._stencils.get(key)
        if hit is None:
            hit = _product_stencil(self._columns.get(gi, ()), es, 1)
            self._stencils[key] = hit
        return hit

    def homology_matrix(self, h, d, bounds=None):
        """Induced map on the homology representatives of source and
        target at (h, d), computed once per global key
        (h, d - sum(bounds)) as the modules' homology is."""
        if bounds is None:
            bounds = global_bounds(self.dga)
        key = (h, d - sum(bounds))
        hit = self._homology_cache.get(key)
        if hit is not None:
            return hit
        hs = self.source.homology(h, d, bounds)
        ht = self.target.homology(h, d, bounds)
        sl = self.slice_matrix(h, d, bounds)
        hit = self._homology_cache[key] = ht.matrix_of(
            [sl.apply(rep) for rep in hs.reps], "chain map broke cycles")
        return hit

    def homology_kernel(self, h, d, bounds=None):
        """Kernel basis of `homology_matrix(h, d, bounds)`, eliminated
        once per global key as the matrix is built once."""
        key = (h, d - sum(bounds or ()))
        if key not in self._kernel_cache:
            self._kernel_cache[key] = kernel_basis(
                self.homology_matrix(h, d, bounds))
        return self._kernel_cache[key]

    def compose(self, other):
        """self after other."""
        assert other.target is self.source or other.target == self.source
        ent = {}
        for j in range(len(other.source.gens)):
            img = self.apply(other.apply(other.source.gen_unit(j)))
            for i, c in img.items():
                if not c.is_zero():
                    ent[(i, j)] = c
        return ModuleMap(other.source, self.target, ent, check=False)

    def __repr__(self):
        return "ModuleMap(%d -> %d gens)" % (len(self.source.gens),
                                             len(self.target.gens))


def zero_map(source, target):
    return ModuleMap(source, target, {})


def identity_map(m):
    return ModuleMap(m, m, {(i, i): m.dga.one() for i in range(len(m.gens))})


def free_module(dga, twists):
    """Direct sum of O_X(k) for k in twists (gen degrees (0, -k))."""
    return DgModule(dga, [(0, -k) for k in twists])


def structure_sheaf(dga):
    return free_module(dga, [0])


def direct_sum(modules):
    mods = list(modules)
    assert mods
    dga = mods[0].dga
    gens = []
    diff = {}
    offset = 0
    for m in mods:
        for g in m.gens:
            gens.append(g)
        for (i, j), ent in m.diff.items():
            diff[(i + offset, j + offset)] = ent
        offset += len(m.gens)
    return DgModule(dga, gens, diff, check=False)


def inclusion_map(summand_index, modules):
    """Inclusion of modules[summand_index] into direct_sum(modules)."""
    total = direct_sum(modules)
    offset = sum(len(m.gens) for m in modules[:summand_index])
    src = modules[summand_index]
    ent = {(offset + i, i): src.dga.one() for i in range(len(src.gens))}
    return ModuleMap(src, total, ent, check=False)


def projection_map(summand_index, modules):
    total = direct_sum(modules)
    offset = sum(len(m.gens) for m in modules[:summand_index])
    tgt = modules[summand_index]
    ent = {(i, offset + i): tgt.dga.one() for i in range(len(tgt.gens))}
    return ModuleMap(total, tgt, ent, check=False)


def cone(f: ModuleMap):
    """Homotopy cofibre of f, differential [d_target, f; 0, -d_source]."""
    tgt, src = f.target, f.source
    gens = list(tgt.gens) + [(h + 1, a) for h, a in src.gens]
    off = len(tgt.gens)
    diff = dict(tgt.diff)
    for (i, j), ent in f.entries.items():
        diff[(i, off + j)] = ent
    for (i, j), ent in src.diff.items():
        diff[(off + i, off + j)] = ent.scale(-1)
    return DgModule(f.dga, gens, diff)


def fibre(f: ModuleMap):
    """Homotopy fibre as shift(cone(f), -1)."""
    return cone(f).shift(-1)


def fibre_projection(f: ModuleMap):
    """The canonical map fibre(f) -> source(f)."""
    fib = fibre(f)
    off = len(f.target.gens)
    ent = {(j, off + j): f.dga.one() for j in range(len(f.source.gens))}
    return ModuleMap(fib, f.source, ent)


def cone_inclusion(f: ModuleMap):
    """The canonical map target(f) -> cone(f)."""
    c = cone(f)
    ent = {(i, i): f.dga.one() for i in range(len(f.target.gens))}
    return ModuleMap(f.target, c, ent)


def cone_projection_to_shifted_source(f: ModuleMap):
    """The canonical map cone(f) -> shift(source, 1)."""
    c = cone(f)
    sh = f.source.shift(1)
    off = len(f.target.gens)
    ent = {(j, off + j): f.dga.one() for j in range(len(f.source.gens))}
    return ModuleMap(c, sh, ent)


def koszul_module(dga, polys):
    """Koszul complex of the given homogeneous polynomials as a
    semifree dg-module (e.g. the pushforward of a zero-locus structure
    sheaf, or a skyscraper).  `polys` is a list of (poly, degree)."""
    return tensor_with_koszul(structure_sheaf(dga), polys)


def tensor_with_koszul(m: DgModule, polys):
    """M tensor the Koszul complex of `polys` over the even part;
    generator (g, L) has differential d_M (x) 1 + (-1)^h 1 (x) d_K."""
    from .dga import as_element
    from itertools import combinations

    dga = m.dga
    elems = [(as_element(dga, p), deg) for p, deg in polys]
    subsets = []
    for size in range(len(elems) + 1):
        subsets.extend(combinations(range(len(elems)), size))
    gens = []
    index = {}
    for gi, (h, a) in enumerate(m.gens):
        for L in subsets:
            index[(gi, L)] = len(gens)
            gens.append((h + len(L), a + sum(elems[l][1] for l in L)))
    diff = {}
    for gi, (h, a) in enumerate(m.gens):
        for L in subsets:
            col = index[(gi, L)]
            for (i, j), ent in m.diff.items():
                if j == gi:
                    diff[(index[(i, L)], col)] = ent
            sign0 = -1 if h % 2 else 1
            for t, l in enumerate(L):
                rest = tuple(x for x in L if x != l)
                sign = sign0 * (-1 if t % 2 else 1)
                key = (index[(gi, rest)], col)
                add = elems[l][0].scale(sign)
                diff[key] = (diff[key] + add) if key in diff else add
    return DgModule(dga, gens, diff)
