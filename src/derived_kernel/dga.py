"""Koszul differential graded algebras over graded polynomial rings.

The ambient ring S = Q[x0..xn] has every variable in internal degree 1
and homological degree 0.  A Koszul dg-algebra adds one odd generator
e_j per homogeneous section f_j (homological degree 1, internal degree
deg f_j) with d(e_j) = f_j extended as a derivation.  Elements are
stored as {(exponent tuple, sorted e-index tuple): coefficient} with
exact rational coefficients in the canonical form of `exact_linear`
(an int when integral, else a Fraction).

Sign conventions, fixed once and asserted by the d*d = 0 tests:
  e_i * e_j = -e_j * e_i,   e_j * e_j = 0,
  d(e_{j1} ... e_{jk}) = sum_t (-1)^(t-1) f_{jt} * e_{j1} .. ^e_{jt} .. e_{jk}.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import HomogeneityError, InputError, require
from .exact_linear import _q


@lru_cache(maxsize=None)
def monomials(nvars, degree):
    """All exponent tuples of length nvars summing to degree, sorted."""
    if degree < 0:
        return ()
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for first in range(degree + 1):
        for rest in monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def laurent_monomials(nvars, degree, lower_bounds):
    """Exponent tuples summing to `degree` with entries >= lower_bounds[i].

    Used for sections over chart intersections: inverted variables get
    lower bound -T, the rest 0.
    """
    shift = sum(lower_bounds)
    out = []
    for m in monomials(nvars, degree - shift):
        out.append(tuple(a + b for a, b in zip(m, lower_bounds)))
    return tuple(out)


def _merge_sign(es1, es2):
    """Product sign of sorted odd tuples; (None, 0) when they overlap."""
    if set(es1) & set(es2):
        return None, 0
    inversions = 0
    for a in es1:
        for b in es2:
            if a > b:
                inversions += 1
    merged = tuple(sorted(es1 + es2))
    return merged, -1 if inversions % 2 else 1


class GradedPolyRing:
    """Q[x0..xn], each variable of internal degree 1."""

    def __init__(self, ambient_dim):
        assert ambient_dim >= 0
        self.n = ambient_dim
        self.nvars = ambient_dim + 1

    def __eq__(self, other):
        return isinstance(other, GradedPolyRing) and self.n == other.n

    def __repr__(self):
        return "GradedPolyRing(n=%d)" % self.n


class DgaElement:
    """Element of a Koszul dg-algebra, immutable after construction."""

    __slots__ = ("dga", "terms")

    def __init__(self, dga, terms=None):
        self.dga = dga
        clean = {}
        if terms:
            for (exps, es), c in (terms.items() if isinstance(terms, dict) else terms):
                c = _q(c)
                if c:
                    clean[(tuple(exps), tuple(es))] = c
        self.terms = dict(sorted(clean.items()))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, DgaElement) and self.dga is other.dga
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.dga), tuple(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return DgaElement(self.dga, out)

    def __neg__(self):
        return DgaElement(self.dga, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _q(c)
        return DgaElement(self.dga, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, DgaElement):
            return self.scale(other)
        out = {}
        for (e1, s1), c1 in self.terms.items():
            for (e2, s2), c2 in other.terms.items():
                merged, sign = _merge_sign(s1, s2)
                if merged is None:
                    continue
                key = (tuple(a + b for a, b in zip(e1, e2)), merged)
                val = out.get(key, 0) + sign * c1 * c2
                if val:
                    out[key] = val
                else:
                    del out[key]
        return DgaElement(self.dga, out)

    __rmul__ = scale

    def term_bidegree(self, key):
        exps, es = key
        h = len(es)
        d = sum(exps) + sum(self.dga.section_degrees[j - 1] for j in es)
        return h, d

    def bidegree(self):
        """(homological, internal) degree if homogeneous, else None.
        The zero element is homogeneous of every bidegree."""
        degs = {self.term_bidegree(k) for k in self.terms}
        if not degs:
            return (0, 0)
        if len(degs) > 1:
            return None
        return degs.pop()

    def is_homogeneous(self, hom=None, internal=None):
        if self.is_zero():
            return True
        bi = self.bidegree()
        if bi is None:
            return False
        if hom is not None and bi[0] != hom:
            return False
        if internal is not None and bi[1] != internal:
            return False
        return True

    def differential(self):
        """d extended as a derivation; S-linear, lowers h by 1."""
        out = {}
        for (exps, es), c in self.terms.items():
            for t, j in enumerate(es):
                rest = es[:t] + es[t + 1:]
                sign = -1 if t % 2 else 1
                for fexps, fc in self.dga.sections[j - 1].terms.items():
                    key = (tuple(a + b for a, b in zip(exps, fexps[0])), rest)
                    val = out.get(key, 0) + sign * c * fc
                    if val:
                        out[key] = val
                    else:
                        del out[key]
        return DgaElement(self.dga, out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (exps, es), c in self.terms.items():
            factors = []
            for i, a in enumerate(exps):
                if a == 1:
                    factors.append("x%d" % i)
                elif a > 1:
                    factors.append("x%d^%d" % (i, a))
            for j in es:
                factors.append("e%d" % j)
            if not factors:
                body = str(c)
            elif c == 1:
                body = "*".join(factors)
            elif c == -1:
                body = "-" + "*".join(factors)
            else:
                body = str(c) + "*" + "*".join(factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


class KoszulDga:
    """Homogeneous coordinate dg-ring of a derived zero locus in P^n.

    `raw_sections` is a list of ({exponent tuple: coefficient}, degree)
    pairs; the polynomials live in the even part S.
    """

    def __init__(self, base: GradedPolyRing, raw_sections):
        self.base = base
        self.section_degrees = tuple(dj for _, dj in raw_sections)
        self.r = len(raw_sections)
        self.sections = tuple(
            DgaElement(self, {(tuple(e), ()): c for e, c in f.items()})
            for f, _ in raw_sections)
        for j, (f, dj) in enumerate(zip(self.sections, self.section_degrees), 1):
            for (exps, es) in f.terms:
                if sum(exps) != dj:
                    raise HomogeneityError(
                        "section f%d is not homogeneous of degree %d: "
                        "offending monomial has degree %d" % (j, dj, sum(exps)),
                        monomial=exps)
        # d*d = 0 holds automatically for Koszul differentials; check anyway
        for j in range(1, self.r + 1):
            ej = self.element({((0,) * self.base.nvars, (j,)): 1})
            require(ej.differential().differential().is_zero(),
                    "d*d != 0 on e%d" % j)

    def element(self, terms):
        return DgaElement(self, terms)

    def zero(self):
        return DgaElement(self, {})

    def one(self):
        return DgaElement(self, {((0,) * self.base.nvars, ()): 1})

    def variable(self, i):
        exps = [0] * self.base.nvars
        exps[i] = 1
        return DgaElement(self, {(tuple(exps), ()): 1})

    def poly(self, coeffs):
        """Polynomial from {exponent tuple: coefficient}."""
        return DgaElement(self, {(tuple(e), ()): c for e, c in coeffs.items()})

    def e_subsets(self, size):
        """Sorted tuples of e-indices of the given size."""
        from itertools import combinations
        return list(combinations(range(1, self.r + 1), size))

    def slice_basis(self, hom, internal):
        """Basis [(exps, es)] of the (hom, internal) bidegree slice."""
        out = []
        for es in self.e_subsets(hom):
            mdeg = internal - sum(self.section_degrees[j - 1] for j in es)
            for m in monomials(self.base.nvars, mdeg):
                out.append((m, es))
        return out

    def __repr__(self):
        return "KoszulDga(n=%d, sections=%d)" % (self.base.n, self.r)


def as_element(dga, value):
    """Coerce a DgaElement, a {exponents: coeff} polynomial dict, or a
    full {(exponents, e-tuple): coeff} term dict."""
    if isinstance(value, DgaElement):
        assert value.dga is dga
        return value
    if not value:
        return dga.zero()
    first = next(iter(value))
    if first and isinstance(first[0], tuple):
        return dga.element(value)
    return dga.poly(value)


def make_koszul_dga(ambient_dim, sections):
    """Build the Koszul dg-algebra for sections of P^ambient_dim.

    `sections` is a list of (poly, degree) pairs where poly is either a
    DgaElement (its even part is taken) or {exponent tuple: coefficient}.
    Rejects non-homogeneous sections, naming the offending monomial.
    """
    base = GradedPolyRing(ambient_dim)
    raw = []
    for f, dj in sections:
        if isinstance(f, DgaElement):
            if any(es for (_, es) in f.terms):
                raise InputError("sections must not contain odd generators")
            raw.append(({exps: c for (exps, _), c in f.terms.items()}, dj))
        else:
            raw.append(({tuple(e): _q(c) for e, c in f.items()}, dj))
    return KoszulDga(base, raw)
