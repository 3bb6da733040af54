"""Parser for the input polynomial grammar.

    expr   := ("+"|"-")? term (("+"|"-") term)*
    term   := coeff ("*" factor)* | factor ("*" factor)*
    factor := var ("^" nat)?
    coeff  := nat ("/" nat)?
    var    := "x" nat | "e" nat

No implicit multiplication; whitespace is insignificant.  Example:
"3/2*x0^2*x1 - e1*x2".  Errors carry the offending position.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import HomogeneityError, InputError


class ParseError(InputError):
    def __init__(self, message, position):
        super().__init__("%s at position %d" % (message, position))
        self.position = position


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.items = []
        self._scan()
        self.k = 0

    def _scan(self):
        t, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^":
                self.items.append((ch, ch, i))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and t[j].isdigit():
                    j += 1
                self.items.append(("nat", int(t[i:j]), i))
                i = j
                continue
            if ch in "xe":
                j = i + 1
                while j < n and t[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ParseError("variable '%s' needs an index" % ch, i)
                self.items.append(("var", (ch, int(t[i + 1:j])), i))
                i = j
                continue
            raise ParseError("unexpected character %r" % ch, i)
        self.items.append(("end", None, n))

    def peek(self):
        return self.items[self.k]

    def next(self):
        tok = self.items[self.k]
        self.k += 1
        return tok


def parse_polynomial(text, dga, require_internal=None, require_hom=None):
    """Parse `text` into a DgaElement over `dga`.

    Optional bidegree demands raise HomogeneityError when violated."""
    if not text or not text.strip():
        raise ParseError("empty polynomial", 0)
    toks = _Tokens(text)

    def parse_var(tok):
        kind, val, pos = tok
        if kind != "var":
            raise ParseError("expected a variable", pos)
        letter, idx = val
        if letter == "x":
            if idx >= dga.base.nvars:
                raise ParseError("unknown variable x%d (ambient has x0..x%d)"
                                 % (idx, dga.base.nvars - 1), pos)
        else:
            if idx < 1 or idx > dga.r:
                raise ParseError("unknown variable e%d (ring has %d odd "
                                 "generators)" % (idx, dga.r), pos)
        return letter, idx

    def parse_factor():
        letter, idx = parse_var(toks.next())
        power = 1
        if toks.peek()[0] == "^":
            toks.next()
            kind, val, pos = toks.next()
            if kind != "nat":
                raise ParseError("expected an exponent", pos)
            power = val
        exps = [0] * dga.base.nvars
        es = ()
        if letter == "x":
            exps[idx] = power
        else:
            if power >= 2:
                return dga.zero()  # odd generators square to zero
            es = (idx,)
        return dga.element({(tuple(exps), es): 1})

    def parse_term():
        kind, val, pos = toks.peek()
        if kind == "nat":
            toks.next()
            num = val
            den = 1
            if toks.peek()[0] == "/":
                toks.next()
                k2, v2, p2 = toks.next()
                if k2 != "nat":
                    raise ParseError("expected a denominator", p2)
                if v2 == 0:
                    raise ParseError("zero denominator", p2)
                den = v2
            out = dga.one().scale(Fraction(num, den))
        elif kind == "var":
            out = parse_factor()
        else:
            raise ParseError("expected a term", pos)
        while toks.peek()[0] == "*":
            toks.next()
            out = out * parse_factor()
        return out

    sign = 1
    if toks.peek()[0] in ("+", "-"):
        sign = -1 if toks.next()[0] == "-" else 1
    out = parse_term().scale(sign)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        nxt = parse_term()
        out = out + (nxt.scale(-1) if op == "-" else nxt)
    kind, _, pos = toks.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)

    if require_internal is not None or require_hom is not None:
        for key in out.terms:
            h, dd = out.term_bidegree(key)
            if require_internal is not None and dd != require_internal:
                raise HomogeneityError(
                    "non-homogeneous: monomial of internal degree %d where "
                    "%d demanded" % (dd, require_internal), monomial=key)
            if require_hom is not None and h != require_hom:
                raise HomogeneityError(
                    "non-homogeneous: monomial of homological degree %d "
                    "where %d demanded" % (h, require_hom), monomial=key)
    return out
