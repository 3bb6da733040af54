"""Fuzzing of the input files and the polynomial grammar.

Valid scheme, module and triple files and polynomial strings are mutated
by a few character and line edits (derandomized Hypothesis).  Every
mutant must either parse or raise `InputError`; no other exception may
escape.  A CLI pass runs mutated module files through `sections`, whose
exit code must be 0, 2, 3 or 4 (never 5, never a traceback).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derived_kernel.cli import main
from derived_kernel.errors import InputError
from derived_kernel.grammar import parse_polynomial
from derived_kernel.specfiles import parse_module, parse_scheme, parse_triple

import corpus
from test_cli import DBL_SCHEME, EULER_TRIPLE, P1_SCHEME, POINT_MOD

P2_SCHEME = "ambient = 2\nsection = x0*x2 - x1^2 : 2  # a conic\n"

KOSZUL_MOD = """\
generator = g0 : h=0 : a=0
generator = g1 : h=1 : a=1
generator = g2 : h=1 : a=1
generator = g3 : h=2 : a=2
d = g1 -> g0 : x0
d = g2 -> g0 : x1
d = g3 -> g1 : x1
d = g3 -> g2 : -1*x0
shift = 1
twist = -1
"""

DBL_MOD = """\
generator = g0 : h=0 : a=0
generator = g1 : h=1 : a=0
d = g1 -> g0 : e1 - e2
"""

POLYNOMIALS = ["3/2*x0^2*x1 - e1*x2", "x0*x2 - x1^2", "-e1*e2 + 1/3",
               "x1^3 + 2*x0*x1^2 - x2"]

TOKENS = ["->", ":", "=", "#", "[", "]", "x0", "x2", "x9", "e1", "e3",
          "h=", "a=", "0", "1", "-", "/", "^", "*", "+", " ", "\n",
          "generator", "d", "shift", "twist", "section", "ambient",
          "entry", "source", "target", "[module F]", "[map f]", "one"]

OPS = ["insert", "delete", "replace", "value", "dup_line", "drop_line",
       "swap_lines"]

# a Random drawn by Hypothesis: uniform edits, reproducible under
# derandomize
EDITS = st.randoms(use_true_random=False)


def mutate(text, rng):
    """One to three random edits: insert, delete or replace characters
    with a token, replace a line's value by a token, or duplicate, drop
    or swap lines."""
    for _ in range(rng.randint(1, 3)):
        op, tok = rng.choice(OPS), rng.choice(TOKENS)
        if op in ("insert", "delete", "replace"):
            i = rng.randrange(len(text) + 1)
            if op == "insert":
                text = text[:i] + tok + text[i:]
            elif op == "delete":
                text = text[:i] + text[i + rng.randint(1, 3):]
            else:
                text = text[:i] + tok + text[i + 1:]
        else:
            lines = text.split("\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            if op == "value":
                lines[i] = lines[i].split("=", 1)[0] + "= " + tok
            elif op == "dup_line":
                lines.insert(j, lines[i])
            elif op == "drop_line":
                del lines[i]
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def _parsers():
    p1, p2, dbl = corpus.p1(), corpus.p2(), corpus.double_point()
    out = [(text, parse_scheme) for text in (P1_SCHEME, DBL_SCHEME, P2_SCHEME)]
    out += [(text, lambda t, dga=dga: parse_module(t, dga))
            for text, dga in ((POINT_MOD, p1), (KOSZUL_MOD, p2),
                              (DBL_MOD, dbl))]
    out.append((EULER_TRIPLE, lambda t: parse_triple(t, p1)))
    for text in POLYNOMIALS:
        out.append((text, lambda t: parse_polynomial(t, p2)))
        out.append((text, lambda t: parse_polynomial(
            t, p2, require_internal=3, require_hom=0)))
    return out


PARSERS = _parsers()


@pytest.mark.parametrize("which", range(len(PARSERS)))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(rng=EDITS)
def test_mutated_inputs_parse_or_raise_input_error(which, rng):
    text, parse = PARSERS[which]
    try:
        parse(mutate(text, rng))
    except InputError:
        pass


CLI_SEEDS = [(P1_SCHEME, POINT_MOD), (P1_SCHEME, KOSZUL_MOD),
             (DBL_SCHEME, DBL_MOD)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, len(CLI_SEEDS) - 1), EDITS)
def test_cli_on_mutated_modules_exits_0_to_4(tmp_path_factory, which, rng):
    d = tmp_path_factory.mktemp("fuzz")
    scheme, module = CLI_SEEDS[which]
    (d / "s.scheme").write_text(scheme)
    (d / "m.mod").write_text(mutate(module, rng))
    code = main(["sections", "--scheme", str(d / "s.scheme"),
                 "--module", str(d / "m.mod"), "--laurent-T", "0",
                 "--out", str(d / "r.json")])
    assert code in (0, 2, 3, 4)
