import random
from fractions import Fraction

import pytest

from derived_kernel.dga import make_koszul_dga
from derived_kernel.errors import HomogeneityError
from derived_kernel.grammar import ParseError, parse_polynomial


def rings():
    p2 = make_koszul_dga(2, [])
    derived = make_koszul_dga(2, [({(1, 0, 0): 1}, 1), ({(0, 2, 0): 1}, 2)])
    return p2, derived


def test_basic_parse():
    p2, _ = rings()
    e = parse_polynomial("x0^2 - 2*x0*x1", p2)
    assert e.is_homogeneous(internal=2)
    assert e.terms == {((2, 0, 0), ()): Fraction(1), ((1, 1, 0), ()): Fraction(-2)}


def test_odd_generator_bidegree():
    _, derived = rings()
    e = parse_polynomial("3/2*e1*x2", derived)
    # e1 has internal degree 1 (its section is linear), so total (1+1, hom 1)
    assert e.bidegree() == (1, 2)


def test_homogeneity_demand():
    p2, _ = rings()
    with pytest.raises(HomogeneityError):
        parse_polynomial("x0 + x1^2", p2, require_internal=2)


def test_unknown_variable_positions():
    p2, derived = rings()
    with pytest.raises(ParseError) as ei:
        parse_polynomial("x0 + x5", p2)
    assert ei.value.position == 5
    with pytest.raises(ParseError):
        parse_polynomial("e1", p2)  # no odd generators on plain P^2
    parse_polynomial("e2", derived)
    with pytest.raises(ParseError):
        parse_polynomial("e3", derived)


def test_no_juxtaposition():
    p2, _ = rings()
    with pytest.raises(ParseError):
        parse_polynomial("2x0", p2)
    with pytest.raises(ParseError):
        parse_polynomial("x0 x1", p2)


def test_signs_and_fractions():
    p2, _ = rings()
    e = parse_polynomial("-x0 + 1/3*x1 - 0*x2", p2)
    assert e.terms == {((1, 0, 0), ()): Fraction(-1),
                       ((0, 1, 0), ()): Fraction(1, 3)}
    with pytest.raises(ParseError):
        parse_polynomial("x0 - -x1", p2)  # no unary sign after an operator


def test_e_square_is_zero():
    _, derived = rings()
    assert parse_polynomial("e1*e1", derived).is_zero()
    assert parse_polynomial("e1^2", derived).is_zero()
    anti = parse_polynomial("e1*e2 + e2*e1", derived)
    assert anti.is_zero()


def test_round_trip_random():
    p2, derived = rings()
    rng = random.Random(17)
    for dga in (p2, derived):
        for _ in range(30):
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                exps = tuple(rng.randrange(0, 3) for _ in range(3))
                es = tuple(sorted(rng.sample(range(1, dga.r + 1),
                                             rng.randrange(0, dga.r + 1)))) \
                    if dga.r else ()
                terms[(exps, es)] = Fraction(rng.randrange(-5, 6),
                                             rng.randrange(1, 4))
            e = dga.element(terms)
            if e.is_zero():
                continue
            printed = str(e)
            again = parse_polynomial(printed, dga)
            assert again == e, printed
            assert str(again) == printed
