import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import derived_kernel
from derived_kernel.errors import PreconditionError
from derived_kernel.exact_linear import (
    RatMatrix,
    integer_row_space_contains,
    kernel_basis,
    rank,
    smith_normal_form,
    solve,
)


def test_kernel_empty_matrix():
    assert kernel_basis(RatMatrix(0, 0)) == []


def test_kernel_identity():
    m = RatMatrix(3, 3, {(i, i): 1 for i in range(3)})
    assert kernel_basis(m) == []


def test_kernel_row_vector():
    # [[1, 1]] -> basis {(1, -1)}, solved by hand
    m = RatMatrix(1, 2, {(0, 0): 1, (0, 1): 1})
    assert kernel_basis(m) == [{0: Fraction(1), 1: Fraction(-1)}]


def test_cokernel_examples():
    # dim coker = rows - rank
    assert 2 - rank(RatMatrix(2, 2, {(0, 0): 1, (1, 1): 1})) == 0
    assert 3 - rank(RatMatrix(3, 2)) == 3
    # [[2, 4], [1, 2]] has rank 1 by row reduction
    m = RatMatrix(2, 2, {(0, 0): 2, (0, 1): 4, (1, 0): 1, (1, 1): 2})
    assert m.rows - rank(m) == 1


def test_smith_diag_2_3():
    # gcd-step elimination by hand gives (1, 6)
    f = smith_normal_form([[2, 0], [0, 3]])
    assert f.diagonal == (1, 6)


def test_smith_identity_and_zero():
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert smith_normal_form([]).diagonal == ()


def test_rank_plus_kernel_on_random_matrices():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(0, 6)
        cols = rng.randrange(0, 6)
        ent = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.55:
                    ent[(r, c)] = Fraction(rng.randrange(-4, 5))
        m = RatMatrix(rows, cols, ent)
        assert rank(m) + len(kernel_basis(m)) == cols
        for v in kernel_basis(m):
            assert m.apply(v) == {}


def test_snf_reconstruction_random():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        f = smith_normal_form(a)  # invariants asserted internally
        nz = f.nonzero()
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0


def test_determinism_bit_exact():
    rng = random.Random(3)
    ent = {(r, c): Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
           for r in range(5) for c in range(7) if rng.random() < 0.6}
    m1 = RatMatrix(5, 7, ent)
    m2 = RatMatrix(5, 7, dict(reversed(list(ent.items()))))
    assert repr(kernel_basis(m1)) == repr(kernel_basis(m2))
    assert kernel_basis(m1) == kernel_basis(m2)


def test_solve():
    m = RatMatrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 1): 1})
    b = {0: Fraction(5), 1: Fraction(2)}
    x = solve(m, b)
    assert m.apply(x) == b
    # inconsistent system
    m2 = RatMatrix(2, 1, {(0, 0): 1, (1, 0): 2})
    assert solve(m2, {0: Fraction(1), 1: Fraction(3)}) is None


def test_integer_row_space():
    rows = [[1, -2, 1, 0], [0, 1, -2, 1]]
    assert integer_row_space_contains(rows, 4, [1, -1, -1, 1])
    assert not integer_row_space_contains(rows, 4, [1, 0, 0, 0])
    assert integer_row_space_contains([], 3, [0, 0, 0])
    assert not integer_row_space_contains([[2, 0]], 2, [1, 0])


def test_smith_rejects_non_integral_entries():
    # a truncating int() read [[1/2, 1]] as [[0, 1]] and returned (1,)
    with pytest.raises(PreconditionError):
        smith_normal_form([[Fraction(1, 2), 1]])
    with pytest.raises(PreconditionError):
        smith_normal_form([[1, 0], [0, Fraction(-7, 3)]])
    # integral values in any exact form are accepted as the ints they are
    # ([[2, 1], [4, 6]]: entry gcd 1, determinant 8)
    form = smith_normal_form([[Fraction(2), True], [4, Fraction(6, 1)]])
    assert form.diagonal == (1, 8)


SMITH_CHECK_UNDER_O = """
import dataclasses
from derived_kernel.errors import InternalCheckFailed
from derived_kernel.exact_linear import _assert_smith, smith_normal_form
a = [[2, 4], [6, 8]]
form = smith_normal_form(a)
print("debug:", __debug__)
bad = dataclasses.replace(form, diagonal=(form.diagonal[0],
                                          form.diagonal[1] + 1))
try:
    _assert_smith(a, bad, 2, 2)
except InternalCheckFailed as exc:
    print("raised:", exc)
"""


def test_smith_checks_survive_python_O():
    src = str(Path(derived_kernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", SMITH_CHECK_UNDER_O],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "debug: False", "raised: SNF reconstruction failed"]
