import pytest

from derived_kernel.cech import LaurentTruncation
from derived_kernel.dgmodules import (
    DegreeWindow,
    ModuleMap,
    cone,
    direct_sum,
    free_module,
    identity_map,
    inclusion_map,
    projection_map,
    structure_sheaf,
    zero_map,
)
from derived_kernel.errors import PreconditionError
from derived_kernel.strong import (
    classify_map,
    exact_iff_cofibre_check,
    is_short_exact,
    is_strong,
    nullhomotopy_witness,
)

import corpus

W = DegreeWindow(-2, 4, -2, 3)
T = LaurentTruncation(2)


def test_free_modules_are_strong():
    for dga in (corpus.p1(), corpus.double_point(), corpus.derived_line()):
        rep = is_strong(structure_sheaf(dga), W, T)
        assert rep.verdict == "strong", (dga, rep)
        rep = is_strong(free_module(dga, [2, -1]), W, T)
        assert rep.verdict == "strong"


def test_sum_with_shift_is_not_strong_over_derived_base():
    dbl = corpus.double_point()
    m = direct_sum([structure_sheaf(dbl), structure_sheaf(dbl).shift(1)])
    rep = is_strong(m, W, T)
    assert rep.verdict == "not_strong"
    chart, i, d = rep.witness
    assert i == 1


def test_discrete_module_over_classical_base_is_strong():
    p1 = corpus.p1()
    assert is_strong(corpus.point_sheaf(p1), W, T).verdict == "strong"


def test_classify_identity_and_zero():
    p1 = corpus.p1()
    m = free_module(p1, [0, -1])
    assert classify_map(identity_map(m), W, T).verdict == "iso"
    n = structure_sheaf(p1)
    rep = classify_map(zero_map(free_module(p1, []), n), W, T)
    assert rep.verdict == "mono"
    assert rep.epi is False


def test_classify_two_variable_surjection():
    p1 = corpus.p1()
    om1s = free_module(p1, [-1, -1])
    o = free_module(p1, [0])
    g = ModuleMap(om1s, o, {(0, 0): {(1, 0): 1}, (0, 1): {(0, 1): 1}})
    rep = classify_map(g, W, T)
    assert rep.verdict == "epi"


def test_classify_requires_strong():
    dbl = corpus.double_point()
    m = direct_sum([structure_sheaf(dbl), structure_sheaf(dbl).shift(1)])
    with pytest.raises(PreconditionError):
        classify_map(identity_map(m), W, T)


def test_nullhomotopy_zero_map():
    p1 = corpus.p1()
    m = structure_sheaf(p1)
    h = nullhomotopy_witness(zero_map(m, m))
    assert h == {}


def test_nullhomotopy_on_acyclic_cone():
    p1 = corpus.p1()
    c = cone(identity_map(free_module(p1, [0, -2])))
    h = nullhomotopy_witness(identity_map(c))
    assert h is not None


def test_nullhomotopy_obstructed_by_pi0():
    p1 = corpus.p1()
    f = ModuleMap(free_module(p1, [-1]), free_module(p1, [0]),
                  {(0, 0): {(1, 0): 1}})
    assert nullhomotopy_witness(f) is None


def test_euler_sequence_exact_on_p1():
    p1 = corpus.p1()
    f, g = corpus.euler_maps(p1)
    rep = is_short_exact(f, g, W, T)
    assert rep.verdict, rep


def test_split_triple_exact():
    p1 = corpus.p1()
    mods = [free_module(p1, [1]), free_module(p1, [0, -2])]
    inc = inclusion_map(0, mods)
    proj = projection_map(1, mods)
    rep = is_short_exact(inc, proj, W, T)
    assert rep.verdict
    cmp = exact_iff_cofibre_check(inc, proj, W, T)
    assert cmp.equivalence and cmp.agrees


def test_euler_cofibre_comparison():
    p1 = corpus.p1()
    f, g = corpus.euler_maps(p1)
    cmp = exact_iff_cofibre_check(f, g, W, T)
    assert cmp.equivalence and cmp.agrees


def test_wrong_second_map_detected():
    p1 = corpus.p1()
    f, _ = corpus.euler_maps(p1)
    wrong = zero_map(f.target, free_module(p1, [0]))
    cmp = exact_iff_cofibre_check(f, wrong, W, T)
    assert not cmp.equivalence
    assert cmp.agrees  # both sides report failure
    assert cmp.failing_slice is not None


def test_exactness_failure_reports_homology_separately():
    p1 = corpus.p1()
    om1 = free_module(p1, [-1])
    o = structure_sheaf(p1)
    f = ModuleMap(om1, o, {(0, 0): {(1, 0): 1}})
    pt = corpus.point_sheaf(p1)
    # composite O(-1) -> O -> point is x0 followed by the projection;
    # build the projection O -> point
    proj = ModuleMap(o, pt, {(0, 0): {(0, 0): 1}})
    rep = is_short_exact(f, proj, W, T)
    # this IS a short exact sequence of sheaves
    assert rep.verdict, rep


def test_is_short_exact_negative_control():
    p1 = corpus.p1()
    o = structure_sheaf(p1)
    rep = is_short_exact(zero_map(o, o), identity_map(o), W, T)
    assert not rep.verdict
    assert any(r == "not injective" for (_, _, _, r) in rep.failures)


NULLHOMOTOPY_CHECK_UNDER_O = """
from derived_kernel import strong
from derived_kernel.dga import make_koszul_dga
from derived_kernel.dgmodules import cone, free_module, identity_map
from derived_kernel.errors import InternalCheckFailed
print("debug:", __debug__)
c = cone(identity_map(free_module(make_koszul_dga(1, []), [0])))
strong.solve = lambda mat, rhs: {}     # a wrong homotopy h = 0
try:
    strong.nullhomotopy_witness(identity_map(c))
except InternalCheckFailed as exc:
    print("raised:", exc)
"""


def test_nullhomotopy_check_survives_python_O(run_optimized):
    assert run_optimized(NULLHOMOTOPY_CHECK_UNDER_O) == [
        "debug: False", "raised: nullhomotopy identity failed at generator 0"]
