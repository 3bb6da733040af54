import random

import pytest

from derived_kernel.dga import make_koszul_dga
from derived_kernel.dgmodules import (
    DegreeWindow,
    ModuleMap,
    cone,
    direct_sum,
    free_module,
    global_bounds,
    identity_map,
    inclusion_map,
    koszul_module,
    projection_map,
    structure_sheaf,
    zero_map,
)
from derived_kernel.errors import HomogeneityError, PreconditionError
from derived_kernel.presentations import extract_presentation, truncation_pi0

from oracles import koszul_two_equal_sections_pi1_dim
from reference import ref_koszul_module

import corpus


def x(dga, i):
    return dga.variable(i)


def test_make_koszul_p1_is_discrete():
    p1 = make_koszul_dga(1, [])
    o = structure_sheaf(p1)
    for i in range(1, 4):
        for d in range(0, 4):
            assert o.homology(i, d).dim == 0
    assert o.homology(0, 2).dim == 3  # x0^2, x0*x1, x1^2


def test_make_koszul_rejects_inhomogeneous():
    with pytest.raises(HomogeneityError):
        make_koszul_dga(1, [({(1, 0): 1, (2, 0): 1}, 1)])


def test_derived_double_point_homotopy():
    # sections (x0, x0) over Q[x0, x1]
    dbl = make_koszul_dga(1, [({(1, 0): 1}, 1), ({(1, 0): 1}, 1)])
    o = structure_sheaf(dbl)
    # pi_0 = Q[x0,x1]/(x0): slice dims 1 in every degree >= 0
    for d in range(0, 5):
        assert o.homology(0, d).dim == 1
    # pi_1 = (S/x0)(-1): brute-force oracle
    for d in range(0, 5):
        assert o.homology(1, d).dim == koszul_two_equal_sections_pi1_dim(d)


def test_double_point_on_p0():
    a = make_koszul_dga(0, [({(2,): 1}, 2)])
    o = structure_sheaf(a)
    assert [o.homology(0, d).dim for d in range(4)] == [1, 1, 0, 0]
    assert all(o.homology(1, d).dim == 0 for d in range(6))


def test_shift_and_twist_identities():
    p1 = make_koszul_dga(1, [])
    m = free_module(p1, [0, -2])
    assert m.shift(0) == m
    assert m.shift(1).shift(-1) == m
    assert m.twist(0) == m
    assert m.twist(2).twist(-2) == m
    # pi_1 of shift(M, 1) equals former pi_0 slice table
    sh = m.shift(1)
    for d in range(0, 4):
        assert sh.homology(1, d).dim == m.homology(0, d).dim
    # twist(O, 2) has slice (0, 0) of dim 3 on P^1
    o2 = structure_sheaf(p1).twist(2)
    assert o2.homology(0, 0).dim == 3


def test_cone_of_zero_and_identity():
    p1 = make_koszul_dga(1, [])
    m = free_module(p1, [0, -1])
    c0 = cone(zero_map(free_module(p1, []), m))
    for i in range(0, 3):
        for d in range(0, 3):
            assert c0.homology(i, d).dim == m.homology(i, d).dim
    cid = cone(identity_map(m))
    for i in range(-1, 4):
        for d in range(0, 4):
            assert cid.homology(i, d).dim == 0


def point_sheaf_p1(p1):
    """cone(x0: O(-1) -> O)"""
    o_m1 = free_module(p1, [-1])
    o = free_module(p1, [0])
    f = ModuleMap(o_m1, o, {(0, 0): {(1, 0): 1}})
    return cone(f)


def test_cone_point_sheaf_pi0():
    p1 = make_koszul_dga(1, [])
    pt = point_sheaf_p1(p1)
    # pi_0 slice table equals S/(x0): dim 1 in each degree >= 0
    for d in range(0, 5):
        assert pt.homology(0, d).dim == 1
    for d in range(0, 5):
        assert pt.homology(1, d).dim == 0


def test_long_exact_sequence_rank_identity():
    rng = random.Random(5)
    p1 = make_koszul_dga(1, [])
    dbl = make_koszul_dga(1, [({(1, 0): 1}, 1), ({(1, 0): 1}, 1)])
    for dga in (p1, dbl):
        o = structure_sheaf(dga)
        om1 = free_module(dga, [-1])
        for trial in range(4):
            c0 = rng.randrange(-2, 3)
            c1 = rng.randrange(-2, 3)
            f = ModuleMap(om1, o, {(0, 0): {(1, 0): c0, (0, 1): c1}})
            c = cone(f)
            for i in range(0, 3):
                for d in range(0, 4):
                    fi = f.homology_matrix(i, d)
                    fim1 = f.homology_matrix(i - 1, d)
                    from derived_kernel.exact_linear import rank
                    coker = fi.rows - rank(fi)
                    kerlow = fim1.cols - rank(fim1)
                    assert c.homology(i, d).dim == coker + kerlow


def test_window_monotonicity():
    p1 = make_koszul_dga(1, [])
    pt = point_sheaf_p1(p1)
    small = {(i, d): pt.homology(i, d).dim for i in range(0, 2)
             for d in range(0, 3)}
    # enlarging the window must not change previously reported values
    for (i, d), v in small.items():
        assert pt.homology(i, d).dim == v


def test_truncation_pi0_presentations():
    p1 = make_koszul_dga(1, [])
    w = DegreeWindow(0, 5, -1, 2)
    o = structure_sheaf(p1)
    pres = truncation_pi0(o, w)
    assert pres.gen_degrees == (0,)
    assert pres.relations == ()
    pt = point_sheaf_p1(p1)
    ppres = truncation_pi0(pt, w)
    assert ppres.gen_degrees == (0,)
    assert len(ppres.relations) == 1
    # the single relation is x0 * g
    assert str(ppres.relations[0][0]) == "x0"
    # direct sum of twists: direct sum of presentations
    m = free_module(p1, [0, -2])
    mp = truncation_pi0(m, w)
    assert sorted(mp.gen_degrees) == [0, 2]
    assert mp.relations == ()


def test_truncation_pi0_rejects_nonconnective():
    p1 = make_koszul_dga(1, [])
    m = free_module(p1, [0]).shift(-1)
    with pytest.raises(PreconditionError):
        truncation_pi0(m, DegreeWindow(0, 3, -2, 1))


def test_presentation_reproduces_slice_table():
    dbl = make_koszul_dga(1, [({(1, 0): 1}, 1), ({(1, 0): 1}, 1)])
    o = structure_sheaf(dbl)
    w = DegreeWindow(0, 5, 0, 2)
    for i in (0, 1, 2):
        pres = extract_presentation(o, i, w)
        for d in range(0, 6):
            got = pres.localized_slice(d, global_bounds(dbl)).dim
            assert got == o.homology(i, d).dim, (i, d)


def test_split_sum_presentation_additivity():
    p1 = make_koszul_dga(1, [])
    a = free_module(p1, [1])
    b = point_sheaf_p1(p1)
    s = direct_sum([a, b])
    w = DegreeWindow(-1, 4, 0, 2)
    pa = extract_presentation(a, 0, w)
    pb = extract_presentation(b, 0, w)
    ps = extract_presentation(s, 0, w)
    assert sorted(ps.gen_degrees) == sorted(pa.gen_degrees + pb.gen_degrees)
    assert len(ps.relations) == len(pa.relations) + len(pb.relations)


def test_inclusion_projection_maps():
    p1 = make_koszul_dga(1, [])
    mods = [free_module(p1, [0]), free_module(p1, [-1])]
    inc = inclusion_map(0, mods)
    proj = projection_map(1, mods)
    assert proj.compose(inc).entries == {}


def test_koszul_module_matches_direct_construction():
    # koszul_module is the Koszul tensor of the structure sheaf; the
    # direct construction it replaced must give the same gens and diff
    dgas = [corpus.p1(), corpus.p2(), corpus.double_point(),
            corpus.classical_point(), corpus.derived_line(), corpus.conic()]
    for dga in dgas:
        n1 = dga.base.nvars
        coords = [({tuple(int(k == t) for k in range(n1)): 1}, 1)
                  for t in range(n1)]
        x0 = coords[0][0]
        for polys in (coords, coords[:1], [(x0, 1), (x0, 1)],
                      [({(2,) + (0,) * (n1 - 1): 1}, 2), (x0, 1)]):
            new, ref = koszul_module(dga, polys), ref_koszul_module(dga, polys)
            assert new.gens == ref.gens, (dga, polys)
            assert list(new.diff.items()) == list(ref.diff.items())
    p1 = corpus.p1()
    dbl = corpus.double_point_pushforward(p1)
    ref = ref_koszul_module(p1, [({(1, 0): 1}, 1), ({(1, 0): 1}, 1)])
    assert dbl.gens == ref.gens
    assert list(dbl.diff.items()) == list(ref.diff.items())


MODULE_CHECKS_UNDER_O = """
from derived_kernel.dga import make_koszul_dga
from derived_kernel.dgmodules import DgModule, ModuleMap, free_module
from derived_kernel.errors import InternalCheckFailed
print("debug:", __debug__)
p1 = make_koszul_dga(1, [])
x0 = {(1, 0): 1}
for build in (
        lambda: DgModule(p1, [(0, 0), (1, 1), (2, 2)],
                         {(0, 1): x0, (1, 2): x0}),
        lambda: ModuleMap(DgModule(p1, [(0, 0), (1, 1)], {(0, 1): x0}),
                          free_module(p1, [0]), {(0, 0): {(0, 0): 1}})):
    try:
        build()
    except InternalCheckFailed as exc:
        print("raised:", exc)
"""


def test_module_checks_survive_python_O(run_optimized):
    # modules and maps built by the program itself fail as internal
    # checks (exit 5), also under `python -O`
    assert run_optimized(MODULE_CHECKS_UNDER_O) == [
        "debug: False", "raised: d*d != 0 at generator 2",
        "raised: not a chain map at generator 1"]
