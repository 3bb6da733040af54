"""Acceptance criteria, one test per criterion, exact tolerances.

Each criterion prints a single PASS/FAIL line (run with -s to see them
on success)."""

import random
from contextlib import contextmanager

from derived_kernel.cech import (
    LaurentTruncation,
    build_cech_double_complex,
    sheaf_cohomology,
)
from derived_kernel.cli import main
from derived_kernel.dgmodules import (
    DegreeWindow,
    direct_sum,
    free_module,
    inclusion_map,
    projection_map,
    structure_sheaf,
)
from derived_kernel.k_theory import (
    check_cofibre_additivity,
    check_resolution_independence,
    is_vector_bundle,
    k0_group,
    resolve_perfect,
    tor_amplitude,
)
from derived_kernel.presentations import presented_free
from derived_kernel.strong import (
    classify_map,
    exact_iff_cofibre_check,
)
from derived_kernel.twisting import (
    default_window,
    global_generation_search,
    twist_search,
)

import corpus
from oracles import line_bundle_cohomology

T2 = LaurentTruncation(2)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d (%s): FAIL" % (number, label))
        raise
    print("ACCEPTANCE %d (%s): PASS" % (number, label))


def test_criterion_1_cohomology_oracle():
    with criterion(1, "cohomology oracle"):
        for n, dga in ((1, corpus.p1()), (2, corpus.p2())):
            for d in range(-6, 7):
                pres = presented_free(dga, [d])
                out = sheaf_cohomology(pres, 0, LaurentTruncation(abs(d) + 1))
                for p in range(0, n + 1):
                    want = line_bundle_cohomology(n, d, p)
                    assert out.table[p] == want, (n, d, p)
                    assert out.stable[p], (n, d, p)
        # the three pinned values, explicitly
        p2, p1 = corpus.p2(), corpus.p1()
        assert sheaf_cohomology(presented_free(p2, [3]), 0,
                                LaurentTruncation(4)).table[0] == 10
        assert sheaf_cohomology(presented_free(p1, [-2]), 0,
                                LaurentTruncation(3)).table[1] == 1
        assert sheaf_cohomology(presented_free(p2, [-4]), 0,
                                LaurentTruncation(5)).table[2] == 3


def test_criterion_2_descent_spectral_sequence():
    with criterion(2, "descent spectral sequence"):
        zoo = corpus.spectral_corpus()
        assert len(zoo) >= 10
        for name, m in zoo:
            n = m.dga.base.n
            ss = build_cech_double_complex(m, 0, T2).spectral_sequence()
            # filtration: E_infinity dimensions sum to totalization
            sums = {}
            for (p, q), dim in ss.infinity.cells.items():
                sums[q - p] = sums.get(q - p, 0) + dim
            for deg in set(ss.total.degrees()) | set(sums):
                assert sums.get(deg, 0) == ss.total.homology(deg).dim, \
                    (name, deg)
            assert ss.stabilized_at() <= n + 2, name


def _random_split_triples(rng, count):
    schemes = [corpus.p1(), corpus.double_point()]
    out = []
    for k in range(count):
        dga = schemes[k % len(schemes)]
        t1 = [rng.randrange(-2, 3) for _ in range(rng.randrange(1, 3))]
        t2 = [rng.randrange(-2, 3) for _ in range(rng.randrange(1, 3))]
        mods = [free_module(dga, t1), free_module(dga, t2)]
        out.append((inclusion_map(0, mods), projection_map(1, mods)))
    return out


def test_criterion_3_exact_iff_cofibre():
    with criterion(3, "exact iff cofibre"):
        rng = random.Random(2024)
        w = DegreeWindow(-2, 4, -1, 3)
        disagreements = 0
        checked = 0
        for f, g in _random_split_triples(rng, 50):
            cmp = exact_iff_cofibre_check(f, g, w, T2)
            checked += 1
            assert cmp.short_exact.verdict and cmp.equivalence, "split triple"
            if not cmp.agrees:
                disagreements += 1
        p1 = corpus.p1()
        f, g = corpus.euler_maps(p1)
        cmp = exact_iff_cofibre_check(f, g, w, T2)
        checked += 1
        assert cmp.short_exact.verdict and cmp.equivalence
        disagreements += 0 if cmp.agrees else 1
        dbl = corpus.double_point()
        f, g = corpus.euler_maps(dbl)
        cmp = exact_iff_cofibre_check(f, g, w, T2)
        checked += 1
        disagreements += 0 if cmp.agrees else 1
        # negative direction: broken second maps must agree on failure
        from derived_kernel.dgmodules import zero_map
        f, _ = corpus.euler_maps(p1)
        bad = zero_map(f.target, structure_sheaf(p1))
        cmp = exact_iff_cofibre_check(f, bad, w, T2)
        checked += 1
        assert not cmp.equivalence and not cmp.short_exact.verdict
        disagreements += 0 if cmp.agrees else 1
        assert checked >= 53
        assert disagreements == 0


def _twisting_corpus():
    p1 = corpus.p1()
    dbl = corpus.double_point()
    return [
        ("p1:O", structure_sheaf(p1)),
        ("p1:O(2)", free_module(p1, [2])),
        ("p1:O+O(-2)[1]", direct_sum([structure_sheaf(p1),
                                      free_module(p1, [-2]).shift(1)])),
        ("p1:point", corpus.point_sheaf(p1)),
        ("p1:kernel-bundle", corpus.kernel_bundle_p1(p1)),
        ("p1:dbl-pushforward", corpus.double_point_pushforward(p1)),
        ("dbl:O", structure_sheaf(dbl)),
        ("dbl:O(1)+O(-1)", free_module(dbl, [1, -1])),
    ]


def test_criterion_4_twisting_theorem():
    with criterion(4, "twisting theorem"):
        for name, m in _twisting_corpus():
            h_lo, h_hi = m.homological_span()
            for i in range(min(h_lo, -1), h_hi + 1):
                rep = twist_search(m, i, ceiling=3, trunc=T2)
                assert rep.n0 <= 3, (name, i)
                seen = False
                for row in rep.rows:
                    if row.n >= rep.n0:
                        assert row.iso and row.stable, (name, i, row.n)
                    seen = seen or row.iso
        p1 = corpus.p1()
        worked = direct_sum([structure_sheaf(p1),
                             free_module(p1, [-2]).shift(1)])
        assert twist_search(worked, 0, ceiling=3, trunc=T2).n0 == 1


def test_criterion_5_global_generation():
    with criterion(5, "global generation"):
        p1 = corpus.p1()
        dbl = corpus.double_point()
        strong_corpus = [
            ("p1:O", structure_sheaf(p1)),
            ("p1:O(-1)", free_module(p1, [-1])),
            ("p1:O+O(1)", free_module(p1, [0, 1])),
            ("p1:O(-2)+O(-1)", free_module(p1, [-2, -1])),
            ("p1:kernel-bundle", corpus.kernel_bundle_p1(p1)),
            ("dbl:O", structure_sheaf(dbl)),
            ("dbl:O(-1)", free_module(dbl, [-1])),
            ("p2:cotangent", corpus.cotangent_p2(corpus.p2())),
        ]
        for name, m in strong_corpus:
            rep = global_generation_search(m, ceiling=4, trunc=T2)
            assert rep.n0 is not None and rep.n0 <= 4, name
            tw = m.twist(rep.n0)
            w = default_window(tw)
            verdict = classify_map(rep.witness, w, T2, check_strong=False)
            assert verdict.epi, (name, rep.n0)
        assert global_generation_search(free_module(p1, [-1]),
                                        ceiling=3, trunc=T2).n0 == 1


def test_criterion_6_tor_amplitude_and_bundles():
    with criterion(6, "Tor-amplitude and bundles"):
        p1, p2 = corpus.p1(), corpus.p2()
        inputs = [
            ("p1:O+O(3)", free_module(p1, [0, 3])),
            ("p1:point", corpus.point_sheaf(p1)),
            ("p1:kernel-bundle", corpus.kernel_bundle_p1(p1)),
            ("p1:dbl-pushforward", corpus.double_point_pushforward(p1)),
            ("p2:skyscraper", corpus.skyscraper_p2(p2)),
            ("p2:cotangent", corpus.cotangent_p2(p2)),
        ]
        for name, m in inputs:
            bundle = is_vector_bundle(m, trunc=T2)
            amp = tor_amplitude(m, trunc=T2)
            if bundle.verdict is None or not amp.certified_in_window:
                continue  # only certified inputs enter the biconditional
            assert (bundle.verdict is True) == (amp.upper_bound == 0), name
            if amp.method == "fitting" and amp.upper_bound >= 1:
                res = resolve_perfect(m, trunc=T2)
                assert len(res.terms) <= amp.upper_bound + 1, name
                amps = [amp.upper_bound]
                for fb in res.fibres:
                    amps.append(tor_amplitude(fb, trunc=T2).upper_bound)
                for a, b in zip(amps, amps[1:]):
                    if a >= 1:
                        assert b <= a - 1, name


def test_criterion_7_k0_presentation():
    with criterion(7, "K0 presentation"):
        p1, p2 = corpus.p1(), corpus.p2()
        g1 = k0_group(p1, range(-3, 1), trunc=T2)
        assert g1.free_rank == 2 and g1.torsion == ()
        g2 = k0_group(p2, range(-4, 1), trunc=T2)
        assert g2.free_rank == 3 and g2.torsion == ()
        # resolution independence: >= 5 seeds on >= 5 perfect sheaves
        audit_corpus = [
            ("p1:point", corpus.point_sheaf(p1)),
            ("p1:dbl-pushforward", corpus.double_point_pushforward(p1)),
            ("p1:O+O(2)", free_module(p1, [0, 2])),
            ("p1:kernel-bundle", corpus.kernel_bundle_p1(p1)),
            ("p1:point(1)", corpus.point_sheaf(p1).twist(1)),
        ]
        for name, m in audit_corpus:
            rep = check_resolution_independence(m, trials=5, seed=23,
                                                trunc=T2)
            assert rep.agreed, (name, rep.detail)
        # cofibre additivity on >= 20 sequences
        rng = random.Random(77)
        count = 0
        failures = 0
        for f, g in _random_split_triples(rng, 18):
            rep = check_cofibre_additivity(f, g, trunc=T2, verified=True)
            count += 1
            failures += 0 if rep.agrees else 1
        f, g = corpus.euler_maps(p1)
        rep = check_cofibre_additivity(f, g, trunc=T2)
        count += 1
        failures += 0 if rep.agrees else 1
        f2, g2 = corpus.euler_maps(corpus.double_point())
        rep = check_cofibre_additivity(f2, g2, trunc=T2)
        count += 1
        failures += 0 if rep.agrees else 1
        assert count >= 20
        assert failures == 0


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "determinism"):
        scheme = tmp_path / "p1.scheme"
        scheme.write_text("ambient = 1\n")
        mod = tmp_path / "point.mod"
        mod.write_text("generator = g0 : h=0 : a=0\n"
                       "generator = g1 : h=1 : a=1\n"
                       "d = g1 -> g0 : x0\n")
        commands = [
            ["cohomology", "--scheme", str(scheme), "--sheaf", "O(-2)"],
            ["spectral-sequence", "--scheme", str(scheme), "--sheaf", "O"],
            ["resolve", "--scheme", str(scheme), "--module", str(mod),
             "--seed", "5"],
            ["k0-group", "--scheme", str(scheme), "--window=-3:0"],
            ["verify", "--scheme", str(scheme), "--seed", "9"],
        ]
        for k, argv in enumerate(commands):
            a = tmp_path / ("a%d.json" % k)
            b = tmp_path / ("b%d.json" % k)
            assert main(argv + ["--out", str(a)]) == 0
            assert main(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), argv
