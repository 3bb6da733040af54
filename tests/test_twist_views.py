"""Twists as degree-offset views, the caches they share, and the checks
built on them: the ambient Koszul complex built once per dga, the cached
map homology matrices of the (T, T+1) ladder, and result checks that
survive `python -O`."""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import derived_kernel
from derived_kernel import k_theory
from derived_kernel.cech import LaurentTruncation
from derived_kernel.dgmodules import (
    DgModule,
    ModuleMap,
    chart_bounds,
    cone_inclusion,
    fibre_projection,
    global_bounds,
)

import corpus

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
T = LaurentTruncation(2)
CORPUS = corpus.spectral_corpus()
twists = st.integers(-3, 3)


def _cold(m, n=0):
    """A freshly built M(n): same differential, empty caches."""
    return DgModule(m.dga, [(h, a - n) for h, a in m.gens], m.diff,
                    check=False)


def _bounds(dga):
    n = dga.base.nvars
    return [global_bounds(dga), chart_bounds(dga, (0,), 1),
            chart_bounds(dga, range(n), 1)]


def _store(mat):
    return (mat.rows, mat.cols, mat.ptr, mat.row_idx, mat.vals)


def _assert_same_slices(view, fresh):
    h_lo, h_hi = fresh.homological_span()
    for bounds in _bounds(fresh.dga):
        for h in range(h_lo, h_hi + 1):
            for d in range(-2, 3):
                assert view.slice_basis(h, d, bounds) \
                    == fresh.slice_basis(h, d, bounds)
                assert _store(view.slice_matrix(h, d, bounds)) \
                    == _store(fresh.slice_matrix(h, d, bounds))
                a, b = view.homology(h, d, bounds), fresh.homology(h, d, bounds)
                assert (a.labels, a.dim, a.reps) == (b.labels, b.dim, b.reps)


@SETTINGS
@given(st.integers(0, len(CORPUS) - 1), twists, twists, st.booleans())
def test_twist_view_matches_fresh_module(k, a, b, warm_root):
    _, m = CORPUS[k]
    root = _cold(m)
    if warm_root:   # the view must also read what the root cached
        _assert_same_slices(root, _cold(m))
    view = root.twist(a).twist(b)
    assert view.gens == _cold(m, a + b).gens
    _assert_same_slices(view, _cold(m, a + b))


@SETTINGS
@given(st.integers(0, len(CORPUS) - 1), twists, twists)
def test_twists_compose_and_share_one_root(k, a, b):
    _, m = CORPUS[k]
    root = _cold(m)
    ab, direct = root.twist(a).twist(b), root.twist(a + b)
    assert ab._root is direct._root is root
    assert ab._offset == direct._offset == a + b
    for cache in ("_slice_cache", "_matrix_cache", "_homology_cache",
                  "_stencils"):
        assert getattr(ab, cache) is getattr(root, cache)
    assert root.twist(0) is root and ab.twist(0) is ab
    assert root.twist(a).twist(-a) is root
    # a twist fills the root's cache under the root's degrees
    h = root.homological_span()[0]
    got = ab.slice_basis(h, 0)
    assert root._slice_cache[(h, a + b, global_bounds(root.dga))] is got


def _maps():
    p1, dbl = corpus.p1(), corpus.double_point()
    f, g = corpus.euler_maps(p1)
    fd, gd = corpus.euler_maps(dbl)
    return [f, g, fd, gd, cone_inclusion(f), fibre_projection(g),
            cone_inclusion(gd)]


MAPS = _maps()


@SETTINGS
@given(st.integers(0, len(MAPS) - 1), st.integers(-1, 2), st.integers(-1, 3),
       st.integers(0, 2), st.booleans())
def test_cached_homology_matrix_matches_recomputation(k, h, d, which,
                                                       twice):
    f = MAPS[k]
    bounds = _bounds(f.dga)[which]
    got = f.homology_matrix(h, d, bounds)
    if twice:
        assert f.homology_matrix(h, d, bounds) is got
    cold = ModuleMap(_cold(f.source), _cold(f.target), f.entries,
                     check=False)
    assert _store(got) == _store(cold.homology_matrix(h, d, bounds))


def test_ambient_koszul_is_built_once_per_dga(monkeypatch):
    built = []
    real = k_theory.koszul_module

    def counting(dga, polys):
        built.append(dga)
        return real(dga, polys)

    monkeypatch.setattr(k_theory, "koszul_module", counting)
    p1 = corpus.p1()
    g = k_theory.k0_group(p1, range(-3, 1), trunc=T)
    assert sum(p == "koszul_ambient" for _, p in g.relations) == 2
    k_theory.k0_group(p1, range(-4, 1), trunc=T)    # a second build
    assert built == [p1]
    # another dga gets its own complex, and the same presentation
    assert k_theory.k0_group(corpus.p1(), range(-3, 1), trunc=T) == g
    assert len(built) == 2 and built[1] is not p1


KOSZUL_CHECK_UNDER_O = """
import sys
from derived_kernel import cli, k_theory
from derived_kernel.dga import make_koszul_dga
from derived_kernel.errors import InternalCheckFailed
print("debug:", __debug__)
k_theory.chart_homology_vanishes = lambda *a, **k: (False, (0, 0, 0), ())
try:
    k_theory.k0_group(make_koszul_dga(1, []), range(-3, 1))
except InternalCheckFailed as exc:
    print("raised:", exc)
print("exit:", cli.main(["k0-group", "--scheme", sys.argv[1],
                         "--window=-3:0"]))
"""


def test_koszul_check_survives_python_O(tmp_path):
    scheme = tmp_path / "p1.scheme"
    scheme.write_text("ambient = 1\n")
    src = str(Path(derived_kernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", KOSZUL_CHECK_UNDER_O, str(scheme)],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "debug: False",
        "raised: ambient Koszul complex failed chart-acyclicity at twist -1",
        "exit: 5"]
    assert "chart-acyclicity" in out.stderr
