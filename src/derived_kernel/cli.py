"""Command line interface: parse scheme/module files, dispatch, and
emit deterministic JSON reports.

Exit codes: 0 success, 2 input/grammar problems, 3 violated
preconditions, 4 exhausted ceilings or windows, 5 failed internal
assertions or checks.  All output is JSON with sorted keys;
byte-identical across runs with identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .cech import LaurentTruncation, build_cech_double_complex, \
    sections_homotopy, sheaf_cohomology
from .charts import module_depth_hint
from .dgmodules import DegreeWindow, cone, free_module
from .errors import (
    InputError,
    InternalCheckFailed,
    PreconditionError,
    SearchExhausted,
)
from .k_theory import (
    check_cofibre_additivity,
    check_resolution_independence,
    k0_class,
    k0_group,
    resolve_perfect,
    tor_amplitude,
)
from .presentations import presented_free, truncation_pi0
from .specfiles import parse_module, parse_scheme, parse_triple
from .strong import exact_iff_cofibre_check, is_short_exact, is_strong
from .twisting import (
    default_window,
    global_generation_search,
    twist_search,
)

_SHEAF_RE = re.compile(r"^O(\((-?\d+)\))?$")


def _load_scheme(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scheme(fh.read())


def _sheaf_twist(name):
    """k of the built-in sheaf named O or O(k)."""
    m = _SHEAF_RE.match(name)
    if not m:
        raise InputError("unknown sheaf name %r (use O or O(k))" % name)
    return int(m.group(2)) if m.group(2) else 0


def _load_module(args, dga):
    if args.module:
        with open(args.module, "r", encoding="utf-8") as fh:
            return parse_module(fh.read(), dga)
    if args.sheaf:
        return free_module(dga, [_sheaf_twist(args.sheaf)])
    raise InputError("provide --module PATH or --sheaf NAME")


def _window(args, m=None, dga=None):
    if args.window:
        try:
            lo, hi = args.window.split(":")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise InputError("--window expects LO:HI")
        if lo > hi:
            raise InputError("--window needs LO <= HI")
        if m is not None:
            h_lo, h_hi = m.homological_span()
        else:
            h_lo, h_hi = 0, (dga.r if dga else 0) + 1
        return DegreeWindow(lo, hi, h_lo - 1, h_hi + 1)
    if m is not None:
        return default_window(m)
    raise InputError("provide --window LO:HI")


def _trunc(args):
    return LaurentTruncation(args.laurent_T)


def _emit(args, payload):
    text = json.dumps(payload, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_cohomology(args):
    dga = _load_scheme(args.scheme)
    if args.sheaf:
        pres = presented_free(dga, [_sheaf_twist(args.sheaf)])
    else:
        m = _load_module(args, dga)
        pres = truncation_pi0(m, _window(args, m))
    out = sheaf_cohomology(pres, args.twist, _trunc(args))
    return {"cohomology": {str(p): v for p, v in sorted(out.table.items())},
            "stable": {str(p): v for p, v in sorted(out.stable.items())},
            "twist": args.twist}


def _cmd_sections(args):
    dga = _load_scheme(args.scheme)
    m = _load_module(args, dga)
    h_lo, h_hi = m.homological_span()
    i_range = range(h_lo - dga.base.n, h_hi + 1)
    sh = sections_homotopy(m, args.twist, i_range, _trunc(args))
    return {"homotopy": {str(i): v for i, v in sorted(sh.table.items())},
            "stable": {str(i): v for i, v in sorted(sh.stable.items())},
            "twist": args.twist}


def _cmd_spectral(args):
    dga = _load_scheme(args.scheme)
    m = _load_module(args, dga)
    ss = build_cech_double_complex(m, args.twist,
                                   _trunc(args)).spectral_sequence()
    pages = []
    for page in ss.pages:
        pages.append({
            "r": page.r,
            "cells": [{"p": p, "q": q, "dim": n}
                      for (p, q), n in sorted(page.cells.items())],
            "differentials": [
                {"from": [p, q], "to": list(tgt), "rank": rk}
                for (p, q), (tgt, rk) in sorted(page.differentials.items())],
        })
    degrees = ss.total.degrees() or [0]
    stable = args.laurent_T >= module_depth_hint(m, args.twist + dga.base.n)
    return {"pages": pages,
            "homotopy": {str(i): ss.total.homology(i).dim for i in degrees},
            "stable": {str(i): stable for i in degrees},
            "stabilized_at": ss.stabilized_at()}


def _cmd_twist_search(args):
    dga = _load_scheme(args.scheme)
    m = _load_module(args, dga)
    rep = twist_search(m, args.index, args.ceiling, _trunc(args))
    return {"i": rep.i, "n0": rep.n0, "ceiling": rep.ceiling,
            "rows": [{"n": r.n, "lhs_dim": r.lhs_dim, "rhs_dim": r.rhs_dim,
                      "iso": r.iso, "stable": r.stable}
                     for r in rep.rows]}


def _cmd_global_gen(args):
    dga = _load_scheme(args.scheme)
    m = _load_module(args, dga)
    rep = global_generation_search(m, args.ceiling, _trunc(args))
    return {"n0": rep.n0, "sections": rep.sections}


def _cmd_strong_check(args):
    dga = _load_scheme(args.scheme)
    m = _load_module(args, dga)
    rep = is_strong(m, _window(args, m), _trunc(args))
    return {"verdict": rep.verdict,
            "witness": list(rep.witness) if rep.witness else None,
            "checked_slices": rep.checked}


def _cmd_exact_check(args):
    dga = _load_scheme(args.scheme)
    if not args.module:
        raise InputError("exact-check needs --module TRIPLE_FILE")
    with open(args.module, "r", encoding="utf-8") as fh:
        f, g = parse_triple(fh.read(), dga)
    if args.window:
        w = _window(args, f.target)
    else:
        wins = [default_window(x) for x in (f.source, f.target, g.target)]
        w = DegreeWindow(min(x.internal_lo for x in wins),
                         max(x.internal_hi for x in wins),
                         min(x.homological_lo for x in wins),
                         max(x.homological_hi for x in wins))
    se = is_short_exact(f, g, w, _trunc(args))
    cmp = exact_iff_cofibre_check(f, g, w, _trunc(args), se)
    return {"short_exact": se.verdict,
            "nullhomotopy_found": se.nullhomotopy is not None,
            "failures": [list(x) for x in se.failures],
            "cofibre_equivalence": cmp.equivalence,
            "agrees": cmp.agrees}


def _cmd_tor_amplitude(args):
    dga = _load_scheme(args.scheme)
    m = _load_module(args, dga)
    rep = tor_amplitude(m, trunc=_trunc(args))
    return {"upper_bound": rep.upper_bound, "method": rep.method,
            "certified_in_window": rep.certified_in_window,
            "betti_bound": rep.betti_bound}


def _cmd_resolve(args):
    dga = _load_scheme(args.scheme)
    m = _load_module(args, dga)
    res = resolve_perfect(m, seed=args.seed, trunc=_trunc(args))
    return {"resolution": {"terms": [sorted(t, reverse=True)
                                     for t in res.terms],
                           "steps": res.steps}}


def _cmd_k0_class(args):
    dga = _load_scheme(args.scheme)
    m = _load_module(args, dga)
    cls = k0_class(m, seed=args.seed, trunc=_trunc(args))
    if cls.coeffs:
        basis = list(range(cls.j_min, cls.j_max + 1))
    else:
        basis = []
    return {"class": {"basis": basis,
                      "coeffs": [cls.coeffs.get(j, 0) for j in basis]}}


def _cmd_k0_group(args):
    dga = _load_scheme(args.scheme)
    if not args.window:
        raise InputError("k0-group needs --window LO:HI for the twists")
    w = _window(args, dga=dga)
    g = k0_group(dga, w.internal_range(), trunc=_trunc(args))
    return {"group": {"free_rank": g.free_rank,
                      "torsion": list(g.torsion),
                      "generators": list(g.twists),
                      "relations": [{"row": list(row), "provenance": prov}
                                    for row, prov in g.relations]}}


def _cmd_verify(args):
    dga = _load_scheme(args.scheme)
    trunc = _trunc(args)
    if dga.base.n < 1:
        raise PreconditionError("verify audits need ambient dimension >= 1")
    from .dgmodules import ModuleMap, inclusion_map, projection_map
    x0 = {(1,) + (0,) * dga.base.n: 1}
    pt = cone(ModuleMap(free_module(dga, [-1]), free_module(dga, [0]),
                        {(0, 0): x0}))
    audits = {}
    rep = check_resolution_independence(pt, trials=args.trials,
                                        seed=args.seed or 1, trunc=trunc)
    audits["independence_point_sheaf"] = rep.agreed
    mods = [free_module(dga, [1]), free_module(dga, [-1])]
    add = check_cofibre_additivity(inclusion_map(0, mods),
                                   projection_map(1, mods), trunc=trunc)
    audits["additivity_split"] = add.agrees
    ok = all(audits.values())
    return {"verify": audits, "passed": ok}


_COMMANDS = {
    "cohomology": _cmd_cohomology,
    "sections": _cmd_sections,
    "spectral-sequence": _cmd_spectral,
    "twist-search": _cmd_twist_search,
    "global-gen": _cmd_global_gen,
    "strong-check": _cmd_strong_check,
    "exact-check": _cmd_exact_check,
    "tor-amplitude": _cmd_tor_amplitude,
    "resolve": _cmd_resolve,
    "k0-class": _cmd_k0_class,
    "k0-group": _cmd_k0_group,
    "verify": _cmd_verify,
}


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of `main` reuses it."""
    parser = argparse.ArgumentParser(
        prog="derived-kernel",
        description="Exact computations on derived zero loci in "
                    "projective space: Cech cohomology, descent spectral "
                    "sequences, twisting bounds, and K0 presentations.",
        epilog="Input files are flat 'key = value' text; all reports are "
               "JSON with deterministic key order.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_COMMANDS):
        p = sub.add_parser(name)
        p.add_argument("--scheme", required=True,
                       help="scheme description file")
        p.add_argument("--module", help="module (or triple) file")
        p.add_argument("--sheaf", help="built-in sheaf: O or O(k)")
        p.add_argument("--twist", type=int, default=0)
        p.add_argument("--window", help="internal degree window LO:HI")
        p.add_argument("--laurent-T", dest="laurent_T", type=int, default=2,
                       help="Laurent truncation depth (default 2)")
        p.add_argument("--ceiling", type=int, default=None,
                       help="search ceiling (default derived from the "
                            "module)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized audits (default 0)")
        p.add_argument("--trials", type=int, default=2,
                       help="trials for the verify audits")
        p.add_argument("--index", "--i", dest="index", type=int, default=0,
                       help="homotopy index for twist-search")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--json", action="store_true",
                       help="accepted for compatibility; output is "
                            "always JSON")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload = _COMMANDS[args.command](args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3
    except SearchExhausted as exc:
        msg = str(exc)
        if exc.suggestion:
            msg += " (%s)" % exc.suggestion
        print("search exhausted: %s" % msg, file=sys.stderr)
        return 4
    except (AssertionError, InternalCheckFailed) as exc:
        print("internal assertion failed: %s" % exc, file=sys.stderr)
        return 5
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
