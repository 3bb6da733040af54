"""Inputs and job lists of the three workloads.

`build(workload, seed, workdir)` writes the scheme, module and triple
files of one workload into `workdir` and returns its fixed job list.
A job is the argument list of one `derived-kernel` command plus the
name and parameters of the check its report must pass.  The same seed
gives the same files and the same jobs.  Seeded parts are drawn so that
the amount of work varies little from seed to seed: twists come from
small fixed ranges and every seeded input has a fixed number of
generators.
"""

import os
import random

from oracle import SECTIONS_OF_O

SCHEMES = {
    "p1": (1, "ambient = 1\ndescription = the projective line\n"),
    "p2": (2, "ambient = 2\ndescription = the projective plane\n"),
    "dbl": (1, "ambient = 1\ndescription = derived double point\n"
               "section = x0 : 1\nsection = x0 : 1\n"),
    "pt": (1, "ambient = 1\ndescription = classical point V(x0)\n"
              "section = x0 : 1\n"),
    "dline": (2, "ambient = 2\ndescription = derived line V(x0, x0^2)\n"
                 "section = x0 : 1\nsection = x0^2 : 2\n"),
    "three": (2, "ambient = 2\ndescription = three sections\n"
                 "section = x0 : 1\nsection = x0^2 + x1*x2 : 2\n"
                 "section = x0 : 1\n"),
}

# Generators (h, a) and differential entries (src, dst, poly) of the
# fixed modules.  Generator k is named g<k>.
MODULES = {
    # cone(x0: O(-1) -> O) on P^1: the structure sheaf of a point
    "point": ([(0, 0), (1, 1)], [(1, 0, "x0")]),
    # Koszul complex of (x0, x1) on P^2: the skyscraper at [0:0:1]
    "sky": ([(0, 0), (1, 1), (1, 1), (2, 2)],
            [(1, 0, "x0"), (2, 0, "x1"), (3, 1, "-1*x1"), (3, 2, "x0")]),
    # Koszul complex of (x0, x0) on P^1: the double point pushed forward
    "dblpush": ([(0, 0), (1, 1), (1, 1), (2, 2)],
                [(1, 0, "x0"), (2, 0, "x0"), (3, 1, "-1*x0"),
                 (3, 2, "x0")]),
    # fibre((x0, x1): O(-1)^2 -> O) on P^1, quasi-isomorphic to O(-2)
    "kernel": ([(-1, 0), (0, 1), (0, 1)], [(1, 0, "x0"), (2, 0, "x1")]),
}

EULER_TRIPLE = """\
[module F]
generator = f0 : h=0 : a=2
[module G]
generator = g0 : h=0 : a=1
generator = g1 : h=0 : a=1
[module H]
generator = h0 : h=0 : a=0
[map f]
source = F
target = G
entry = f0 -> g0 : x1
entry = f0 -> g1 : -1*x0
[map g]
source = G
target = H
entry = g0 -> h0 : x0
entry = g1 -> h0 : x1
"""

# The Euler triple with a zero second map: never exact.
BROKEN_TRIPLE = EULER_TRIPLE.split("entry = g0 -> h0")[0]


def module_text(gens, diffs=()):
    lines = ["generator = g%d : h=%d : a=%d" % (k, h, a)
             for k, (h, a) in enumerate(gens)]
    lines += ["d = g%d -> g%d : %s" % d for d in diffs]
    return "\n".join(lines) + "\n"


def twist_sum_gens(twists):
    """Generators of sum O(k): h = 0, a = -k."""
    return [(0, -k) for k in twists]


def split_triple_text(t1, t2):
    """F = sum O(t1) -> G = F + H -> H = sum O(t2), inclusion and
    projection."""
    parts = ["[module F]"]
    parts += ["generator = f%d : h=0 : a=%d" % (k, -t) for k, t in
              enumerate(t1)]
    parts.append("[module G]")
    parts += ["generator = g%d : h=0 : a=%d" % (k, -t) for k, t in
              enumerate(t1 + t2)]
    parts.append("[module H]")
    parts += ["generator = h%d : h=0 : a=%d" % (k, -t) for k, t in
              enumerate(t2)]
    parts += ["[map f]", "source = F", "target = G"]
    parts += ["entry = f%d -> g%d : 1" % (k, k) for k in range(len(t1))]
    parts += ["[map g]", "source = G", "target = H"]
    parts += ["entry = g%d -> h%d : 1" % (len(t1) + k, k)
              for k in range(len(t2))]
    return "\n".join(parts) + "\n"


class _Builder:
    def __init__(self, workdir):
        self.workdir = workdir
        self.jobs = []

    def file(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def scheme(self, name):
        return self.file(name + ".scheme", SCHEMES[name][1])

    def fixed_module(self, name):
        gens, diffs = MODULES[name]
        return self.file(name + ".mod", module_text(gens, diffs))

    def job(self, name, argv, kind, **params):
        self.jobs.append({"name": name, "argv": argv, "kind": kind,
                          "params": params})


def _k0(b, rng):
    for name, window in (("p1", (-3, 0)), ("p2", (-4, 0)),
                         ("dbl", (-3, 0)), ("pt", (-3, 0))):
        b.job("k0-group:" + name,
              ["k0-group", "--scheme", b.scheme(name),
               "--window=%d:%d" % window],
              "k0_group", n=SCHEMES[name][0], lo=window[0], hi=window[1],
              point=name in ("dbl", "pt"))
    sums = []
    for count in (2, 3):
        twists = [rng.randint(-2, 2) for _ in range(count)]
        gens = twist_sum_gens(twists)
        path = b.file("sum%d.mod" % count, module_text(gens))
        sums.append(("sum%d" % count, "p1", path, gens, 0))
    inputs = [("point", "p1", b.fixed_module("point"), MODULES["point"][0],
               1),
              ("sky", "p2", b.fixed_module("sky"), MODULES["sky"][0], 2)]
    for label, scheme, path, gens, amp in inputs + sums:
        n = SCHEMES[scheme][0]
        base = ["--scheme", b.scheme(scheme), "--module", path]
        b.job("k0-class:" + label,
              ["k0-class"] + base + ["--seed", str(rng.randint(1, 999))],
              "k0_class", n=n, gens=gens)
        b.job("resolve:" + label,
              ["resolve"] + base + ["--seed", str(rng.randint(1, 999))],
              "resolve", n=n, gens=gens, amplitude=amp)
        b.job("tor-amplitude:" + label, ["tor-amplitude"] + base,
              "tor_amplitude", amplitude=amp)
    b.job("verify:p1", ["verify", "--scheme", b.scheme("p1"), "--seed",
                        str(rng.randint(1, 999))], "verify")


def _descent(b, rng):
    # P^1 bundles are cheap at every twist; on P^2 the cost grows fast
    # with k and T = |k| + 1, so k comes from twists of similar cost
    for scheme, choices in (("p1", range(-6, 7)), ("p2", (-4, -3, -2, -1, 1))):
        k = rng.choice(choices)
        base = ["--scheme", b.scheme(scheme), "--sheaf", "O(%d)" % k,
                "--laurent-T", str(abs(k) + 1)]
        n = SCHEMES[scheme][0]
        b.job("spectral-sequence:%s:O(%d)" % (scheme, k),
              ["spectral-sequence"] + base, "spectral", n=n, twists=[k])
        b.job("sections:%s:O(%d)" % (scheme, k), ["sections"] + base,
              "sections", n=n, twists=[k])
    # (label, scheme, module or None for O, E_2 cells, extra args)
    fixed = [
        ("point", "p1", "point", {(0, 0): 1}, []),
        ("sky", "p2", "sky", {(0, 0): 1}, []),
        ("dbl", "dbl", None, {(0, 0): 1, (0, 1): 1}, []),
        ("dline", "dline", None, {(0, 0): 1, (1, 1): 1}, []),
        ("three", "three", None, {(0, 0): 2, (0, 1): 2},
         ["--laurent-T", "3"]),
    ]
    for label, scheme, mod, e2, extra in fixed:
        src = (["--module", b.fixed_module(mod)] if mod
               else ["--sheaf", "O"])
        base = ["--scheme", b.scheme(scheme)] + src + extra
        want = SECTIONS_OF_O[label]
        n = SCHEMES[scheme][0]
        b.job("spectral-sequence:" + label, ["spectral-sequence"] + base,
              "spectral", n=n, homotopy=want, e2=e2)
        b.job("sections:" + label, ["sections"] + base, "sections", n=n,
              homotopy=want)


def _verdicts(b, rng):
    # split triples as in acceptance criterion 3, on its fixed window;
    # positive twists cost more, so the costly triple on the double point
    # shuffles a fixed set of twists
    triples = []
    for first_size in (1, 2):
        twists = [rng.randint(-2, 2) for _ in range(3)]
        triples.append(("p1", twists[:first_size], twists[first_size:]))
    twists = rng.sample([-2, 0, 2], 3)
    triples.append(("dbl", twists[:1], twists[1:]))
    for scheme, t1, t2 in triples:
        name = "split-%s-%d" % (scheme, len(t1))
        path = b.file(name + ".triple", split_triple_text(t1, t2))
        b.job("exact-check:" + name,
              ["exact-check", "--scheme", b.scheme(scheme), "--module",
               path, "--window=-2:4"], "exact", exact=True)
    euler = b.file("euler.triple", EULER_TRIPLE)
    for scheme in ("p1", "dbl"):
        b.job("exact-check:euler-" + scheme,
              ["exact-check", "--scheme", b.scheme(scheme), "--module",
               euler, "--window=-2:4"], "exact", exact=True)
    broken = b.file("broken.triple", BROKEN_TRIPLE)
    b.job("exact-check:broken-p1",
          ["exact-check", "--scheme", b.scheme("p1"), "--module", broken,
           "--window=-2:4"], "exact", exact=False)
    # the criterion-4 corpus: (label, scheme, gens, diffs, twist-sum form)
    corpus = [
        ("O", "p1", [(0, 0)], [], ([0], [0])),
        ("O(2)", "p1", [(0, -2)], [], ([2], [0])),
        ("O+O(-2)[1]", "p1", [(0, 0), (1, 2)], [], ([0, -2], [0, 1])),
        ("point", "p1") + MODULES["point"] + (None,),
        ("kernel", "p1") + MODULES["kernel"] + (([-2], [0]),),
        ("dblpush", "p1") + MODULES["dblpush"] + (None,),
        ("dbl:O", "dbl", [(0, 0)], [], None),
        ("dbl:O(1)+O(-1)", "dbl", [(0, -1), (0, 1)], [], None),
    ]
    for k, (label, scheme, gens, diffs, as_sum) in enumerate(corpus):
        path = b.file("twist%d.mod" % k, module_text(gens, diffs))
        h_lo = min(h for h, _ in gens)
        h_hi = max(h for h, _ in gens)
        for i in range(min(h_lo, -1), h_hi + 1):
            params = {"i": i, "ceiling": 3}
            if as_sum:
                params.update(n=SCHEMES[scheme][0], twists=as_sum[0],
                              shifts=as_sum[1])
            b.job("twist-search:%s:%d" % (label, i),
                  ["twist-search", "--scheme", b.scheme(scheme), "--module",
                   path, "--index", str(i), "--ceiling", "3"],
                  "twist_search", **params)
    # global generation of a sum needing a twist and of one that needs
    # none, each from pairs of similar cost (the cost grows with the
    # spread of the twists and with n0)
    pairs = (rng.choice([(-2, -1), (-1, 0)]),
             rng.choice([(0, 2), (1, 2), (2, 2)]))
    for k, pair in enumerate(pairs):
        twists = rng.sample(pair, 2)
        path = b.file("gg%d.mod" % k, module_text(twist_sum_gens(twists)))
        b.job("global-gen:%d" % k,
              ["global-gen", "--scheme", b.scheme("p1"), "--module", path,
               "--ceiling", "4"], "global_gen", n=1, twists=twists)
    strong = [("point", "p1", "strong"), ("sky", "p2", "strong")]
    for mod, scheme, verdict in strong:
        b.job("strong-check:" + mod,
              ["strong-check", "--scheme", b.scheme(scheme), "--module",
               b.fixed_module(mod)], "strong", verdict=verdict)
    b.job("strong-check:dbl:O", ["strong-check", "--scheme", b.scheme("dbl"),
                                 "--sheaf", "O"], "strong", verdict="strong")
    b.job("strong-check:O+O(-2)[1]",
          ["strong-check", "--scheme", b.scheme("p1"), "--module",
           b.file("shifted.mod", module_text([(0, 0), (1, 2)]))],
          "strong", verdict="not_strong")


WORKLOADS = {"k0": _k0, "descent": _descent, "verdicts": _verdicts}


def build(workload, seed, workdir):
    """Write the inputs of `workload` for `seed` into `workdir` and
    return its job list."""
    rng = random.Random("%s:%d" % (workload, seed))
    b = _Builder(workdir)
    WORKLOADS[workload](b, rng)
    names = [j["name"] for j in b.jobs]
    if len(set(names)) != len(names):
        raise ValueError("job names of %s are not unique" % workload)
    return b.jobs
