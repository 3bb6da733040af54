"""Flat text input files: scheme descriptions, modules, and triples.

One `key = value` statement per line; `#` starts a comment; blank lines
are ignored.  Module collections use `[module NAME]` / `[map NAME]`
section headers.  Example scheme file:

    ambient = 1
    description = derived double point
    section = x0 : 1
    section = x0 : 1

Example module file (the structure sheaf of V(x0)):

    generator = g0 : h=0 : a=0
    generator = g1 : h=1 : a=1
    d = g1 -> g0 : x0

Maps inside triple files list entries `entry = SRC -> DST : POLY` with
SRC a source generator name and DST a target generator name.
"""

from __future__ import annotations

from .dga import make_koszul_dga
from .dgmodules import DgModule, ModuleMap
from .errors import InputError, InternalCheckFailed
from .grammar import parse_polynomial


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _split_kv(line, lineno):
    if "=" not in line:
        raise InputError("line %d: expected 'key = value'" % lineno)
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def _int(text, lineno, what):
    try:
        return int(text)
    except ValueError:
        raise InputError("line %d: %s must be an integer" % (lineno, what))


def _arrow(value, lineno, usage):
    """(FROM, TO, POLY) of a 'FROM -> TO : POLY' value; `usage` names
    the statement and its form for the error message."""
    arrow, colon, poly_text = value.partition(":")
    src, to, dst = arrow.partition("->")
    if not (colon and to):
        raise InputError("line %d: %s" % (lineno, usage))
    return src.strip(), dst.strip(), poly_text.strip()


def parse_scheme(text):
    """KoszulDga from a scheme description file."""
    ambient = None
    sections = []
    description = ""
    pending = []
    for lineno, line in _lines(text):
        key, value = _split_kv(line, lineno)
        if key == "ambient":
            ambient = _int(value, lineno, "ambient")
            if ambient < 0:
                raise InputError("line %d: ambient must be >= 0" % lineno)
        elif key == "description":
            description = value
        elif key == "section":
            if ":" not in value:
                raise InputError("line %d: section needs 'POLY : DEGREE'"
                                 % lineno)
            poly_text, deg_text = value.rsplit(":", 1)
            deg = _int(deg_text, lineno, "section degree")
            pending.append((lineno, poly_text.strip(), deg))
        else:
            raise InputError("line %d: unknown key %r" % (lineno, key))
    if ambient is None:
        raise InputError("scheme file must set 'ambient'")
    probe = make_koszul_dga(ambient, [])
    for lineno, poly_text, deg in pending:
        poly = parse_polynomial(poly_text, probe, require_internal=deg,
                                require_hom=0)
        sections.append(({exps: c for (exps, _), c in poly.terms.items()},
                         deg))
    dga = make_koszul_dga(ambient, sections)
    dga.description = description
    return dga


def _parse_module_lines(entries, dga, label=""):
    gens = []
    names = {}
    diffs = []
    shift = 0
    twist = 0
    for lineno, key, value in entries:
        if key == "generator":
            parts = [p.strip() for p in value.split(":")]
            if len(parts) != 3:
                raise InputError("line %d: generator needs "
                                 "'NAME : h=H : a=A'" % lineno)
            name = parts[0]
            fields = {}
            for part in parts[1:]:
                if "=" not in part:
                    raise InputError("line %d: expected h=... / a=..."
                                     % lineno)
                k, v = part.split("=", 1)
                fields[k.strip()] = _int(v, lineno, "degree")
            if set(fields) != {"h", "a"}:
                raise InputError("line %d: generator needs both h and a"
                                 % lineno)
            if name in names:
                raise InputError("line %d: duplicate generator %r"
                                 % (lineno, name))
            names[name] = len(gens)
            gens.append((fields["h"], fields["a"]))
        elif key == "d":
            diffs.append((lineno,) + _arrow(
                value, lineno, "differential needs 'FROM -> TO : POLY'"))
        elif key == "shift":
            shift = _int(value, lineno, "shift")
        elif key == "twist":
            twist = _int(value, lineno, "twist")
        else:
            raise InputError("line %d: unknown key %r in module %s"
                             % (lineno, key, label or "file"))
    if not gens:
        raise InputError("module %s: no generators" % (label or "file"))
    diff = {}
    for lineno, src, dst, poly_text in diffs:
        if src not in names:
            raise InputError("line %d: unknown generator %r"
                             % (lineno, src))
        if dst not in names:
            raise InputError("line %d: unknown generator %r"
                             % (lineno, dst))
        j, i = names[src], names[dst]
        hj, aj = gens[j]
        hi, ai = gens[i]
        poly = parse_polynomial(poly_text, dga,
                                require_hom=hj - 1 - hi,
                                require_internal=aj - ai)
        diff[(i, j)] = poly
    try:
        m = DgModule(dga, gens, diff)
    except InternalCheckFailed as exc:
        raise InputError("module %s: %s" % (label or "file", exc))
    if shift:
        m = m.shift(shift)
    if twist:
        m = m.twist(twist)
    m.generator_names = tuple(
        sorted(names, key=lambda n: names[n]))
    return m, names


def parse_module(text, dga):
    entries = []
    for lineno, line in _lines(text):
        if line.startswith("["):
            raise InputError("line %d: plain module files take no "
                             "section headers" % lineno)
        key, value = _split_kv(line, lineno)
        entries.append((lineno, key, value))
    m, _ = _parse_module_lines(entries, dga)
    return m


def parse_triple(text, dga):
    """Three modules F, G, H and maps f: F -> G, g: G -> H from a
    sectioned file; returns (f, g)."""
    sections = {}
    order = []
    current = None
    for lineno, line in _lines(text):
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise InputError("line %d: duplicate section %r"
                                 % (lineno, current))
            sections[current] = []
            order.append(current)
            continue
        if current is None:
            raise InputError("line %d: triple files start with a "
                             "[module ...] header" % lineno)
        key, value = _split_kv(line, lineno)
        sections[current].append((lineno, key, value))
    mods = {}
    name_maps = {}
    for label in order:
        if label.startswith("module "):
            name = label.split(None, 1)[1]
            mods[name], name_maps[name] = _parse_module_lines(
                sections[label], dga, label=name)
    needed = [label for label in order if label.startswith("map ")]
    if len(needed) != 2:
        raise InputError("triple files need exactly two [map ...] sections")
    maps = []
    for label in needed:
        decl = dict((k, (ln, v)) for ln, k, v in sections[label]
                    if k in ("source", "target"))
        if "source" not in decl or "target" not in decl:
            raise InputError("map %r needs source and target" % label)
        sname, tname = decl["source"][1], decl["target"][1]
        if sname not in mods or tname not in mods:
            raise InputError("map %r references unknown modules" % label)
        src, tgt = mods[sname], mods[tname]
        sidx, tidx = name_maps[sname], name_maps[tname]
        entries = {}
        for lineno, key, value in sections[label]:
            if key in ("source", "target"):
                continue
            if key != "entry":
                raise InputError("line %d: unknown key %r in %s"
                                 % (lineno, key, label))
            s, t, poly_text = _arrow(value, lineno,
                                     "entry needs 'SRC -> DST : POLY'")
            if s not in sidx or t not in tidx:
                raise InputError("line %d: unknown generator in entry"
                                 % lineno)
            j, i = sidx[s], tidx[t]
            hj, aj = src.gens[j]
            hi, ai = tgt.gens[i]
            poly = parse_polynomial(poly_text, dga,
                                    require_hom=hj - hi,
                                    require_internal=aj - ai)
            entries[(i, j)] = poly
        try:
            maps.append(ModuleMap(src, tgt, entries))
        except InternalCheckFailed as exc:
            raise InputError("%s: %s" % (label, exc))
    f, g = maps
    if f.target is not g.source:
        raise InputError("the two maps must compose: target of the first "
                         "is not the source of the second")
    return f, g
