"""Calibration loop that tracks the speed of the machine.

The CPU speed this benchmark sees drifts by 15-25% over minutes (see
README.md, "Drift"), far more than the changes the benchmark should
detect.  `calibrate()` times a fixed piece of work of the same kind as
the program's: exact elimination over `fractions.Fraction` on sparse
dict rows.  It shares no code with the program, so a change to the
program cannot change its time.  The benchmark calibrates right before
and right after each stretch of about a second of timed work and reports
a wall time t of that stretch as t * REFERENCE_S / c, with c the mean of
the two calibrations: "reference seconds", equal to wall seconds on a
machine on which one calibration takes REFERENCE_S.  Calibrating next to
the work matters: the speed changes within seconds, and a calibration
taken minutes away tracks it far worse.
"""

import random
import time
from fractions import Fraction

REFERENCE_S = 0.2
ROUNDS = 12
SIZE = 24


def _eliminate(rows):
    pivots = 0
    for col in range(SIZE):
        cand = [r for r in rows if col in r]
        if not cand:
            continue
        p = cand[0]
        rows.remove(p)
        inv = 1 / p[col]
        p = {k: v * inv for k, v in p.items()}
        for r in rows:
            f = r.get(col)
            if f:
                for k, v in p.items():
                    x = r.get(k, 0) - f * v
                    if x:
                        r[k] = x
                    else:
                        r.pop(k, None)
        pivots += 1
    return pivots


def _matrix():
    rng = random.Random(7)
    rows = []
    for _ in range(SIZE):
        row = {c: Fraction(rng.randint(-3, 3)) for c in range(SIZE)
               if rng.random() < 0.5}
        rows.append({c: x for c, x in row.items() if x})
    return rows


def calibrate():
    """Seconds taken by ROUNDS eliminations of a fixed 24 x 24 matrix."""
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        _eliminate(_matrix())
    return time.perf_counter() - t0


def factor(c_before, c_after):
    """Wall seconds -> reference seconds, for work done between two
    calibrations."""
    return REFERENCE_S * 2.0 / (c_before + c_after)
