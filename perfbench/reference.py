"""A fixed reference computation that measures the machine's current speed.

The benchmark shares its cores with other programs, which slow the CPU by
up to about 1.8x for seconds to minutes at a time, in CPU time and wall time
alike.  No choice of timer removes that.  So the queries of a pass are timed
between runs of :func:`kernel`, a fixed computation of the same kind as
``cfk``'s (GF(2) elimination on big-int bitmasks with rows kept sorted by
pivot, ``Fraction`` levels and a sort), written here and sharing no code
with ``cfk``.  A query's time is scaled by ``NOMINAL_S`` over the mean of the
two kernel times around it: the seconds the query would take at the speed
the kernel has on a quiet core.  A change to ``cfk`` moves the query but not
the kernel, so it shows in full.

On a busy stretch of the machine, scaling by the kernel run after each
query cut the spread of pass times of ``stable-pairs`` (coefficient of
variation over 44 passes of 25 queries) from 0.086 to 0.026; a kernel a
quarter the size reached 0.043, and one walking a large list 0.084.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# About the least time of kernel() seen over many runs on a 2.1 GHz x86-64
# core (CPython 3.11): the speed every scaled time refers to.
NOMINAL_S = 0.0070

# Queries are grouped into segments of at least this many measured seconds
# between two kernel runs, which keeps the kernel's share of a pass of short
# queries small.
SEGMENT_S = 0.05

_rng = random.Random(20170621)
_ROWS = tuple(_rng.getrandbits(600) for _ in range(260))
_POINTS = tuple((_rng.randrange(-300, 300), _rng.randrange(-300, 300)) for _ in range(400))
_T = Fraction(3, 7)


def kernel() -> int:
    """The fixed computation; returns a checksum so nothing is skipped."""
    echelon: list[tuple[int, int]] = []
    for vec in _ROWS:
        for pivot, row in echelon:
            if vec & pivot:
                vec ^= row
        if vec:
            pivot = vec & -vec
            lo = 0
            while lo < len(echelon) and echelon[lo][0] < pivot:
                lo += 1
            echelon.insert(lo, (pivot, vec))
    half = _T / 2
    levels = sorted(half * x + (1 - half) * a for a, x in _POINTS)
    return len(echelon) + levels.index(levels[len(levels) // 2])


def kernel_seconds() -> float:
    """Wall seconds of one kernel() run."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal speed, from the kernel times around them."""
    return seconds * NOMINAL_S / ((before + after) / 2)
