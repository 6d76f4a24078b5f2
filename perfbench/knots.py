"""Torus-knot arithmetic of the benchmark's own, independent of ``cfk``.

Everything here is derived from the semigroup S = <p, q> of T(p, q) and
shares no code with the package it checks:

* the staircase of an L-space knot has a vertex (grading 0) at every
  m in S with m - 1 not in S, 0 <= m <= 2g, placed at
  (alg, alex) = (#(S ∩ [0, m)), #(S ∩ [0, m)) + g - m), and a corner
  (grading 1) between consecutive vertices;
* Υ of one staircase is -2 times the lower envelope of its vertex lines
  t/2 * alex + (1 - t/2) * alg on [0, 2] (Ozsváth–Stipsicz–Szabó,
  arXiv 1407.1795); it is additive under # and changes sign under mirroring.

Expressions are handled as tuples of signed factors (sign, p, q).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

Factor = tuple[int, int, int]  # (sign, p, q); sign -1 is the mirror


def _pq(p: int, q: int) -> tuple[int, int]:
    a, b = min(p, q), max(p, q)
    if a < 1 or gcd(a, b) != 1:
        raise ValueError(f"T({p},{q}) is not a torus knot")
    return a, b


@lru_cache(maxsize=None)
def staircase(p: int, q: int) -> tuple[tuple[int, int, int], ...]:
    """Generators (alg, alex, grading) of the staircase of T(p, q), in path order."""
    a, b = _pq(p, q)
    if a == 1:
        return ((0, 0, 0),)
    g = (a - 1) * (b - 1) // 2
    in_s = [False] * (2 * g + 1)
    for i in range(0, 2 * g + 1, a):
        for m in range(i, 2 * g + 1, b):
            in_s[m] = True
    vertices = []
    count = 0  # #(S ∩ [0, m))
    for m in range(2 * g + 1):
        if in_s[m] and (m == 0 or not in_s[m - 1]):
            vertices.append((count, count + g - m))
        count += in_s[m]
    out = [(*vertices[0], 0)]
    for (a0, x0), (a1, x1) in zip(vertices, vertices[1:]):
        out.append((a1, x0, 1))
        out.append((a1, x1, 0))
    return tuple(out)


def generator_count(factors) -> int:
    n = 1
    for _, p, q in factors:
        n *= len(staircase(p, q))
    return n


def even_points(factors) -> set[tuple[int, int]]:
    """Distinct (alg, alex) of the grading-0 sector of a connected sum."""
    gens = {(0, 0, 0)}
    for sign, p, q in factors:
        gens = {
            (a + sign * fa, x + sign * fx, m + sign * fm)
            for a, x, m in gens
            for fa, fx, fm in staircase(p, q)
        }
    return {(a - m // 2, x - m // 2) for a, x, m in gens if m % 2 == 0}


def candidate_count(factors) -> int:
    """Distinct crossings in (0, 2) of the grading-0 level lines."""
    seen = set()
    for (a1, x1), (a2, x2) in combinations(sorted(even_points(factors)), 2):
        den = (x1 - a1) - (x2 - a2)
        if den == 0:
            continue
        num = 2 * (a2 - a1)
        if den < 0:
            num, den = -num, -den
        if 0 < num < 2 * den:
            g = gcd(num, den)
            seen.add((num // g, den // g))
    return len(seen)


# --- Υ as an exact piecewise-linear function, by breakpoints -------------

Breakpoints = tuple[tuple[Fraction, Fraction], ...]


def _canonical(points) -> Breakpoints:
    """Drop interior breakpoints where the slope does not change."""
    out = list(points[:2])
    for t, v in points[2:]:
        (t0, v0), (t1, v1) = out[-2], out[-1]
        if (v1 - v0) * (t - t1) == (v - v1) * (t1 - t0):
            out[-1] = (t, v)
        else:
            out.append((t, v))
    return tuple(out)


@lru_cache(maxsize=None)
def staircase_upsilon(p: int, q: int) -> Breakpoints:
    """Υ of T(p, q): -2 times the lower envelope of its vertex lines."""
    lines = [(Fraction(x - a, 2), Fraction(a))  # slope, value at t = 0
             for a, x, m in staircase(p, q) if m == 0]
    ts = {Fraction(0), Fraction(2)}
    for (s1, c1), (s2, c2) in combinations(lines, 2):
        if s1 != s2:
            t = (c2 - c1) / (s1 - s2)
            if 0 < t < 2:
                ts.add(t)
    return _canonical([(t, -2 * min(c + s * t for s, c in lines)) for t in sorted(ts)])


def evaluate(bps: Breakpoints, t: Fraction) -> Fraction:
    for (t0, v0), (t1, v1) in zip(bps, bps[1:]):
        if t0 <= t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    raise ValueError(f"t={t} lies outside [0, 2]")


def upsilon_of_sum(factors) -> Breakpoints:
    """Υ of a connected sum: the signed sum of the factors' staircase Υ."""
    parts = [(sign, staircase_upsilon(p, q)) for sign, p, q in factors]
    ts = sorted({t for _, bps in parts for t, _ in bps})
    return _canonical([(t, sum(sign * evaluate(bps, t) for sign, bps in parts))
                       for t in ts])


def singularities(bps: Breakpoints) -> list[tuple[Fraction, Fraction]]:
    """(t, slope jump) at each interior breakpoint."""
    out = []
    for (t0, v0), (t1, v1), (t2, v2) in zip(bps, bps[1:], bps[2:]):
        out.append((t1, (v2 - v1) / (t2 - t1) - (v1 - v0) / (t1 - t0)))
    return out


def positive_singularities(bps: Breakpoints) -> list[Fraction]:
    return [t for t, jump in singularities(bps) if jump > 0]


# --- expressions ----------------------------------------------------------

def spell(factors) -> str:
    return " # ".join(("-" if s < 0 else "") + f"T({p},{q})" for s, p, q in factors)


def canonical(factors) -> str:
    """The canonical spelling: p <= q, factors sorted by (p, q, sign)."""
    keyed = sorted((min(p, q), max(p, q), s) for s, p, q in factors)
    return spell([(s, p, q) for p, q, s in keyed])


def parse(text: str) -> tuple[Factor, ...]:
    """Factors of a flat spelling such as 'T(2,5) # -T(3,4)'."""
    return tuple((-1 if sign else 1, int(p), int(q))
                 for sign, p, q in re.findall(r"(-?)T\((\d+),(\d+)\)", text))


def small_torus_knots(max_q: int) -> list[tuple[int, int]]:
    """Every torus knot T(p, q) with 2 <= p < q <= max_q."""
    return [(p, q) for q in range(3, max_q + 1) for p in range(2, q) if gcd(p, q) == 1]


def drop_unknots(factors) -> tuple[Factor, ...]:
    return tuple(f for f in factors if min(f[1], f[2]) > 1)
