"""Numerical semigroups of torus knots and their staircase step data.

The Alexander polynomial of T(p,q) is (1 - t) times the sum of t^s over the
semigroup S generated by p and q, so its exponents are the integers n where
membership in S flips between n - 1 and n.  They are read off the Apery set
of S with respect to p, without listing S.  Polynomials are stored by their
exponent lists; the coefficient of t^(a_i) is (-1)^i.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

from .exactnum import _Frozen, check_integer
from .expressions import InvalidTorusKnotError


def _torus_pair(p: int, q: int) -> tuple[int, int]:
    """(min, max) of a valid torus knot pair; InvalidTorusKnotError otherwise.

    Both parameters must be positive ints (a bool is not one here) and
    coprime; a parameter 1 stands for the unknot.
    """
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (p, q)) or p < 1 or q < 1:
        raise InvalidTorusKnotError(f"torus knot parameters must be positive integers, got ({p}, {q})")
    a, b = min(p, q), max(p, q)
    if gcd(a, b) != 1:
        raise InvalidTorusKnotError(f"({p}, {q}) are not coprime")
    return a, b


class AlexanderPolynomial(_Frozen):
    """Alternating-sign polynomial given by its strictly increasing exponents."""

    _fields = ("exponents",)

    def __init__(self, exponents):
        exps = tuple(exponents)
        for e in exps:
            check_integer(e, "every exponent")
        object.__setattr__(self, "exponents", exps)
        if not exps or exps[0] != 0:
            raise ValueError("exponent list must start at 0")
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly increasing")
        d = len(exps) - 1
        if d % 2 != 0:
            raise ValueError("the top exponent must carry coefficient +1 (even index)")
        top = exps[-1]
        for i, e in enumerate(exps):
            if e + exps[d - i] != top:
                raise ValueError("exponents are not symmetric about half the degree")


class StepVector(_Frozen):
    """Alternating horizontal/vertical staircase steps, starting horizontal."""

    _fields = ("steps",)

    def __init__(self, steps):
        steps = tuple(steps)
        for b in steps:
            check_integer(b, "every step")
        object.__setattr__(self, "steps", steps)
        if len(steps) < 2 or len(steps) % 2 != 0:
            raise ValueError("a step vector has a positive even number of steps")
        if any(b <= 0 for b in steps):
            raise ValueError("steps must be positive")
        if steps != steps[::-1]:
            raise ValueError("step vector must be palindromic")
        if sum(steps[0::2]) != sum(steps[1::2]):
            raise ValueError("horizontal and vertical steps must balance")

    @property
    def vertical(self) -> tuple[int, ...]:
        return self.steps[1::2]


def _exponent_runs(p: int, q: int):
    """The Alexander exponents of T(p,q), one range per residue r mod p.

    The least element of S congruent to r is m_r = j*q for the j in [0, p)
    with j*q = r (mod p), and n is in S exactly when n >= m_(n mod p).  So
    the exponents congruent to r lie between m_(r-1) and m_r: [m_r, m_(r-1)]
    with coefficient +1 when m_r <= m_(r-1), else [m_(r-1) + 1, m_r - 1]
    with coefficient -1, where m_(-1) is m_(p-1).  O(p) work and memory.
    """
    least = [0] * p
    for j in range(p):
        least[j * q % p] = j * q
    for r in range(p):
        here, before = least[r], least[r - 1]
        yield range(here, before + 1, p) if here <= before else range(before + 1, here, p)


def alexander_torus(p: int, q: int) -> AlexanderPolynomial:
    """Alexander polynomial of T(p,q), 2 <= p < q, from the Apery set of the semigroup."""
    if _torus_pair(p, q) != (p, q) or p < 2:
        raise InvalidTorusKnotError(f"need 2 <= p < q, got ({p}, {q})")
    return AlexanderPolynomial(tuple(sorted(chain.from_iterable(_exponent_runs(p, q)))))


def step_vector(poly: AlexanderPolynomial) -> StepVector:
    """Staircase steps: consecutive gaps of the polynomial's exponents."""
    exps = poly.exponents
    return StepVector(tuple(b - a for a, b in zip(exps, exps[1:])))
