"""Numerical semigroups of torus knots and their staircase step data.

The Alexander polynomial of T(p,q) is recovered from the semigroup generated
by p and q: summing t^s - t^(s+1) over semigroup elements telescopes to the
alternating-sign polynomial once truncated at the conductor (p-1)(q-1), above
which every integer belongs to the semigroup.  Polynomials are stored by
their exponent lists; the coefficient of t^(a_i) is (-1)^i.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class InvalidTorusKnotError(ValueError):
    """The pair (p, q) does not describe a torus knot in scope."""


def _validate_pq(p: int, q: int) -> None:
    if not (isinstance(p, int) and isinstance(q, int)):
        raise InvalidTorusKnotError("torus knot parameters must be integers")
    if not 2 <= p < q:
        raise InvalidTorusKnotError(f"need 2 <= p < q, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise InvalidTorusKnotError(f"({p}, {q}) are not coprime")


def conductor(p: int, q: int) -> int:
    """Least integer above which every integer lies in the semigroup."""
    return (p - 1) * (q - 1)


def semigroup_elements(p: int, q: int, bound: int) -> list[int]:
    """All elements np + mq <= bound with n, m >= 0, sorted and deduplicated."""
    _validate_pq(p, q)
    if bound < 0:
        raise ValueError("bound must be non-negative")
    elements = set()
    n = 0
    while n * p <= bound:
        base = n * p
        m = 0
        while base + m * q <= bound:
            elements.add(base + m * q)
            m += 1
        n += 1
    return sorted(elements)


@dataclass(frozen=True)
class AlexanderPolynomial:
    """Alternating-sign polynomial given by its strictly increasing exponents."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
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


@dataclass(frozen=True)
class StepVector:
    """Alternating horizontal/vertical staircase steps, starting horizontal."""

    steps: tuple[int, ...]

    def __post_init__(self):
        steps = tuple(int(b) for b in self.steps)
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
    def horizontal(self) -> tuple[int, ...]:
        return self.steps[0::2]

    @property
    def vertical(self) -> tuple[int, ...]:
        return self.steps[1::2]


def alexander_torus(p: int, q: int) -> AlexanderPolynomial:
    """Alexander polynomial of T(p,q) via semigroup telescoping."""
    _validate_pq(p, q)
    c = conductor(p, q)
    coeffs: dict[int, int] = {}
    for s in semigroup_elements(p, q, c):
        if s < c:
            coeffs[s] = coeffs.get(s, 0) + 1
            coeffs[s + 1] = coeffs.get(s + 1, 0) - 1
    coeffs[c] = coeffs.get(c, 0) + 1
    exps = sorted(k for k, v in coeffs.items() if v != 0)
    for i, e in enumerate(exps):
        if coeffs[e] != (1 if i % 2 == 0 else -1):
            raise AssertionError("telescoped coefficients failed to alternate")
    return AlexanderPolynomial(tuple(exps))


def step_vector(poly: AlexanderPolynomial) -> StepVector:
    """Staircase steps: consecutive gaps of the polynomial's exponents."""
    exps = poly.exponents
    return StepVector(tuple(b - a for a, b in zip(exps, exps[1:])))
