"""Exact piecewise-linear functions on [0, 2] with rational breakpoints.

Every quantity handled by this package is a ``fractions.Fraction``; no
floating point enters any computation.  A :class:`PiecewiseLinear` value is
kept in canonical form (strictly increasing abscissae running exactly from 0
to 2, collinear interior breakpoints merged), so ``==`` is simultaneously
structural and pointwise equality.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property

_LO = Fraction(0)
_HI = Fraction(2)

CSV_HEADER = "t_num,t_den,v_num,v_den"


class DomainError(ValueError):
    """A parameter value fell outside the interval [0, 2]."""


def is_exact(x) -> bool:
    """Is x an int or a Fraction?  A bool is neither here."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def as_fraction(x) -> Fraction:
    """x as a Fraction; TypeError unless it is exact (floats and strings never are)."""
    if isinstance(x, float):
        raise TypeError("floating point values are not accepted; pass a Fraction")
    if not is_exact(x):
        raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")
    return Fraction(x)


def check_integer(value, name: str) -> None:
    """ValueError naming the field unless value is an int (a bool is not one here)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")


def check_parameter(t) -> Fraction:
    """Validate and return t as a Fraction in [0, 2]."""
    t = as_fraction(t)
    if t < _LO or t > _HI:
        raise DomainError(f"parameter t={t} lies outside [0, 2]")
    return t


def _collinear(p0, p1, p2) -> bool:
    (t0, v0), (t1, v1), (t2, v2) = p0, p1, p2
    return (v1 - v0) * (t2 - t1) == (v2 - v1) * (t1 - t0)


class _Frozen:
    """A value whose fields, named in its class's ``_fields``, ``__init__`` sets once.

    Values of one class with equal fields are equal and hash alike, the repr
    reads ``Name(field=value, ...)``, and assigning or deleting raises AttributeError.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field '{name}'")

    __delattr__ = __setattr__


class PiecewiseLinear(_Frozen):
    """A piecewise-linear function on [0, 2], stored by its breakpoints.

    The constructor accepts any iterable of (t, value) pairs covering [0, 2]
    with strictly increasing t and normalises to canonical form: consecutive
    segments always have distinct slopes.
    """

    _fields = ("breakpoints",)

    def __init__(self, breakpoints):
        pts = [(as_fraction(t), as_fraction(v)) for t, v in breakpoints]
        if len(pts) < 2:
            raise ValueError("a piecewise-linear function needs at least two breakpoints")
        for (a, _), (b, _) in zip(pts, pts[1:]):
            if b <= a:
                raise ValueError("breakpoint abscissae must be strictly increasing")
        if pts[0][0] != _LO or pts[-1][0] != _HI:
            raise ValueError("breakpoints must start at t=0 and end at t=2")
        merged = [pts[0], pts[1]]
        for p in pts[2:]:
            if _collinear(merged[-2], merged[-1], p):
                merged[-1] = p
            else:
                merged.append(p)
        object.__setattr__(self, "breakpoints", tuple(merged))

    @cached_property
    def _ts(self) -> list[Fraction]:
        return [t for t, _ in self.breakpoints]

    def value_and_slopes(self, t) -> tuple[Fraction, Fraction | None, Fraction | None]:
        """Exact value at t and the one-sided derivatives there, from one search.

        Between breakpoints the value is interpolated linearly.  A derivative
        is None on the closed side at an endpoint.
        """
        t = check_parameter(t)
        slopes = self._slopes
        i = bisect_right(self._ts, t) - 1
        if i == len(slopes):  # t = 2
            return self.breakpoints[i][1], slopes[-1], None
        ti, vi = self.breakpoints[i]
        if ti == t:
            return vi, slopes[i - 1] if i else None, slopes[i]
        return vi + slopes[i] * (t - ti), slopes[i], slopes[i]

    def evaluate(self, t) -> Fraction:
        """Exact value at t (linear interpolation between breakpoints)."""
        return self.value_and_slopes(t)[0]

    __call__ = evaluate

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        ts = sorted({t for t, _ in self.breakpoints} | {t for t, _ in other.breakpoints})
        return PiecewiseLinear(tuple((t, self.evaluate(t) + other.evaluate(t)) for t in ts))

    def __neg__(self) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple((t, -v) for t, v in self.breakpoints))

    @cached_property
    def _slopes(self) -> tuple[Fraction, ...]:
        pts = self.breakpoints
        return tuple((v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(pts, pts[1:]))

    def singularities(self) -> list[tuple[Fraction, Fraction]]:
        """Interior breakpoints where the slope jumps, as (t, right - left)."""
        slopes = self._slopes
        out = []
        for i in range(1, len(self.breakpoints) - 1):
            jump = slopes[i] - slopes[i - 1]
            if jump != 0:
                out.append((self.breakpoints[i][0], jump))
        return out

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for t, v in self.breakpoints:
            lines.append(f"{t.numerator},{t.denominator},{v.numerator},{v.denominator}")
        return "\n".join(lines) + "\n"
