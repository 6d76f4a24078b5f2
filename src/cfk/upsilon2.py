"""Secondary upsilon at singularities where the slope of upsilon jumps up.

At such a parameter t0 the optimal cycles for t slightly below and slightly
above t0 are supported on different pivots.  The secondary invariant measures
how much deeper the filtration must reach before one cycle from each side
becomes homologous: upsilon2 = -2 * (gamma2 - gamma).

Infinitesimal side comparisons never use a numeric delta; levels at t0 +/- delta
are compared as jets (value, slope) ordered lexicographically, with the slope
sign flipped on the minus side.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .complexes import BifilteredComplex, _mask
from .exactnum import PiecewiseLinear, check_parameter
from .upsilon import (
    CertificateError,
    _DirectChecker,
    _SectorEngine,
    _check_elements,
    _check_exact,
)

class NotApplicableError(ValueError):
    """t0 is not a singularity with a positive slope jump."""


class MergeWitness(namedtuple("MergeWitness", "z_minus z_plus w")):
    """Three frozensets of :class:`SectorElement`: the side cycles and w."""

    __slots__ = ()


class Gamma2Certificate(namedtuple("Gamma2Certificate", "t0 gamma gamma2 witness")):
    """gamma2 at t0 with the merging witness: dw = z_minus + z_plus."""

    __slots__ = ()

    def upsilon2(self) -> Fraction:
        return -2 * (self.gamma2 - self.gamma)


def _check_upsilon(ups: PiecewiseLinear, t0: Fraction, gamma0: Fraction,
                   slope_minus: Fraction, slope_plus: Fraction) -> None:
    """TypeError unless ups is a PiecewiseLinear, ValueError unless -2 * gamma with these slopes."""
    if not isinstance(ups, PiecewiseLinear):
        raise TypeError(f"ups must be a PiecewiseLinear, got {type(ups).__name__}")
    if ups.value_and_slopes(t0) != (-2 * gamma0, -2 * slope_minus, -2 * slope_plus):
        raise ValueError("the provided upsilon function does not belong to this complex")


def gamma2_at(c: BifilteredComplex, t0,
              ups: PiecewiseLinear | None = None) -> Gamma2Certificate:
    """Minimal threshold at which the two side classes merge, with witness.

    Merging at threshold r asks for z_minus, z_plus in the side cycle spaces
    and w supported on grading-1 elements of level at most r with
    dw = z_minus + z_plus; ``_SectorEngine.merge`` finds them.  The side
    slopes decide first whether t0 is a singularity with a positive slope
    jump; ``ups``, when given, is only checked against them.
    """
    t0 = check_parameter(t0)
    if not 0 < t0 < 2:
        raise NotApplicableError("t0 must lie in the open interval (0, 2)")
    engine = _SectorEngine(c)
    gamma, null_below, minus, plus = engine.sides(t0)
    scale = 2 * t0.denominator  # the engine's levels are 2b times those at t0 = a/b
    gamma0 = Fraction(gamma, scale)
    if ups is not None:
        _check_upsilon(ups, t0, gamma0, Fraction(minus[0], 2), Fraction(plus[0], 2))
    if minus[0] == plus[0]:
        raise NotApplicableError(f"upsilon has no singularity at t={t0}")
    if minus[0] < plus[0]:
        raise NotApplicableError(
            f"slope jump at t={t0} is negative; only positive jumps are supported"
        )
    gamma2, zm, zp, w = engine.merge(t0, gamma, null_below, minus, plus)
    witness = MergeWitness(
        z_minus=frozenset(engine.elements(0, zm)),
        z_plus=frozenset(engine.elements(0, zp)),
        w=frozenset(engine.elements(1, w)),
    )
    return Gamma2Certificate(t0=t0, gamma=gamma0, gamma2=Fraction(gamma2, scale),
                             witness=witness)


def upsilon2_at(c: BifilteredComplex, t0,
                ups: PiecewiseLinear | None = None) -> Fraction:
    """Secondary upsilon -2*(gamma2 - gamma) at the singularity t0."""
    return gamma2_at(c, t0, ups=ups).upsilon2()


def verify_gamma2_certificate(c: BifilteredComplex, cert: Gamma2Certificate,
                              ups: PiecewiseLinear | None = None) -> None:
    """Re-check a merge certificate against the definitions.

    Each side's gamma jet is read off z_minus or z_plus as the largest side
    key in its support; it is that side's jet when its level is gamma, the
    cycle is in the h0 class and no such cycle lies strictly below it.  The
    slope must drop at t0, dw = z_minus + z_plus with w within gamma2, and
    the sides may not merge at the next lower threshold.  Only the sector
    tables are used: no class functional, no search step and no upsilon.
    """
    if not isinstance(cert, Gamma2Certificate):
        raise CertificateError("certificate must be a Gamma2Certificate")
    t0 = cert.t0
    _check_exact(t0, "t0")
    _check_exact(cert.gamma, "gamma")
    _check_exact(cert.gamma2, "gamma2")
    if not 0 < t0 < 2:
        raise CertificateError("t0 must lie in the open interval (0, 2)")
    if not isinstance(cert.witness, MergeWitness):
        raise CertificateError("witness must be a MergeWitness")
    for name in ("z_minus", "z_plus", "w"):
        _check_elements(getattr(cert.witness, name), frozenset, name)
    tables = _DirectChecker(c)
    scale, keys, odd_keys = tables.keys(t0)  # 2b times the levels at t0 = a/b
    gamma, gamma2 = cert.gamma * scale, cert.gamma2 * scale

    def check_side(elems, sign, label):
        side_keys = [(key, sign * (e.alex - e.alg)) for key, e in zip(keys, tables.even)]
        zmask, top, admissible = tables.least_class_cycle(elems, side_keys, label)
        if top[0] != gamma:
            raise CertificateError(f"the top level of {label} is not the stored gamma")
        return zmask, admissible, sign * top[1]

    zm, adm_m, slope_minus = check_side(cert.witness.z_minus, -1, "z_minus")
    zp, adm_p, slope_plus = check_side(cert.witness.z_plus, +1, "z_plus")
    if slope_minus <= slope_plus:
        raise CertificateError("the slope of gamma does not drop at t0")
    if ups is not None:
        _check_upsilon(ups, t0, cert.gamma, Fraction(slope_minus, 2), Fraction(slope_plus, 2))

    if gamma2 < gamma or (gamma2 > gamma and gamma2 not in odd_keys):
        raise CertificateError("threshold is not a grading-1 level at or above gamma")
    acc = 0
    for e in cert.witness.w:
        if e not in tables.odd_pos:
            raise CertificateError("w leaves the grading-1 sector")
        if odd_keys[tables.odd_pos[e]] > gamma2:
            raise CertificateError("w uses an element above the threshold")
        acc ^= tables.d_odd[tables.odd_pos[e]]
    if acc != zm ^ zp:
        raise CertificateError("dw does not equal z_minus + z_plus")
    if gamma2 > gamma and tables.merges(
            adm_m, adm_p, _mask(j for j, key in enumerate(odd_keys) if key < gamma2)):
        raise CertificateError("the side classes already merge below the threshold")
