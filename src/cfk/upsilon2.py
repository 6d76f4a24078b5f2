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

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .complexes import BifilteredComplex
from .exactnum import PiecewiseLinear, check_parameter
from .f2linalg import first_entry
from .upsilon import (
    CertificateError,
    SectorElement,
    _DirectChecker,
    _SectorEngine,
    _bits,
    _check_exact,
    level,
    level_slope,
)

class NotApplicableError(ValueError):
    """t0 is not a singularity with a positive slope jump."""


@dataclass(frozen=True)
class MergeWitness:
    z_minus: frozenset[SectorElement]
    z_plus: frozenset[SectorElement]
    w: frozenset[SectorElement]


@dataclass(frozen=True)
class Gamma2Certificate:
    """gamma2 at t0 with the merging witness: dw = z_minus + z_plus."""

    t0: Fraction
    gamma: Fraction
    gamma2: Fraction
    witness: MergeWitness

    def upsilon2(self) -> Fraction:
        return -2 * (self.gamma2 - self.gamma)


def _check_upsilon(ups: PiecewiseLinear, t0: Fraction, gamma0: Fraction,
                   slope_minus: Fraction, slope_plus: Fraction) -> None:
    """ValueError unless ups is -2 * gamma at t0 with the given one-sided slopes."""
    left, right = ups.slopes_at(t0)
    if (ups.evaluate(t0), left, right) != (-2 * gamma0, -2 * slope_minus, -2 * slope_plus):
        raise ValueError("the provided upsilon function does not belong to this complex")


def _sides(c: BifilteredComplex, t0, ups: PiecewiseLinear | None):
    """Engine, t0 and its sides (see ``_SectorEngine.sides``) where gamma's slope drops.

    The side gamma jets decide whether t0 is such a singularity; ``ups``,
    when given, is only checked against them.
    """
    t0 = check_parameter(t0)
    if not 0 < t0 < 2:
        raise NotApplicableError("t0 must lie in the open interval (0, 2)")
    engine = _SectorEngine(c)
    null_below, minus, plus = engine.sides(t0)
    (gamma0, slope_minus), (_, slope_plus) = minus[0], plus[0]
    if ups is not None:
        _check_upsilon(ups, t0, gamma0, slope_minus, slope_plus)
    if slope_minus == slope_plus:
        raise NotApplicableError(f"upsilon has no singularity at t={t0}")
    if slope_minus < slope_plus:
        raise NotApplicableError(
            f"slope jump at t={t0} is negative; only positive jumps are supported"
        )
    return engine, t0, null_below, minus, plus


def gamma2_at(c: BifilteredComplex, t0,
              ups: PiecewiseLinear | None = None) -> Gamma2Certificate:
    """Minimal threshold at which the two side classes merge, with witness.

    Merging at threshold r asks for z_minus, z_plus in the side cycle spaces
    and w supported on grading-1 elements of level at most r with
    dw = z_minus + z_plus.  One pass feeds the boundaries of the grading-1
    elements in level order, seeded at gamma with the null cycles below
    gamma, which both sides share, and then each side's own null cycles,
    until z0_minus + z0_plus enters their span.  The shared and the
    minus-side null cycles are tagged with their own mask above the odd
    bits, so the witness tag gives w and z_minus, and z_plus = z_minus + dw.

    Grading-1 elements below gamma are never fed: the boundary of such an
    element o lies below gamma, where the shared pass fed every element, and
    is a relation among their class columns (d(do) = 0, and lam vanishes on
    boundaries).  So do is in the span of the seeded null cycles, the column
    of o would only join the kernel, and the rows, gamma2 and the witness do
    not change.
    """
    engine, t0, null_below, ((gamma0, _), z0m, null_m), (_, z0p, null_p) = _sides(c, t0, ups)
    n_odd = len(engine.odd_ids)
    seed = [(v, v << n_odd) for v in chain(null_below, null_m)] + [(v, 0) for v in null_p]
    scale = 2 * t0.denominator  # thresholds are levels times 2b, in integers
    floor = int(gamma0 * scale)
    batches = chain([(floor, seed)], engine.odd_batches(t0, floor))
    r_star, tag, _ = first_entry(batches, z0m ^ z0p)
    if r_star is None:
        raise AssertionError("side classes must merge once every element is admissible")
    wmask = tag & ((1 << n_odd) - 1)
    zm = z0m ^ (tag >> n_odd)
    zp = zm
    for j in _bits(wmask):
        zp ^= engine.d_odd[j]
    witness = MergeWitness(
        z_minus=frozenset(engine.elements(engine.even_ids, zm)),
        z_plus=frozenset(engine.elements(engine.even_ids, zp)),
        w=frozenset(engine.elements(engine.odd_ids, wmask)),
    )
    return Gamma2Certificate(t0=t0, gamma=gamma0, gamma2=Fraction(r_star, scale),
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
    t0 = cert.t0
    _check_exact(t0, "t0")
    _check_exact(cert.gamma, "gamma")
    _check_exact(cert.gamma2, "gamma2")
    if not 0 < t0 < 2:
        raise CertificateError("t0 must lie in the open interval (0, 2)")
    tables = _DirectChecker(c)
    jets = [(level(t0, e), level_slope(e)) for e in tables.even]

    def check_side(elems, sign, label):
        keys = [(value, sign * slope) for value, slope in jets]
        zmask, key, admissible = tables.least_class_cycle(elems, keys, label)
        if key[0] != cert.gamma:
            raise CertificateError(f"the top level of {label} is not the stored gamma")
        return zmask, admissible, sign * key[1]

    zm, adm_m, slope_minus = check_side(cert.witness.z_minus, -1, "z_minus")
    zp, adm_p, slope_plus = check_side(cert.witness.z_plus, +1, "z_plus")
    if slope_minus <= slope_plus:
        raise CertificateError("the slope of gamma does not drop at t0")
    if ups is not None:
        _check_upsilon(ups, t0, cert.gamma, slope_minus, slope_plus)

    acc = 0
    for e in cert.witness.w:
        if e not in tables.odd_pos:
            raise CertificateError("w leaves the grading-1 sector")
        if level(t0, e) > cert.gamma2:
            raise CertificateError("w uses an element above the threshold")
        acc ^= tables.d_odd[tables.odd_pos[e]]
    if acc != zm ^ zp:
        raise CertificateError("dw does not equal z_minus + z_plus")

    odd_levels = [level(t0, e) for e in tables.odd]
    thresholds = sorted({cert.gamma} | {lv for lv in odd_levels if lv > cert.gamma})
    if cert.gamma2 not in thresholds:
        raise CertificateError("threshold is not a grading-1 level at or above gamma")
    below = [r for r in thresholds if r < cert.gamma2]
    if below and tables.merges(adm_m, adm_p, odd_levels, below[-1]):
        raise CertificateError("the side classes already merge below the threshold")
