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
from .f2linalg import by_threshold, first_entry, in_span
from .upsilon import (
    CertificateError,
    SectorElement,
    _DirectChecker,
    _SectorEngine,
    _bits,
    level,
    level_slope,
    upsilon,
)

SIDE_MINUS = "minus"
SIDE_PLUS = "plus"


class NotApplicableError(ValueError):
    """t0 is not a singularity with a positive slope jump."""


@dataclass(frozen=True)
class Jet:
    """First-order level data at t0: value and d(level)/dt."""

    value: Fraction
    slope: Fraction

    def side_key(self, sign: int) -> tuple[Fraction, Fraction]:
        """Lexicographic comparison key on the side t0 + sign*delta."""
        return (self.value, sign * self.slope)


@dataclass(frozen=True)
class SideData:
    """Pivot data for one side of a singularity.

    ``cycle_particular`` plus the GF(2) span of ``cycle_basis`` is exactly
    the set of cycles supported on the admissible elements that represent
    the distinguished class.
    """

    side: str
    gamma_jet: Jet
    admissible: tuple[SectorElement, ...]
    cycle_particular: frozenset[SectorElement]
    cycle_basis: tuple[frozenset[SectorElement], ...]


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


def _slope_data(ups: PiecewiseLinear, t0: Fraction):
    """gamma value and one-sided gamma slopes at a positive-jump singularity."""
    left, right = ups.slopes_at(t0)
    if left is None or right is None:
        raise NotApplicableError("t0 must lie in the open interval (0, 2)")
    jump = right - left
    if jump == 0:
        raise NotApplicableError(f"upsilon has no singularity at t={t0}")
    if jump < 0:
        raise NotApplicableError(
            f"slope jump at t={t0} is negative; only positive jumps are supported"
        )
    gamma0 = -ups.evaluate(t0) / 2
    return gamma0, -left / 2, -right / 2


def _side_pass(engine: _SectorEngine, t0: Fraction, sign: int):
    """One side of t0: its gamma jet, admissible positions, class cycle, null cycles.

    The columns [d(e); lam(e)] enter in ``Jet.side_key`` order.  The key at
    which the pure-lam target enters is the side gamma jet, the witness tag
    is a class cycle z0, and the kernel tags are the cycles with lam = 0 on
    the admissible elements: boundaries, since grading-0 homology has rank
    one.
    """
    keys = [Jet(lv, level_slope(e)).side_key(sign)
            for lv, e in zip(engine.even_levels(t0), engine.even)]
    key, z0, null_cycles = first_entry(by_threshold(keys, engine.class_columns),
                                       1 << len(engine.odd))
    if key is None:
        raise AssertionError("side cycles must attain gamma on each side of a singularity")
    admissible = [k for k, kk in enumerate(keys) if kk <= key]
    return Jet(key[0], sign * key[1]), admissible, z0, null_cycles


def _sides(c: BifilteredComplex, t0, ups: PiecewiseLinear | None, signs):
    """Engine, gamma and side passes at t0, each side jet checked against ups."""
    t0 = check_parameter(t0)
    if ups is None:
        ups = upsilon(c)
    gamma0, slope_minus, slope_plus = _slope_data(ups, t0)
    engine = _SectorEngine(c)
    passes = [_side_pass(engine, t0, sign) for sign in signs]
    for sign, (jet, *_) in zip(signs, passes):
        if jet != Jet(gamma0, slope_minus if sign < 0 else slope_plus):
            raise ValueError(
                "the provided upsilon function does not belong to this complex"
            )
    return engine, t0, gamma0, passes


def _elements(engine: _SectorEngine, mask: int) -> frozenset[SectorElement]:
    return frozenset(engine.even[k] for k in _bits(mask))


def side_cycles(c: BifilteredComplex, t0, side: str,
                ups: PiecewiseLinear | None = None) -> SideData:
    """Admissible pivots and class cycles on one side of the singularity t0."""
    if side not in (SIDE_MINUS, SIDE_PLUS):
        raise ValueError(f"side must be '{SIDE_MINUS}' or '{SIDE_PLUS}'")
    sign = -1 if side == SIDE_MINUS else 1
    engine, _, _, [(jet, admissible, z0, null_cycles)] = _sides(c, t0, ups, [sign])
    return SideData(
        side=side,
        gamma_jet=jet,
        admissible=tuple(engine.even[k] for k in admissible),
        cycle_particular=_elements(engine, z0),
        cycle_basis=tuple(_elements(engine, v) for v in null_cycles),
    )


def gamma2_at(c: BifilteredComplex, t0,
              ups: PiecewiseLinear | None = None) -> Gamma2Certificate:
    """Minimal threshold at which the two side classes merge, with witness.

    Merging at threshold r asks for z_minus, z_plus in the side cycle spaces
    and w supported on grading-1 elements of level at most r with
    dw = z_minus + z_plus.  One pass feeds the boundaries of the grading-1
    elements in level order, seeded at gamma with both sides' null cycles,
    until z0_minus + z0_plus enters their span.  The minus-side null cycles
    are tagged with their own mask above the odd bits, so the witness tag
    gives w and z_minus, and z_plus = z_minus + dw.
    """
    engine, t0, gamma0, passes = _sides(c, t0, ups, [-1, 1])
    (_, _, z0m, null_m), (_, _, z0p, null_p) = passes
    n_odd = len(engine.odd)
    seed = [(v, v << n_odd) for v in null_m] + [(v, 0) for v in null_p]
    thresholds = [max(lv, gamma0) for lv in engine.odd_levels(t0)]
    columns = [(d, 1 << j) for j, d in enumerate(engine.d_odd)]
    batches = chain([(gamma0, seed)], by_threshold(thresholds, columns))
    r_star, tag, _ = first_entry(batches, z0m ^ z0p)
    if r_star is None:
        raise AssertionError("side classes must merge once every element is admissible")
    wmask = tag & ((1 << n_odd) - 1)
    zm = z0m ^ (tag >> n_odd)
    zp = zm
    for j in _bits(wmask):
        zp ^= engine.d_odd[j]
    witness = MergeWitness(
        z_minus=_elements(engine, zm),
        z_plus=_elements(engine, zp),
        w=frozenset(engine.odd[j] for j in _bits(wmask)),
    )
    return Gamma2Certificate(t0=t0, gamma=gamma0, gamma2=r_star, witness=witness)


def upsilon2_at(c: BifilteredComplex, t0,
                ups: PiecewiseLinear | None = None) -> Fraction:
    """Secondary upsilon -2*(gamma2 - gamma) at the singularity t0."""
    return gamma2_at(c, t0, ups=ups).upsilon2()


def verify_gamma2_certificate(c: BifilteredComplex, cert: Gamma2Certificate,
                              ups: PiecewiseLinear | None = None) -> None:
    """Re-check a merge certificate against the definitions.

    Validates both side cycles (support, cycle and class conditions), the
    merging equation dw = z_minus + z_plus, the level bound on w, and
    minimality by infeasibility at the next lower threshold.  It uses the
    sector tables only: no class functional and no step of the search.
    """
    t0 = cert.t0
    if ups is None:
        ups = upsilon(c)
    gamma0, slope_minus, slope_plus = _slope_data(ups, t0)
    if gamma0 != cert.gamma:
        raise CertificateError("stored gamma does not match upsilon at t0")
    tables = _DirectChecker(c)
    even_pos = {e: k for k, e in enumerate(tables.even)}
    odd_pos = {e: j for j, e in enumerate(tables.odd)}
    jets = [Jet(level(t0, e), level_slope(e)) for e in tables.even]

    def check_side(elems, gamma_slope, sign, label):
        gamma_key = (gamma0, sign * gamma_slope)
        admissible = 0
        for k, jet in enumerate(jets):
            if jet.side_key(sign) <= gamma_key:
                admissible |= 1 << k
        zmask = 0
        for e in elems:
            if e not in even_pos:
                raise CertificateError(f"{label} leaves the grading-0 sector")
            zmask |= 1 << even_pos[e]
        if zmask & ~admissible:
            raise CertificateError(f"{label} uses an element above the side bound")
        if tables.boundary_of_even(zmask):
            raise CertificateError(f"{label} is not a cycle")
        if not in_span(tables.d_odd, zmask ^ tables.h0_mask):
            raise CertificateError(f"{label} is not homologous to the h0 class")
        return zmask, admissible

    zm, adm_m = check_side(cert.witness.z_minus, slope_minus, -1, "z_minus")
    zp, adm_p = check_side(cert.witness.z_plus, slope_plus, +1, "z_plus")

    acc = 0
    for e in cert.witness.w:
        if e not in odd_pos:
            raise CertificateError("w leaves the grading-1 sector")
        if level(t0, e) > cert.gamma2:
            raise CertificateError("w uses an element above the threshold")
        acc ^= tables.d_odd[odd_pos[e]]
    if acc != zm ^ zp:
        raise CertificateError("dw does not equal z_minus + z_plus")

    odd_levels = tables.odd_levels(t0)
    thresholds = sorted({gamma0} | {lv for lv in odd_levels if lv > gamma0})
    if cert.gamma2 not in thresholds:
        raise CertificateError("threshold is not a grading-1 level at or above gamma")
    below = [r for r in thresholds if r < cert.gamma2]
    if below and tables.merges(adm_m, adm_p, odd_levels, below[-1]):
        raise CertificateError("the side classes already merge below the threshold")
