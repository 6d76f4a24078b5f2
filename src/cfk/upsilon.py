"""Filtration levels, the gamma minimisation, and the exact upsilon function.

For a parameter t in [0, 2] every sector element carries the exact level
(t/2)*Alex + (1 - t/2)*alg.  gamma(t) is the least level threshold below
which some cycle supported on the admissible elements still represents the
distinguished degree-0 homology class, and upsilon(t) = -2*gamma(t).

upsilon is assembled exactly: candidate breakpoints are the parameters where
two grading-0 level lines cross, gamma is evaluated at every candidate and
every midpoint, and linearity between candidates is verified rather than
assumed.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain, combinations

from .complexes import BifilteredComplex, _bits, _mask
from .exactnum import PiecewiseLinear, _collinear, check_parameter, is_exact
from .f2linalg import Echelon, by_threshold, first_entry


class CertificateError(RuntimeError):
    """A certificate failed independent re-verification."""


class BreakpointVerificationError(RuntimeError):
    """gamma was not linear between consecutive candidate breakpoints.

    This indicates a missed breakpoint candidate; the computation aborts
    rather than interpolate silently.
    """


class SectorElement(namedtuple("SectorElement", "index alg alex maslov")):
    """A U-translate of a generator, pinned to one homological grading.

    ``index`` is the generator's index in its complex and ``alg``, ``alex``
    and ``maslov`` are the grades of the translate.  The generator is
    ``c.generators[index]``, shifted by U^((its maslov - maslov) // 2).
    """

    __slots__ = ()


def sector(c: BifilteredComplex, m: int) -> tuple[SectorElement, ...]:
    """All U-translates of generators with effective grading m.

    Each generator whose grading differs from m by an even number contributes
    exactly one translate, so the sector is finite and listed in generator
    order.  Only the grade columns are read.
    """
    out = []
    for i, (a, x, g) in enumerate(zip(*c.generators.columns)):
        shift, odd = divmod(g - m, 2)
        if not odd:
            out.append(SectorElement(i, a - shift, x - shift, m))
    return tuple(out)


def level(t, e: SectorElement) -> Fraction:
    """Exact filtration level (t/2)*Alex + (1 - t/2)*alg of e at parameter t."""
    t = check_parameter(t)
    half = t / 2
    return half * e.alex + (1 - half) * e.alg


class GammaCertificate(namedtuple("GammaCertificate", "t s cycle")):
    """Witness for gamma(t) = s: a minimal-level cycle in the h0 class, a frozenset of elements."""

    __slots__ = ()


class _Memo(dict):
    """``memo[k]`` is ``build(k)``, computed on the first lookup and kept."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, k):
        value = self[k] = self._build(k)
        return value


class _SectorEngine:
    """The graded sectors, built lazily, and the class-detecting functional.

    The sectors come from the complex's own ``c.layout``, so setting up an
    engine walks no generator: ``even_ids`` and ``even_grades`` (the pair of
    Alexander and algebraic grade sequences) are its grading-0 part,
    ``odd_ids`` and ``odd_grades`` its grading-1 part.  The columns the
    searches feed, ``class_columns[k]`` = ([d(e); lam(e)], 1 << k) for even
    element k and ``odd_columns[j]`` = (d(o), 1 << j) for odd element j, with
    each boundary a mask over the other sector as in :class:`_DirectChecker`,
    are built in one step from ``c.boundary`` on first lookup and kept on
    this engine, so a query pays only for the elements that enter its
    filtrations.

    The functional lam is the complex's own ``c.lam``.  Every complex has
    completed grading-0 homology of rank one, so a cycle z represents the
    distinguished class exactly when lam(z) = 1, and is a boundary otherwise.
    """

    def __init__(self, c: BifilteredComplex):
        (even_ids, odd_ids), (self.even_grades, self.odd_grades), position = c.layout
        self.even_ids, self.odd_ids = even_ids, odd_ids
        rows, last = c.boundary, 1 << len(odd_ids)

        def columns(ids, lam):
            # column k: the boundary of element k, with bit ``last`` set where
            # lam (indexed by generator) is 1, tagged 1 << k
            def column(k):
                i, d = ids[k], 0
                for j in rows[i]:
                    d |= 1 << position[j]
                return (d | last if lam >> i & 1 else d), 1 << k
            return _Memo(column)

        self.class_columns = columns(even_ids, c.lam)
        self.odd_columns = columns(odd_ids, 0)

    def elements(self, parity: int, mask: int) -> list[SectorElement]:
        """The elements of the grading-``parity`` sector set in ``mask``, in sector order."""
        ids = (self.even_ids, self.odd_ids)[parity]
        alex, alg = (self.even_grades, self.odd_grades)[parity]
        return [SectorElement(ids[k], alg[k], alex[k], parity) for k in _bits(mask)]

    def entry(self, batches, ech: Echelon):
        """First key at which the class is reachable, a cycle in it, and null cycles.

        ``batches`` yields (key, class columns [d(e); lam(e)]) in key order,
        and they go into ``ech`` after the columns it already holds, until
        the pure-lam target reduces to zero.  The witness tag is the cycle and
        the kernel tags are cycles with lam = 0: boundaries.  Cycles are
        bitmasks over the even sector.
        """
        key, cycle, null_cycles = first_entry(batches, 1 << len(self.odd_ids), ech)
        if key is None:
            raise AssertionError("the distinguished class was not reachable at any level")
        return key, cycle, null_cycles

    def gamma(self, t) -> tuple[Fraction, int]:
        """Minimal threshold and a witness cycle (bitmask over the even sector)."""
        half = check_parameter(t) / 2
        keys = [half * x + (1 - half) * y for x, y in zip(*self.even_grades)]
        return self.entry(by_threshold(keys, self.class_columns), Echelon())[:2]

    def sides(self, t0: Fraction):
        """gamma, null cycles below it, then (slope, class cycle, null cycles) for each side.

        gamma is 2b times the level at t0 = a/b and a slope is Alex - alg.
        One pass feeds the class columns a level at a time, in order of level
        at t0 with ties in sector order, until the class enters at gamma.
        Each side t0 + sign*delta then resumes from the echelon as it stood
        below gamma and feeds the elements at gamma in sign*slope order, the
        order of their levels just beside t0, so its entry key is the side
        slope.  On both sides every element below gamma goes in before any at
        gamma, and the class enters at gamma, so each side's slope and the
        spans of its cycles are those of a pass in (level, sign*slope) order,
        while the elements below gamma are fed once.  A side's null cycles
        are the ones it adds to those below gamma.
        """
        levels = _scaled_levels(t0, self.even_grades)
        ech, before = Echelon(), []

        def batches():
            # the last batch yielded is the one at gamma: keep it, and the
            # echelon's size below it
            for lv, batch in by_threshold(levels, self.class_columns):
                before[:] = batch, ech.rank, len(ech.kernel)
                yield lv, batch

        gamma = self.entry(batches(), ech)[0]
        batch, rows, shared = before
        alex, alg = self.even_grades
        slopes = [alex[k] - alg[k] for k in (tag.bit_length() - 1 for _, tag in batch)]
        out = [gamma, ech.kernel[:shared]]
        for sign in (-1, 1):
            key, z0, null_cycles = self.entry(
                by_threshold([sign * s for s in slopes], batch), ech.prefix(rows, shared))
            out.append((sign * key, z0, null_cycles[shared:]))
        return tuple(out)

    def merge(self, t0: Fraction, gamma: int, null_below: list, minus, plus):
        """Scaled gamma2 and the z_minus, z_plus and w masks at which the side classes merge.

        The arguments after t0 are what ``sides(t0)`` returned.  One pass
        feeds the boundaries of the grading-1 elements in order of scaled
        level, seeded at gamma with the null cycles below gamma, which both
        sides share, and then each side's own null cycles, until
        z0_minus + z0_plus enters their span.  The shared and the minus-side
        null cycles are tagged with their own mask above the odd bits, so the
        witness tag gives w and z_minus, and z_plus = z_minus + dw.

        Grading-1 elements below gamma are never fed: the boundary of such an
        element o lies below gamma, where the shared pass fed every element,
        and is a relation among their class columns (d(do) = 0, and lam
        vanishes on boundaries).  So do is in the span of the seeded null
        cycles, the column of o would only join the kernel, and the rows,
        gamma2 and the witness do not change.
        """
        (_, z0m, null_m), (_, z0p, null_p) = minus, plus
        n_odd = len(self.odd_ids)
        seed = [(v, v << n_odd) for v in null_below + null_m] + [(v, 0) for v in null_p]
        odd = by_threshold(_scaled_levels(t0, self.odd_grades), self.odd_columns, gamma)
        gamma2, tag, _ = first_entry(chain([(gamma, seed)], odd), z0m ^ z0p)
        if gamma2 is None:
            raise AssertionError("side classes must merge once every element is admissible")
        w = tag & ((1 << n_odd) - 1)
        zm = zp = z0m ^ (tag >> n_odd)
        for j in _bits(w):
            zp ^= self.odd_columns[j][0]
        return gamma2, zm, zp, w


def _scaled_levels(t0: Fraction, grades) -> list[int]:
    """2b times the level at t0 = a/b of each element: a*Alex + (2b - a)*alg."""
    a, c = t0.numerator, 2 * t0.denominator - t0.numerator
    return [a * x + c * y for x, y in zip(*grades)]


def gamma_at(c: BifilteredComplex, t) -> GammaCertificate:
    """gamma(t) with a re-checkable witness cycle."""
    engine = _SectorEngine(c)
    t = check_parameter(t)
    s, cycle = engine.gamma(t)
    return GammaCertificate(t=t, s=s, cycle=frozenset(engine.elements(0, cycle)))


def verify_gamma_certificate(c: BifilteredComplex, cert: GammaCertificate) -> None:
    """Re-check a certificate directly from the definitions.

    Verifies the cycle condition, the homology condition against the full
    grading-1 sector, the level bound, and minimality over thresholds; none
    of it reuses the class functional that guided the original search.
    """
    if not isinstance(cert, GammaCertificate):
        raise CertificateError("certificate must be a GammaCertificate")
    _check_exact(cert.t, "t")
    _check_exact(cert.s, "s")
    if not 0 <= cert.t <= 2:
        raise CertificateError("t must lie in [0, 2]")
    _check_elements(cert.cycle, "cycle")
    tables = _DirectChecker(c)
    scale, keys, _ = tables.keys(cert.t)
    _, top, _ = tables.least_class_cycle(cert.cycle, keys, "certificate cycle")
    if top != cert.s * scale:
        raise CertificateError("threshold is not attained by the support")


def _check_exact(value, name: str) -> None:
    """CertificateError unless value is an int or a Fraction (a bool is neither here)."""
    if not is_exact(value):
        raise CertificateError(
            f"{name} must be an int or a Fraction, got {type(value).__name__}")


def _residue(rows: dict[int, int], vec: int) -> int:
    """vec less each row whose top bit it holds in turn: 0 exactly when in their span."""
    while vec and vec.bit_length() - 1 in rows:
        vec ^= rows[vec.bit_length() - 1]
    return vec


def _span(rows: dict[int, int], vectors) -> dict[int, int]:
    """A copy of ``rows`` with vectors added, each row stored under its highest set bit."""
    rows = dict(rows)
    for vec in vectors:
        vec = _residue(rows, vec)
        if vec:
            rows[vec.bit_length() - 1] = vec
    return rows


def _check_elements(elems, name: str) -> None:
    """CertificateError unless elems is a frozenset of SectorElements."""
    if not isinstance(elems, frozenset) or not all(isinstance(e, SectorElement) for e in elems):
        raise CertificateError(f"{name} must be a frozenset of SectorElements")


class _DirectChecker:
    """Definition-level feasibility checks used by certificate verification.

    The boundary of the U-completed complex between the grading-0 and
    grading-1 sectors is the fundamental one between even and odd
    generators: ``d_even[k]`` is the boundary of even element k over the odd
    sector and ``d_odd[j]`` that of odd element j over the even sector.
    Every row, and ``boundaries``, the span of ``d_odd`` reduced once for all
    checks, is built up front from the sectors, not from the searches' layout.
    """

    def __init__(self, c: BifilteredComplex):
        self.even, self.odd = sector(c, 0), sector(c, 1)
        self.even_pos = {e: k for k, e in enumerate(self.even)}
        self.odd_pos = {e: j for j, e in enumerate(self.odd)}
        # generator index -> position of its translate within its sector
        pos = {e.index: k for part in (self.even, self.odd) for k, e in enumerate(part)}
        self.d_even = [_mask(pos[j] for j in c.boundary[e.index]) for e in self.even]
        self.d_odd = [_mask(pos[j] for j in c.boundary[e.index]) for e in self.odd]
        self.h0_mask = _mask(pos[i] for i in c.h0_rep)
        self.boundaries = _span({}, self.d_odd)

    def keys(self, t) -> tuple[int, list[int], list[int]]:
        """2b and the keys a*Alex + (2b - a)*alg at t = a/b, 2b times each level, per sector."""
        a, scale = t.numerator, 2 * t.denominator
        return scale, *([a * e.alex + (scale - a) * e.alg for e in part]
                        for part in (self.even, self.odd))

    def class_cycle(self, elems, label: str) -> int:
        """Even-sector mask of ``elems``; CertificateError unless a cycle in the h0 class."""
        if not elems or any(e not in self.even_pos for e in elems):
            raise CertificateError(f"{label} is empty or leaves the grading-0 sector")
        zmask = _mask(self.even_pos[e] for e in elems)
        boundary = 0
        for k in _bits(zmask):
            boundary ^= self.d_even[k]
        if boundary:
            raise CertificateError(f"{label} is not a cycle")
        if _residue(self.boundaries, zmask ^ self.h0_mask):
            raise CertificateError(f"{label} is not homologous to the h0 class")
        return zmask

    def least_class_cycle(self, elems, keys: list, label: str) -> tuple[int, object, int]:
        """Mask of ``elems``, its top key and the even positions at or below it.

        ``keys[k]`` orders even element k.  CertificateError unless ``elems``
        is a cycle in the h0 class and no such cycle lies on the positions
        whose key is strictly below the top key of ``elems``.
        """
        zmask = self.class_cycle(elems, label)
        top = max(keys[k] for k in _bits(zmask))
        below = _mask(k for k, key in enumerate(keys) if key < top)
        if self.merges(below, below, 0):
            raise CertificateError(f"a cycle in the h0 class lies below {label}")
        return zmask, top, _mask(k for k, key in enumerate(keys) if key <= top)

    def merges(self, minus: int, plus: int, odd: int) -> bool:
        """Do class cycles on the even positions in ``minus`` and ``plus`` meet through ``odd``?

        Unknowns x on the even positions in ``minus``, u on the whole odd
        sector and y on the odd positions in ``odd``; the equations
        x + du = h0 (low bits), dx = 0 (middle bits), and x + dy = 0 outside
        ``plus`` (high bits).  A solution gives z_minus = x and z_plus = x + dy
        with w = y.  With ``minus == plus`` and no ``odd``, it asks whether a
        cycle on those positions represents the h0 class.
        """
        ne, no = len(self.even), len(self.odd)
        outside = ((1 << ne) - 1) & ~plus
        xs = ((1 << k) | (self.d_even[k] << ne) | ((outside >> k & 1) << (k + ne + no))
              for k in _bits(minus))
        ys = ((self.d_odd[j] & outside) << (ne + no) for j in _bits(odd))
        return not _residue(_span(self.boundaries, chain(xs, ys)), self.h0_mask)


def upsilon(c: BifilteredComplex) -> PiecewiseLinear:
    """The exact piecewise-linear function -2*gamma on [0, 2].

    Candidate breakpoints are all crossings of pairs of grading-0 level
    lines; between consecutive candidates gamma is verified to be linear by
    evaluating at the midpoint, so a missed breakpoint aborts loudly.
    """
    engine = _SectorEngine(c)
    points = sorted({(y, x) for x, y in zip(*engine.even_grades)})
    candidates = {Fraction(0), Fraction(2)}
    for (a1, x1), (a2, x2) in combinations(points, 2):
        denom = (x1 - a1) - (x2 - a2)
        if denom == 0:
            continue
        t = Fraction(2 * (a2 - a1), denom)
        if 0 < t < 2:
            candidates.add(t)
    graph = [(t, engine.gamma(t)[0]) for t in sorted(candidates)]
    for left, right in zip(graph, graph[1:]):
        mid = (left[0] + right[0]) / 2
        if not _collinear(left, (mid, engine.gamma(mid)[0]), right):
            raise BreakpointVerificationError(
                f"gamma is not linear on [{left[0]}, {right[0]}]: missed breakpoint"
            )
    return PiecewiseLinear(tuple((t, -2 * v) for t, v in graph))
