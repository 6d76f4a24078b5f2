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

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .complexes import BifilteredComplex, Generator, _bits, _mask
from .exactnum import PiecewiseLinear, _collinear, check_parameter
from .f2linalg import Echelon, by_threshold, first_entry, in_span


class CertificateError(RuntimeError):
    """A certificate failed independent re-verification."""


class BreakpointVerificationError(RuntimeError):
    """gamma was not linear between consecutive candidate breakpoints.

    This indicates a missed breakpoint candidate; the computation aborts
    rather than interpolate silently.
    """


@dataclass(frozen=True)
class SectorElement:
    """A U-translate of a generator, pinned to one homological grading."""

    generator: Generator
    u_power: int

    @property
    def alg(self) -> int:
        return self.generator.alg - self.u_power

    @property
    def alex(self) -> int:
        return self.generator.alex - self.u_power

    @property
    def maslov(self) -> int:
        return self.generator.maslov - 2 * self.u_power


def sector(c: BifilteredComplex, m: int) -> tuple[SectorElement, ...]:
    """All U-translates of generators with effective grading m.

    Each generator whose grading differs from m by an even number contributes
    exactly one translate, so the sector is finite and listed in generator
    order.
    """
    out = []
    for g in c.generators:
        shift = g.maslov - m
        if shift % 2 == 0:
            out.append(SectorElement(g, shift // 2))
    return tuple(out)


def level(t, e: SectorElement) -> Fraction:
    """Exact filtration level (t/2)*Alex + (1 - t/2)*alg of e at parameter t."""
    t = check_parameter(t)
    half = t / 2
    return half * e.alex + (1 - half) * e.alg


def level_slope(e: SectorElement) -> Fraction:
    """d(level)/dt, constant in t: (Alex - alg) / 2."""
    return Fraction(e.alex - e.alg, 2)


@dataclass(frozen=True)
class GammaCertificate:
    """Witness for gamma(t) = s: a minimal-level cycle in the h0 class."""

    t: Fraction
    s: Fraction
    cycle: tuple[SectorElement, ...]
    levels: tuple[Fraction, ...]


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
    ``odd_ids`` and ``odd_grades`` its grading-1 part.  Boundary rows
    (``d_even[k]``, ``d_odd[j]``, as in :class:`_DirectChecker`) and the
    columns the searches feed, ``class_columns[k]`` = ([d(e); lam(e)],
    1 << k) for even element k and ``odd_columns[j]`` = (d_odd[j], 1 << j),
    are built on first lookup and kept on this engine, so a query pays only
    for the elements that enter its filtrations.

    The functional lam is the complex's own ``c.lam``.  Every complex has
    completed grading-0 homology of rank one, so a cycle z represents the
    distinguished class exactly when lam(z) = 1, and is a boundary otherwise.
    """

    def __init__(self, c: BifilteredComplex):
        self.generators = c.generators
        (even_ids, odd_ids), (self.even_grades, self.odd_grades), position = c.layout
        self.even_ids, self.odd_ids = even_ids, odd_ids
        get, rows = position.__getitem__, c.boundary
        self.d_even = d_even = _Memo(lambda k: _mask(map(get, rows[even_ids[k]])))
        self.d_odd = d_odd = _Memo(lambda j: _mask(map(get, rows[odd_ids[j]])))
        lam, last = c.lam, 1 << len(odd_ids)  # lam is indexed by generator
        self.class_columns = _Memo(
            lambda k: (d_even[k] | last if lam >> even_ids[k] & 1 else d_even[k], 1 << k))
        self.odd_columns = _Memo(lambda j: (d_odd[j], 1 << j))

    def elements(self, ids, mask: int) -> list[SectorElement]:
        """The elements of the sector of ``ids`` set in ``mask``, in sector order.

        They are built on demand, each with its generator and that
        generator's name.
        """
        gens = self.generators
        return [SectorElement(g, g.maslov >> 1) for g in (gens[ids[k]] for k in _bits(mask))]

    def entry(self, keys: list):
        """First key at which the class is reachable, a cycle in it, and null cycles.

        Columns [d(e); lam(e)] enter in the order of ``keys`` (one per even
        element) until the pure-lam target reduces to zero.  The witness tag
        is the cycle and the kernel tags are cycles with lam = 0: boundaries.
        Cycles are bitmasks over the even sector.
        """
        key, cycle, null_cycles = first_entry(by_threshold(keys, self.class_columns),
                                              1 << len(self.odd_ids))
        if key is None:
            raise AssertionError("the distinguished class was not reachable at any level")
        return key, cycle, null_cycles

    def gamma(self, t) -> tuple[Fraction, int]:
        """Minimal threshold and a witness cycle (bitmask over the even sector)."""
        half = check_parameter(t) / 2
        return self.entry([half * x + (1 - half) * y for x, y in zip(*self.even_grades)])[:2]

    def sides(self, t0: Fraction):
        """Null cycles below gamma at t0, then (jet, class cycle, null cycles) for each side.

        One pass feeds the class columns a level at a time, in order of level
        at t0 with ties in sector order, until the class enters at gamma.
        Each side t0 + sign*delta then resumes from the echelon as it stood
        below gamma and feeds the elements at gamma in sign*slope order, the
        order of their levels just beside t0, so its entry key is the side
        gamma jet.  On both sides every element below gamma goes in before
        any at gamma, and the class enters at gamma, so each side's jet and
        the spans of its cycles are those of a pass in (level, sign*slope)
        order, while the elements below gamma are fed once.  A side's null
        cycles are the ones it adds to those below gamma.
        """
        levels = _scaled_levels(t0, self.even_grades)
        target, ech = 1 << len(self.odd_ids), Echelon()
        for gamma, batch in by_threshold(levels, self.class_columns):
            rows, shared = ech.rank, len(ech.kernel)
            if first_entry([(gamma, batch)], target, ech)[0] is not None:
                break
        else:
            raise AssertionError("the distinguished class was not reachable at any level")
        alex, alg = self.even_grades
        slopes = [alex[k] - alg[k] for k, lv in enumerate(levels) if lv == gamma]
        out = [ech.kernel[:shared]]
        for sign in (-1, 1):
            slope, z0, null_cycles = first_entry(
                by_threshold([sign * s for s in slopes], batch), target, ech.prefix(rows, shared))
            jet = (Fraction(gamma, 2 * t0.denominator), Fraction(sign * slope, 2))
            out.append((jet, z0, null_cycles[shared:]))
        return tuple(out)

    def odd_batches(self, t0: Fraction, floor: int):
        """Grading-1 columns batched by their scaled level at t0, from floor up.

        Elements below floor are left out, and their columns never built.
        """
        return by_threshold(_scaled_levels(t0, self.odd_grades), self.odd_columns, floor)


def _scaled_levels(t0: Fraction, grades) -> list[int]:
    """2b times the level at t0 = a/b of each element: a*Alex + (2b - a)*alg."""
    a, c = t0.numerator, 2 * t0.denominator - t0.numerator
    return [a * x + c * y for x, y in zip(*grades)]


def gamma_at(c: BifilteredComplex, t) -> GammaCertificate:
    """gamma(t) with a re-checkable witness cycle."""
    engine = _SectorEngine(c)
    t = check_parameter(t)
    s, combo = engine.gamma(t)
    elems = tuple(engine.elements(engine.even_ids, combo))
    levels = tuple(level(t, e) for e in elems)
    assert max(levels) == s
    return GammaCertificate(t=t, s=s, cycle=elems, levels=levels)


def verify_gamma_certificate(c: BifilteredComplex, cert: GammaCertificate) -> None:
    """Re-check a certificate directly from the definitions.

    Verifies the cycle condition, the homology condition against the full
    grading-1 sector, the level bound, and minimality over thresholds; none
    of it reuses the class functional that guided the original search.
    """
    _check_exact(cert.t, "t")
    _check_exact(cert.s, "s")
    if not isinstance(cert.levels, tuple):
        raise CertificateError("levels must be a tuple")
    for lv in cert.levels:
        _check_exact(lv, "every level")
    if not 0 <= cert.t <= 2:
        raise CertificateError("t must lie in [0, 2]")
    if len(set(cert.cycle)) != len(cert.cycle):
        raise CertificateError("certificate cycle repeats an element")
    tables = _DirectChecker(c)
    keys = [level(cert.t, e) for e in tables.even]
    _, top, _ = tables.least_class_cycle(cert.cycle, keys, "certificate cycle")
    if tuple(level(cert.t, e) for e in cert.cycle) != cert.levels:
        raise CertificateError("stored levels do not match recomputation")
    if top != cert.s:
        raise CertificateError("threshold is not attained by the support")


def _check_exact(value, name: str) -> None:
    """CertificateError unless value is an int or a Fraction (a bool is neither here)."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise CertificateError(
            f"{name} must be an int or a Fraction, got {type(value).__name__}")


class _DirectChecker:
    """Definition-level feasibility checks used by certificate verification.

    The boundary of the U-completed complex between the grading-0 and
    grading-1 sectors is the fundamental one between even and odd
    generators: ``d_even[k]`` is the boundary of even element k over the odd
    sector and ``d_odd[j]`` that of odd element j over the even sector.
    Every row is built up front, as the checks read them all, from the
    sectors themselves and not from the searches' layout.
    """

    def __init__(self, c: BifilteredComplex):
        # (generator index, translate) of the grading-0 and grading-1 sectors,
        # each generator built once, in generator order as in sector()
        parts = ([], [])
        for i, g in enumerate(c.generators):
            parts[g.maslov & 1].append((i, SectorElement(g, g.maslov >> 1)))
        self.even = tuple(e for _, e in parts[0])
        self.odd = tuple(e for _, e in parts[1])
        self.even_pos = {e: k for k, e in enumerate(self.even)}
        self.odd_pos = {e: j for j, e in enumerate(self.odd)}
        # generator index -> position of its translate within its sector
        pos = {i: k for part in parts for k, (i, _) in enumerate(part)}
        self.d_even = [_mask(pos[j] for j in c.boundary[i]) for i, _ in parts[0]]
        self.d_odd = [_mask(pos[j] for j in c.boundary[i]) for i, _ in parts[1]]
        self.h0_mask = _mask(pos[i] for i in c.h0_rep)

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
        if not in_span(self.d_odd, zmask ^ self.h0_mask):
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
        if self.feasible(_mask(k for k, key in enumerate(keys) if key < top)):
            raise CertificateError(f"a cycle in the h0 class lies below {label}")
        return zmask, top, _mask(k for k, key in enumerate(keys) if key <= top)

    def feasible(self, allowed: int) -> bool:
        """Does a cycle on the even positions in ``allowed`` represent the h0 class?

        Unknowns z on those positions and u on the whole odd sector; the
        equations z + du = h0 (low bits) and dz = 0 (high bits).
        """
        shift = len(self.even)
        columns = [(1 << k) | (self.d_even[k] << shift) for k in _bits(allowed)]
        return in_span(columns + self.d_odd, self.h0_mask)

    def merges(self, minus: int, plus: int, odd_levels: list[Fraction],
               r: Fraction) -> bool:
        """Do the class cycles on two admissible sets meet within level r?

        Unknowns x on the even positions in ``minus``, u on the whole odd
        sector and y on the odd elements of level at most r; the equations
        x + du = h0, dx = 0, and x + dy = 0 outside ``plus``.  A solution
        gives z_minus = x and z_plus = x + dy with w = y.
        """
        ne, no = len(self.even), len(self.odd)
        outside = ((1 << ne) - 1) & ~plus
        columns = [
            (1 << k) | (self.d_even[k] << ne) | ((outside >> k & 1) << (k + ne + no))
            for k in _bits(minus)
        ]
        columns += self.d_odd
        columns += [
            (d & outside) << (ne + no) for d, lv in zip(self.d_odd, odd_levels) if lv <= r
        ]
        return in_span(columns, self.h0_mask)


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
