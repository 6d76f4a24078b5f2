"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results by exhaustive enumeration or by a second
algebraic route, deliberately avoiding the bit-packed elimination engine and
the class-functional shortcut used by the package under test.  GF(2) vectors
are plain 0/1 lists, except in ``SortedEchelon``, the package's former
sorted-row echelon on bitmasks, kept as the reference for the pivot-indexed
one; in ``first_entry_per_batch`` and ``_h0_from_parts``, which run on it;
and in the eager passes near the end, which the lazy sector engine
replaced.  Then comes the walk over the generators that the engine made on
every call before each complex carried its sector layout, the builders'
tuples of named Generator values from before a complex stored its
generators as columns, an expression's generator count as the size guard
takes it, from its factors' counts, and last the recursive-descent scanner
that read knot expressions one character at a time before one compiled
pattern read them a token at a time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, groupby
from math import gcd, prod

from cfk import (
    Generator,
    InvalidTorusKnotError,
    KnotExpressionError,
    UnsupportedComplexError,
    alexander_torus,
    sector,
    step_vector,
)
from cfk.complexes import _mask, torus_knot_size
from cfk.expressions import _MAX_NESTING, parse_knot_factors
from cfk.upsilon import _DirectChecker, level
from cfk.upsilon2 import Gamma2Certificate, MergeWitness


def replace(record, **changes):
    """A copy of one of the package's namedtuple records with some fields changed."""
    return record._replace(**changes)


# ---------------------------------------------------------------------------
# naive GF(2) linear algebra on 0/1 lists


def list_xor(a, b):
    return [x ^ y for x, y in zip(a, b)]


def list_reduce(basis, vec):
    """Reduce vec against a list of echelon rows (leading-one positions)."""
    vec = list(vec)
    for row in basis:
        lead = row.index(1)
        if vec[lead]:
            vec = list_xor(vec, row)
    return vec


def list_echelon(vectors):
    basis = []
    for vec in vectors:
        vec = list_reduce(basis, vec)
        if any(vec):
            basis.append(vec)
            basis.sort(key=lambda r: r.index(1))
    return basis


def list_in_span(vectors, target):
    return not any(list_reduce(list_echelon(vectors), target))


def oracle_mask(vec) -> int:
    """The 0/1 list vec as a bitmask, entry k at bit k."""
    return sum(bit << k for k, bit in enumerate(vec))


class SortedEchelon:
    """Reference for ``cfk.f2linalg.Echelon``: rows kept in a list sorted by pivot.

    Reduction walks every row in pivot order and XORs in each one whose
    pivot (lowest set bit) is set; insertion scans for the row's place.
    """

    def __init__(self):
        self._rows = []  # (pivot, vector, tag)
        self.kernel = []

    @property
    def rank(self):
        return len(self._rows)

    def _reduce(self, vec, tag):
        for pivot, row, row_tag in self._rows:
            if vec & pivot:
                vec ^= row
                tag ^= row_tag
        return vec, tag

    def add(self, vec, tag=0):
        """Insert vec; the pivot bit of the row it stored, 0 if none."""
        vec, tag = self._reduce(vec, tag)
        if vec == 0:
            self.kernel.append(tag)
            return 0
        pivot = vec & -vec
        lo = 0
        while lo < len(self._rows) and self._rows[lo][0] < pivot:
            lo += 1
        self._rows.insert(lo, (pivot, vec, tag))
        return pivot

    def reduce_with_tag(self, vec):
        return self._reduce(vec, 0)

    def contains(self, vec):
        return self._reduce(vec, 0)[0] == 0


def first_entry_per_batch(batches, target):
    """Reference for ``cfk.f2linalg.first_entry``, as it was before it tracked target.

    After every batch target is reduced from scratch against the rows fed so
    far; returns (threshold, witness, kernel) like the package's.
    """
    ech = SortedEchelon()
    for threshold, columns in batches:
        for vec, tag in columns:
            ech.add(vec, tag)
        residue, witness = ech.reduce_with_tag(target)
        if residue == 0:
            return threshold, witness, ech.kernel
    return None, None, ech.kernel


def _h0_from_parts(gens, bnd) -> frozenset[int]:
    """The h0 representative by two eliminations, as ``cfk.complexes.dual`` once found it.

    It reduces the grading-0 cycles modulo the grading-1 boundaries and takes
    the first cycle left over; UnsupportedComplexError unless that homology
    has rank one.  The echelons are the sorted-row reference above.
    """
    zeros = [i for i, g in enumerate(gens) if g.maslov == 0]
    ones = [i for i, g in enumerate(gens) if g.maslov == 1]
    pos = {i: k for k, i in enumerate(zeros)}
    cycles = SortedEchelon()
    for b, i in enumerate(zeros):
        cycles.add(_mask(bnd[i]), 1 << b)
    kernel = cycles.kernel
    boundaries = SortedEchelon()
    for f in ones:
        boundaries.add(_mask(pos[t] for t in bnd[f]))
    residues = [k for k in kernel if not boundaries.contains(k)]
    if len(kernel) - boundaries.rank != 1 or not residues:
        raise UnsupportedComplexError(
            "not a knot-like complex in scope: homology in grading 0 must have rank one"
        )
    k = residues[0]
    return frozenset(zeros[b] for b in range(len(zeros)) if (k >> b) & 1)


# ---------------------------------------------------------------------------
# the semigroup <p, q> listed element by element, and the Alexander
# polynomial telescoped from it: sum of t^s - t^(s+1) over the elements below
# the conductor (p-1)(q-1), above which every integer is in the semigroup


def conductor(p: int, q: int) -> int:
    """Least integer above which every integer lies in the semigroup."""
    return (p - 1) * (q - 1)


def semigroup_elements(p: int, q: int, bound: int) -> list[int]:
    """All elements np + mq <= bound with n, m >= 0, sorted and deduplicated."""
    if not 2 <= p < q or gcd(p, q) != 1:
        raise InvalidTorusKnotError(f"need coprime 2 <= p < q, got ({p}, {q})")
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


def alexander_by_telescoping(p: int, q: int) -> tuple[int, ...]:
    """Exponents of the torus-knot Alexander polynomial; its signs alternate."""
    c = conductor(p, q)
    coeffs: dict[int, int] = {}
    for s in semigroup_elements(p, q, c):
        if s < c:
            coeffs[s] = coeffs.get(s, 0) + 1
            coeffs[s + 1] = coeffs.get(s + 1, 0) - 1
    coeffs[c] = coeffs.get(c, 0) + 1
    exps = sorted(k for k, v in coeffs.items() if v != 0)
    assert [coeffs[e] for e in exps] == [(-1) ** i for i in range(len(exps))]
    return tuple(exps)


# ---------------------------------------------------------------------------
# Upsilon in closed form: of T(p, q) from its staircase vertices, of a sum
# from its signed factors


def staircase_vertices(p: int, q: int) -> list[tuple[int, int]]:
    """(alg, alex) of the grading-0 vertices of the staircase of T(p, q).

    The steps are the gaps between consecutive Alexander exponents; the path
    starts at (0, g) and alternates a step right with a step down.
    """
    exps = alexander_by_telescoping(p, q)
    steps = [b - a for a, b in zip(exps, exps[1:])]
    alg, alex = 0, sum(steps[1::2])
    vertices = [(alg, alex)]
    for right, down in zip(steps[::2], steps[1::2]):
        alg, alex = alg + right, alex - down
        vertices.append((alg, alex))
    return vertices


def closed_form_upsilon(factors) -> tuple[tuple[Fraction, Fraction], ...]:
    """Canonical breakpoints of Upsilon of the sum of the factors (sign, p, q), 2 <= p < q.

    Upsilon of T(p, q) is -2 times the lower envelope of its vertex lines
    (t/2)*Alex + (1 - t/2)*alg, a mirror negates it and a sum adds, so every
    breakpoint lies where two vertex lines of one factor cross.
    """
    ts, parts = {Fraction(0), Fraction(2)}, []
    for sign, p, q in factors:
        lines = [(Fraction(alex - alg, 2), Fraction(alg)) for alg, alex in staircase_vertices(p, q)]
        parts.append((sign, lines))
        for (s1, c1), (s2, c2) in combinations(lines, 2):
            if s1 != s2 and 0 < (c2 - c1) / (s1 - s2) < 2:
                ts.add((c2 - c1) / (s1 - s2))
    points = [(t, sum(-2 * sign * min(c + s * t for s, c in lines) for sign, lines in parts))
              for t in sorted(ts)]
    out = points[:2]
    for t, v in points[2:]:
        (t0, v0), (t1, v1) = out[-2], out[-1]
        if (v1 - v0) * (t - t1) == (v - v1) * (t1 - t0):
            out[-1] = (t, v)  # collinear: drop the middle point
        else:
            out.append((t, v))
    return tuple(out)


# ---------------------------------------------------------------------------
# Alexander polynomial by exact polynomial division:
# (t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _poly_divexact(num, den):
    num = list(num)
    deg_d = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - deg_d)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + deg_d]
        assert c % lead == 0
        q = c // lead
        out[i] = q
        if q:
            for j, cd in enumerate(den):
                num[i + j] -= q * cd
    assert not any(num)
    return out


def alexander_by_division(p: int, q: int):
    """Signed exponent list of the torus-knot Alexander polynomial."""

    def cyclotomic_like(n):
        return [-1] + [0] * (n - 1) + [1]  # t^n - 1

    num = _poly_mul(cyclotomic_like(p * q), cyclotomic_like(1))
    den = _poly_mul(cyclotomic_like(p), cyclotomic_like(q))
    coeffs = _poly_divexact(num, den)
    return [(e, c) for e, c in enumerate(coeffs) if c != 0]


# ---------------------------------------------------------------------------
# exhaustive gamma


def level_slope(e) -> Fraction:
    """d(level)/dt of a sector element, constant in t: (Alex - alg) / 2."""
    return Fraction(e.alex - e.alg, 2)


class SectorTables:
    """Index tables for the grading 0/1 sectors of a complex."""

    def __init__(self, c):
        self.complex = c
        self.even = sector(c, 0)
        self.odd = sector(c, 1)
        even_pos = {}
        odd_pos = {}
        for i, g in enumerate(c.generators):
            if g.maslov % 2 == 0:
                even_pos[i] = len(even_pos)
            else:
                odd_pos[i] = len(odd_pos)
        ne, no = len(even_pos), len(odd_pos)
        self.d_even = []
        self.d_odd = []
        for i, g in enumerate(c.generators):
            row = None
            if g.maslov % 2 == 0:
                row = [0] * no
                for j in c.boundary[i]:
                    row[odd_pos[j]] = 1
                self.d_even.append(row)
            else:
                row = [0] * ne
                for j in c.boundary[i]:
                    row[even_pos[j]] = 1
                self.d_odd.append(row)
        self.h0 = [0] * ne
        for i in c.h0_rep:
            self.h0[even_pos[i]] = 1

    def boundary_of_even_subset(self, subset):
        out = [0] * len(self.odd)
        for k in subset:
            out = list_xor(out, self.d_even[k])
        return out

    def class_cycles(self, positions):
        """All subsets of the given even positions that are cycles in the
        distinguished class, each returned as a 0/1 vector."""
        image = list_echelon(self.d_odd)
        found = []
        for r in range(1, len(positions) + 1):
            for subset in combinations(positions, r):
                if any(self.boundary_of_even_subset(subset)):
                    continue
                vec = [0] * len(self.even)
                for k in subset:
                    vec[k] = 1
                if not any(list_reduce(image, list_xor(vec, self.h0))):
                    found.append(vec)
        return found


def brute_gamma(c, t) -> Fraction:
    """min over class cycles of the maximum level of their support."""
    tables = SectorTables(c)
    n = len(tables.even)
    if n > 14:
        raise ValueError("complex too large for the exhaustive gamma oracle")
    levels = [level(t, e) for e in tables.even]
    best = None
    for vec in tables.class_cycles(range(n)):
        top = max(lv for k, lv in enumerate(levels) if vec[k])
        if best is None or top < best:
            best = top
    assert best is not None
    return best


def brute_gamma2(c, t0, ups) -> Fraction:
    """Exhaustive minimal merge threshold over all (z-, z+, w) triples."""
    tables = SectorTables(c)
    value, left, right = ups.value_and_slopes(t0)
    gamma0 = -value / 2
    gamma_slopes = {-1: -left / 2, 1: -right / 2}
    levels = [level(t0, e) for e in tables.even]
    slopes = [level_slope(e) for e in tables.even]

    sums = set()  # z_minus + z_plus as masks over the even sector
    for sign in (-1, 1):
        key = (gamma0, sign * gamma_slopes[sign])
        adm = [k for k in range(len(tables.even))
               if (levels[k], sign * slopes[k]) <= key]
        if len(adm) > 10:
            raise ValueError("side too large for the exhaustive oracle")
        side = tables.class_cycles(adm)
        assert side, "each side of a singularity must carry the class"
        if sign == -1:
            minus_cycles = side
        else:
            plus_cycles = side
    for zm in minus_cycles:
        for zp in plus_cycles:
            sums.add(oracle_mask(list_xor(zm, zp)))

    # every subset w of the admissible grading-1 elements, in Gray-code order:
    # the i-th subset differs from the one before it by the element at the
    # lowest set bit of i, so dw takes one XOR of that element's boundary mask
    d_odd = [oracle_mask(row) for row in tables.d_odd]
    odd_levels = [level(t0, e) for e in tables.odd]
    thresholds = sorted({gamma0} | {lv for lv in odd_levels if lv > gamma0})
    for r in thresholds:
        allowed = [j for j, lv in enumerate(odd_levels) if lv <= r]
        if len(allowed) > 16:
            raise ValueError("too many admissible grading-1 elements to enumerate")
        dw = 0
        if dw in sums:
            return r
        for i in range(1, 1 << len(allowed)):
            dw ^= d_odd[allowed[(i & -i).bit_length() - 1]]
            if dw in sums:
                return r
    raise AssertionError("the sides never merged; this cannot happen")


# ---------------------------------------------------------------------------
# the eager side and gamma2 passes that the lazy sector engine replaced:
# whole integer tables, tuple keys, every batch built by one full sort, every
# grading-1 column fed (those below gamma at gamma) and target reduced after
# every batch.  Same elimination order, so same pivots and tags: below gamma
# the elements go in by level, at gamma by side slope, and the null cycles
# below gamma seed the gamma2 pass once.


def _eager_batches(thresholds, columns):
    order = sorted(range(len(columns)), key=thresholds.__getitem__)
    return [(value, [columns[k] for k in group])
            for value, group in groupby(order, key=thresholds.__getitem__)]


def _positions(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def eager_side(c, t0, sign):
    """(jet, class cycle, null cycles below gamma, null cycles at gamma) at t0 + sign*delta.

    gamma comes from a pass on the levels 2b*level at t0 = a/b alone.  The
    side's keys are (2b*level, 0) below gamma and (2b*gamma, 2*sign*slope)
    at it, so ties below gamma keep sector order.  The columns [d(e); lam(e)]
    of every even element are built before the search.
    """
    tables = _DirectChecker(c)
    # c.lam is indexed by generator; U-translates keep the generator order
    even_ids = [i for i, g in enumerate(c.generators) if g.maslov % 2 == 0]
    last = 1 << len(tables.d_odd)
    columns = [(d | last if c.lam >> i & 1 else d, 1 << k)
               for k, (i, d) in enumerate(zip(even_ids, tables.d_even))]
    a, b = t0.numerator, t0.denominator
    even = sector(c, 0)
    levels = [a * e.alex + (2 * b - a) * e.alg for e in even]
    by_level = _eager_batches(levels, columns)
    gamma, _, _ = first_entry_per_batch(by_level, last)
    below_gamma = [batch for batch in by_level if batch[0] < gamma]
    entered, _, below = first_entry_per_batch(below_gamma, last)
    assert entered is None
    keys = [(lv, sign * (e.alex - e.alg) if lv == gamma else 0) for lv, e in zip(levels, even)]
    key, z0, null_cycles = first_entry_per_batch(_eager_batches(keys, columns), last)
    assert key[0] == gamma and null_cycles[:len(below)] == below
    jet = (Fraction(key[0], 2 * b), Fraction(sign * key[1], 2))
    return jet, z0, below, null_cycles[len(below):]


def eager_gamma2(c, t0) -> Gamma2Certificate:
    """gamma2 at a positive singularity t0, every grading-1 column built first."""
    (gamma0, _), z0m, below, null_m = eager_side(c, t0, -1)
    _, z0p, _, null_p = eager_side(c, t0, 1)
    tables = _DirectChecker(c)
    even, odd = sector(c, 0), sector(c, 1)
    n_odd = len(odd)
    seed = [(v, v << n_odd) for v in below + null_m] + [(v, 0) for v in null_p]
    scale = 2 * t0.denominator
    floor = int(gamma0 * scale)
    thresholds = [max(level(t0, e) * scale, floor) for e in odd]
    columns = [(d, 1 << j) for j, d in enumerate(tables.d_odd)]
    r_star, tag, _ = first_entry_per_batch(
        [(floor, seed)] + _eager_batches(thresholds, columns), z0m ^ z0p)
    wmask = tag & ((1 << n_odd) - 1)
    zm = z0m ^ (tag >> n_odd)
    zp = zm
    for j in _positions(wmask):
        zp ^= tables.d_odd[j]
    witness = MergeWitness(
        z_minus=frozenset(even[k] for k in _positions(zm)),
        z_plus=frozenset(even[k] for k in _positions(zp)),
        w=frozenset(odd[j] for j in _positions(wmask)),
    )
    return Gamma2Certificate(t0=t0, gamma=gamma0, gamma2=Fraction(r_star, scale),
                             witness=witness)


# ---------------------------------------------------------------------------
# the sector layout as the engine walked it on every call before each
# complex carried its own: plain lists, grades as (Alex, alg) pairs


def sector_layout(c):
    """(even_ids, odd_ids), (even_grades, odd_grades) and position.

    Element k of the grading-0 sector is generator ``even_ids[k]`` shifted
    by U^(maslov // 2), with (Alex, alg) ``even_grades[k]`` (likewise for
    grading 1); ``position[i]`` is the position of generator i within its
    sector.
    """
    ids, grades = ([], []), ([], [])  # by parity of the grading
    position = []
    for i, g in enumerate(c.generators):
        parity, shift = g.maslov & 1, g.maslov >> 1
        position.append(len(ids[parity]))
        ids[parity].append(i)
        grades[parity].append((g.alex - shift, g.alg - shift))
    return ids, grades, position


# ---------------------------------------------------------------------------
# the generators as the builders made them before a complex stored them as
# columns: a tuple of Generator values, each with its name


def eager_staircase_generators(steps) -> tuple[Generator, ...]:
    """x0, x1, ... on the lattice points of the staircase path, vertices in grading 0."""
    x, y = 0, sum(steps.vertical)
    pts = [(x, y)]
    for k, b in enumerate(steps.steps):
        if k % 2 == 0:
            x += b
        else:
            y -= b
        pts.append((x, y))
    return tuple(Generator(f"x{i}", px, py, i % 2) for i, (px, py) in enumerate(pts))


def eager_tensor_generators(gs, hs) -> tuple[Generator, ...]:
    """(a|b) for each a of gs and then each b of hs, grades added."""
    return tuple(Generator(f"({a.name}|{b.name})", a.alg + b.alg, a.alex + b.alex,
                           a.maslov + b.maslov) for a in gs for b in hs)


def eager_dual_generators(gs) -> tuple[Generator, ...]:
    return tuple(Generator(g.name + "'", -g.alg, -g.alex, -g.maslov) for g in gs)


def eager_box_generators(gs, corner_alg, corner_alex, width, height, top_maslov):
    k = len(gs)
    return gs + (Generator(f"box{k}t", corner_alg, corner_alex, top_maslov),
                 Generator(f"box{k}b", corner_alg - width, corner_alex - height,
                           top_maslov - 1))


def eager_expression_generators(text: str) -> tuple[Generator, ...]:
    """The generators of parse_knot_expression(text), one factor after another."""
    parts = []
    for sign, p, q in parse_knot_factors(text):
        a, b = min(p, q), max(p, q)
        gs = ((Generator("u0", 0, 0, 0),) if a == 1
              else eager_staircase_generators(step_vector(alexander_torus(a, b))))
        parts.append(eager_dual_generators(gs) if sign < 0 else gs)
    return reduce(eager_tensor_generators, parts)


# ---------------------------------------------------------------------------
# the generator count of an expression, without building its complex


def expression_size(text: str) -> int:
    """Generator count of the complex of text: tensor products multiply, mirrors keep."""
    return prod(torus_knot_size(p, q) for _, p, q in parse_knot_factors(text))


# ---------------------------------------------------------------------------
# knot expressions, read one character at a time by recursive descent


class ExpressionScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, message: str):
        raise KnotExpressionError(message, self.pos)

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            digits, self.pos = self.pos - start, start
            self.fail(f"integer of {digits} digits is too long")

    def expr(self, sign: int) -> list[tuple[int, int, int]]:
        factors = self.term(sign)
        while self.peek() == "#":
            self.pos += 1
            factors.extend(self.term(sign))
        return factors

    def term(self, sign: int) -> list[tuple[int, int, int]]:
        if self.peek() == "-":
            self.pos += 1
            sign = -sign
        ch = self.peek()
        if ch == "T":
            self.pos += 1
            self.expect("(")
            p = self.integer()
            self.expect(",")
            q = self.integer()
            self.expect(")")
            return [(sign, p, q)]
        if ch == "(":
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            factors = self.expr(sign)
            self.expect(")")
            self.depth -= 1
            return factors
        self.fail("expected 'T(p,q)' or a parenthesised expression")


def scanned_knot_factors(text: str) -> tuple[tuple[int, int, int], ...]:
    """parse_knot_factors(text) by recursive descent, one character at a time."""
    scanner = ExpressionScanner(text)
    factors = scanner.expr(1)
    scanner.skip_ws()
    if scanner.pos != len(text):
        scanner.fail("unexpected trailing input")
    return tuple(factors)
