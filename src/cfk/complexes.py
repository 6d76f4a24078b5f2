"""Bifiltered GF(2) chain complexes generated by torus-knot staircases.

A complex stores one fundamental copy of its generators together with the
boundary map and a distinguished degree-0 homology representative.  The
U-action shifting filtration by (-1,-1) and grading by -2 is kept implicit;
whole graded sectors of the U-completed complex are enumerated on demand in
:mod:`cfk.upsilon`.

Every constructor validates the chain-complex axioms: the boundary drops the
grading by exactly one, never increases either filtration, squares to zero,
and the distinguished representative is a cycle that is not a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from .f2linalg import Echelon, in_span
from .semigroup import (
    InvalidTorusKnotError,
    StepVector,
    _exponent_runs,
    alexander_torus,
    step_vector,
)


class UnsupportedComplexError(ValueError):
    """The complex is not of the knot-like shape this package handles."""


class KnotExpressionError(ValueError):
    """Syntax error in a knot expression, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class Generator:
    """One bifiltered basis element."""

    name: str
    alg: int
    alex: int
    maslov: int


@dataclass(frozen=True)
class BifilteredComplex:
    """Finite generator set, GF(2) boundary, and a distinguished H_0 cycle.

    ``boundary[i]`` is the strictly increasing tuple of generator indices
    appearing in the boundary of ``generators[i]``; any iterable of indices
    is accepted and normalised to that form, and a row already in it is kept
    as the same object.  ``h0_rep`` is the index set of a degree-0 cycle
    generating the homology of the fundamental copy.
    """

    generators: tuple[Generator, ...]
    boundary: tuple[tuple[int, ...], ...]
    h0_rep: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "boundary", tuple(self.boundary))
        object.__setattr__(self, "h0_rep", frozenset(self.h0_rep))
        if not self._validate():
            object.__setattr__(self, "boundary", tuple(
                tuple(sorted(set(targets))) for targets in self.boundary))
            self._validate()

    def _validate(self) -> bool:
        """Raise ValueError on a broken axiom; False if a boundary row is not canonical.

        A canonical row is a strictly increasing tuple of indices.  The checks
        stop at the first row that is not, before the rows are read as masks.
        """
        gens, bnd, rep = self.generators, self.boundary, self.h0_rep
        n = len(gens)
        if len(bnd) != n:
            raise ValueError("boundary table size does not match generator count")
        if len({g.name for g in gens}) != n:
            raise ValueError("generator names must be unique")
        for i, targets in enumerate(bnd):
            if type(targets) is not tuple:
                return False
            g = gens[i]
            prev = -1
            for j in targets:
                if not prev < j < n:
                    if 0 <= j < n:
                        return False
                    raise ValueError(f"boundary of {g.name} references a missing generator")
                prev = j
                h = gens[j]
                if h.maslov != g.maslov - 1:
                    raise ValueError("boundary must drop the grading by exactly 1")
                if h.alg > g.alg or h.alex > g.alex:
                    raise ValueError("boundary must not increase either filtration")
        masks = [_mask(targets) for targets in bnd]
        for i in range(n):
            acc = 0
            for j in bnd[i]:
                acc ^= masks[j]
            if acc:
                raise ValueError(f"boundary does not square to zero at {gens[i].name}")
        if not rep:
            raise ValueError("the distinguished homology representative is empty")
        acc = 0
        for i in rep:
            if not 0 <= i < n:
                raise ValueError("h0 representative references a missing generator")
            if gens[i].maslov != 0:
                raise ValueError("h0 representative must be supported in grading 0")
            acc ^= masks[i]
        if acc:
            raise ValueError("h0 representative is not a cycle")
        image = [masks[i] for i in range(n) if gens[i].maslov == 1]
        if in_span(image, _mask(rep)):
            raise ValueError("h0 representative is a boundary")
        return True

    def to_json_dict(self) -> dict:
        gens = self.generators
        return {
            "generators": [
                {"id": g.name, "alg": g.alg, "alex": g.alex, "maslov": g.maslov}
                for g in gens
            ],
            "boundary": {
                gens[i].name: [gens[j].name for j in self.boundary[i]]
                for i in range(len(gens))
            },
            "h0_rep": [gens[i].name for i in sorted(self.h0_rep)],
        }


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def trivial_complex() -> BifilteredComplex:
    """One generator at (0, 0), grading 0: the unknot complex."""
    return BifilteredComplex(
        (Generator("u0", 0, 0, 0),), ((),), frozenset({0})
    )


def staircase_complex(steps: StepVector) -> BifilteredComplex:
    """Complex on the lattice points of the staircase path.

    The path starts at (0, V) with V the total vertical drop, alternates
    horizontal-right and vertical-down moves of the given lengths, and ends
    at (V, 0).  Even path positions (vertices) sit in grading 0; odd ones
    (corners) sit in grading 1 with boundary the two neighbouring vertices.
    """
    x, y = 0, sum(steps.vertical)
    pts = [(x, y)]
    for k, b in enumerate(steps.steps):
        if k % 2 == 0:
            x += b
        else:
            y -= b
        pts.append((x, y))
    gens = tuple(
        Generator(f"x{i}", px, py, i % 2) for i, (px, py) in enumerate(pts)
    )
    bnd = tuple((i - 1, i + 1) if i % 2 else () for i in range(len(pts)))
    return BifilteredComplex(gens, bnd, frozenset({0}))


def tensor(c: BifilteredComplex, d: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over GF(2); filtrations and gradings add."""
    nd = len(d.generators)
    gens = []
    bnd = []
    for i, (a, crow) in enumerate(zip(c.generators, c.boundary)):
        # generator (i, j) has index i * nd + j
        scaled, base = [i2 * nd for i2 in crow], i * nd
        for j, (b, drow) in enumerate(zip(d.generators, d.boundary)):
            gens.append(
                Generator(f"({a.name}|{b.name})", a.alg + b.alg, a.alex + b.alex,
                          a.maslov + b.maslov)
            )
            bnd.append(tuple(sorted([x + j for x in scaled] + [base + y for y in drow])))
    rep = frozenset(i * nd + j for i in c.h0_rep for j in d.h0_rep)
    return BifilteredComplex(tuple(gens), tuple(bnd), rep)


def dual(c: BifilteredComplex) -> BifilteredComplex:
    """Rotate the diagram by 180 degrees and reverse all arrows."""
    gens = tuple(
        Generator(g.name + "'", -g.alg, -g.alex, -g.maslov) for g in c.generators
    )
    rev: list[list[int]] = [[] for _ in gens]
    for i, targets in enumerate(c.boundary):
        for j in targets:
            rev[j].append(i)  # i increases, so each list stays sorted
    bnd = tuple(map(tuple, rev))
    return BifilteredComplex(gens, bnd, _h0_from_parts(gens, bnd))


def _h0_from_parts(gens, bnd) -> frozenset[int]:
    zeros = [i for i, g in enumerate(gens) if g.maslov == 0]
    ones = [i for i, g in enumerate(gens) if g.maslov == 1]
    pos = {i: k for k, i in enumerate(zeros)}
    cycles = Echelon()
    for b, i in enumerate(zeros):
        cycles.add(_mask(bnd[i]), 1 << b)
    kernel = cycles.kernel
    boundaries = Echelon()
    for f in ones:
        boundaries.add(_mask(pos[t] for t in bnd[f]))
    residues = [k for k in kernel if not boundaries.contains(k)]
    if len(kernel) - boundaries.rank != 1 or not residues:
        raise UnsupportedComplexError(
            "not a knot-like complex in scope: homology in grading 0 must have rank one"
        )
    k = residues[0]
    return frozenset(zeros[b] for b in range(len(zeros)) if (k >> b) & 1)


def direct_sum_with_box(c: BifilteredComplex, corner_alg: int, corner_alex: int,
                        width: int, height: int, top_maslov: int) -> BifilteredComplex:
    """Add an acyclic two-generator summand: top at the corner, db = a."""
    if width < 1 or height < 1:
        raise ValueError("box width and height must be positive")
    k = len(c.generators)
    top = Generator(f"box{k}t", corner_alg, corner_alex, top_maslov)
    bot = Generator(f"box{k}b", corner_alg - width, corner_alex - height,
                    top_maslov - 1)
    gens = c.generators + (top, bot)
    bnd = c.boundary + ((k + 1,), ())
    return BifilteredComplex(gens, bnd, c.h0_rep)


def _torus_pair(p: int, q: int) -> tuple[int, int]:
    """(min, max) of a valid torus knot pair; InvalidTorusKnotError otherwise."""
    if not (isinstance(p, int) and isinstance(q, int)) or p < 1 or q < 1:
        raise InvalidTorusKnotError(f"torus knot parameters must be positive integers, got ({p}, {q})")
    a, b = min(p, q), max(p, q)
    if gcd(a, b) != 1:
        raise InvalidTorusKnotError(f"({p}, {q}) are not coprime")
    return a, b


def torus_knot_complex(p: int, q: int) -> BifilteredComplex:
    """Staircase complex of T(p,q); parameters 1 give the unknot complex."""
    a, b = _torus_pair(p, q)
    if a == 1:
        return trivial_complex()
    return staircase_complex(step_vector(alexander_torus(a, b)))


class _ExpressionScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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
            self.pos += 1
            factors = self.expr(sign)
            self.expect(")")
            return factors
        self.fail("expected 'T(p,q)' or a parenthesised expression")


def parse_knot_factors(text: str) -> tuple[tuple[int, int, int], ...]:
    """Flatten a knot expression into signed torus factors (sign, p, q).

    Grammar: Expr := Term ('#' Term)*; Term := ['-'] 'T(' int ',' int ')'
    or ['-'] '(' Expr ')'.  A leading '-' dualises everything it governs.
    """
    scanner = _ExpressionScanner(text)
    factors = scanner.expr(1)
    scanner.skip_ws()
    if scanner.pos != len(text):
        scanner.fail("unexpected trailing input")
    return tuple(factors)


def parse_knot_expression(text: str) -> BifilteredComplex:
    """Build the complex of a knot expression such as 'T(2,5) # -T(5,6)'."""
    parts = []
    for sign, p, q in parse_knot_factors(text):
        c = torus_knot_complex(p, q)
        parts.append(dual(c) if sign < 0 else c)
    return reduce(tensor, parts)


def expression_size(text: str) -> int:
    """Generator count of the complex of a knot expression, without building it.

    A staircase has one generator per term of the Alexander polynomial, counted
    in O(min(p,q)) by dividing each exponent run's span by its step (len() of a
    range overflows past sys.maxsize); tensor products multiply, mirrors keep.
    """
    size = 1
    for _, p, q in parse_knot_factors(text):
        a, b = _torus_pair(p, q)
        if a > 1:
            size *= sum((run.stop - run.start) // a for run in _exponent_runs(a, b))
    return size


def canonical_expression(text: str) -> str:
    """Canonical form: factors normalised to p <= q and sorted.

    Unknot factors T(1,n) and T(n,1) are dropped; 'T(1,1)' stands for the
    unknot when nothing else remains.
    """
    factors = sorted(
        (min(p, q), max(p, q), sign) for sign, p, q in parse_knot_factors(text)
        if min(p, q) != 1
    )
    return " # ".join(
        ("-" if sign < 0 else "") + f"T({p},{q})" for p, q, sign in factors
    ) or "T(1,1)"
