"""Bifiltered GF(2) chain complexes generated by torus-knot staircases.

A complex stores one fundamental copy of its generators, as int columns
whose names are built when read, together with the boundary map, a
distinguished degree-0 homology representative h0, the class functional
lam and the sector layout.  The U-action shifting
filtration by (-1,-1) and grading by -2 is kept implicit: the layout records
where each generator's translate sits in the grading-0 and grading-1 sectors
of the U-completed complex, which :mod:`cfk.upsilon` searches.

Every complex validates the chain-complex axioms once: the boundary drops
the grading by exactly one, never increases either filtration, squares to
zero, h0 is a cycle, and lam, supported in grading 0, vanishes on boundaries
and is 1 on h0, so h0 is not a boundary.  Outside input has one door, the
public constructor: it checks that every grade and index is an int,
canonicalises each boundary row once, finds lam by elimination and refuses
a complex whose completed grading-0 homology does not have rank one.  The
builders hand over canonical rows and derive lam from their inputs in
linear time.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Sequence
from functools import reduce
from operator import eq, index, lt

from .exactnum import _Frozen, check_integer
from .expressions import parse_knot_factors
from .f2linalg import Echelon, first_entry
from .semigroup import (
    StepVector,
    _exponent_runs,
    _torus_pair,
    alexander_torus,
    step_vector,
)


class UnsupportedComplexError(ValueError):
    """The complex is not of the knot-like shape this package handles."""


class Generator(namedtuple("Generator", "name alg alex maslov")):
    """One bifiltered basis element."""

    __slots__ = ()


class GeneratorColumns(Sequence):
    """The generators of a complex, as a read-only sequence of :class:`Generator`.

    The grades sit in ``columns``, three int columns, alg, Alexander and
    grading, each stored as :func:`_compact` stores it, and ``name(i)``
    builds the name of generator i only when it is read.  Int indexing
    and iterating give the Generator values a tuple would hold, and
    ``len``, ``==``, ``hash`` and ``repr`` behave as on that tuple;
    ``tuple(gens)`` is that tuple.  A slice is a TypeError.

    ``explicit_names`` says whether any name came from outside input.  Names
    that only the builders make are unique by construction: x{i}, u0,
    box{k}t and box{k}b, a unique name plus ', and (a|b), which splits back
    into a and b at its one '|' outside inner parentheses.
    """

    __slots__ = ("columns", "name", "explicit_names")

    def __init__(self, alg, alex, maslov, name, explicit_names=False):
        self.columns = (_compact(alg), _compact(alex), _compact(maslov))
        self.name = name
        self.explicit_names = explicit_names

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        i = range(len(self))[index(i)]  # as a tuple reads an int i
        alg, alex, maslov = self.columns
        return Generator(self.name(i), alg[i], alex[i], maslov[i])

    def __iter__(self):
        return map(Generator, map(self.name, range(len(self))), *self.columns)

    def __eq__(self, other):
        if not isinstance(other, (GeneratorColumns, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class BifilteredComplex(_Frozen):
    """Finite generator set, GF(2) boundary, and a distinguished H_0 cycle.

    ``generators`` is any iterable of :class:`Generator`, stored as
    :class:`GeneratorColumns`.  ``boundary[i]`` is the strictly increasing
    tuple of generator indices appearing in the boundary of
    ``generators[i]``; the public constructor reads any iterable of int
    indices once and stores it in that form, keeping a row already in it as
    the same object, before it validates the complex once.
    ``h0_rep`` is the index set of a degree-0 cycle generating the homology
    of the fundamental copy.

    ``lam`` is the class functional, a mask over the indices of grading-0
    generators: a cycle z of the completed grading-0 sector represents the
    h0 class exactly when lam(z) = 1.  ``layout`` is the :class:`SectorLayout`
    of the generators.  Both are fixed when the complex is built and take no
    part in equality, hashing or repr.
    """

    _fields = ("generators", "boundary", "h0_rep")

    @classmethod
    def _derived(cls, generators: GeneratorColumns, boundary, h0_rep, lam: int,
                 layout: SectorLayout | None = None) -> BifilteredComplex:
        """A builder's complex, with the class functional derived from its inputs.

        Given a layout as well, the complex is assembled from parts its
        builder has checked, and not validated again.
        """
        c = cls.__new__(cls)
        object.__setattr__(c, "generators", generators)
        object.__setattr__(c, "boundary", boundary)
        object.__setattr__(c, "h0_rep", h0_rep)
        if layout is None:
            c._validate(lam)
        else:
            object.__setattr__(c, "lam", lam)
            object.__setattr__(c, "layout", layout)
        return c

    def __init__(self, generators, boundary, h0_rep):
        """Check and canonicalise outside input once, then validate it."""
        if not isinstance(generators, GeneratorColumns):
            gens = tuple(generators)
            for g in gens:
                for name in ("alg", "alex", "maslov"):
                    check_integer(getattr(g, name), f"{name} of generator {g.name}")
            names = tuple(g.name for g in gens)
            generators = GeneratorColumns(
                *([getattr(g, name) for g in gens] for name in ("alg", "alex", "maslov")),
                names.__getitem__, explicit_names=True)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "h0_rep", frozenset(h0_rep))
        rows = []
        for i, row in enumerate(boundary):
            row = row if type(row) is tuple else tuple(row)  # an iterator is read once
            for j in row:
                check_integer(j, f"entry of boundary row {i}")
            rows.append(row if all(map(lt, row, row[1:])) else tuple(sorted(set(row))))
        object.__setattr__(self, "boundary", tuple(rows))
        for i in self.h0_rep:
            check_integer(i, "entry of h0_rep")
        self._validate(None)

    def _validate(self, lam: int | None) -> None:
        """Raise ValueError on a broken axiom; otherwise set lam and the layout.

        The rows are canonical: the public constructor canonicalises outside
        input and the builders hand over canonical rows.  Each row is read as
        a mask as its entries pass.  A lam of None is solved by elimination;
        any lam is then checked in O(nnz) and kept.  Names are read only if
        some came from outside input, to check that they are unique.
        """
        gens, bnd, rep = self.generators, self.boundary, self.h0_rep
        alg, alex, maslov = gens.columns
        n = len(gens)
        if len(bnd) != n:
            raise ValueError("boundary table size does not match generator count")
        if gens.explicit_names and len(set(map(gens.name, range(n)))) != n:
            raise ValueError("generator names must be unique")
        masks = []
        for i, targets in enumerate(bnd):
            below, a, x = maslov[i] - 1, alg[i], alex[i]
            mask = 0
            for j in targets:
                if not 0 <= j < n:
                    raise ValueError(
                        f"boundary of {gens.name(i)} references a missing generator")
                mask |= 1 << j
                if maslov[j] != below:
                    raise ValueError("boundary must drop the grading by exactly 1")
                if alg[j] > a or alex[j] > x:
                    raise ValueError("boundary must not increase either filtration")
            masks.append(mask)
        for i in range(n):
            acc = 0
            for j in bnd[i]:
                acc ^= masks[j]
            if acc:
                raise ValueError(f"boundary does not square to zero at {gens.name(i)}")
        if not rep:
            raise ValueError("the distinguished homology representative is empty")
        acc = 0
        for i in rep:
            if not 0 <= i < n:
                raise ValueError("h0 representative references a missing generator")
            if maslov[i] != 0:
                raise ValueError("h0 representative must be supported in grading 0")
            acc ^= masks[i]
        if acc:
            raise ValueError("h0 representative is not a cycle")
        h0 = _mask(rep)
        if lam is None:
            lam = _solve_lam(maslov, bnd, masks, h0)
        if lam < 0 or lam >> n or any(maslov[i] for i in _bits(lam)):
            raise ValueError("the class functional must be supported in grading 0")
        if any((lam & m).bit_count() & 1 for m in masks):
            raise ValueError("the class functional does not vanish on boundaries")
        if not (lam & h0).bit_count() & 1:
            raise ValueError("the class functional is not 1 on the h0 representative")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "layout", _sector_layout(alg, alex, maslov))

    def to_json_dict(self) -> dict:
        names = list(map(self.generators.name, range(len(self.generators))))
        return {
            "generators": [
                {"id": name, "alg": a, "alex": x, "maslov": m}
                for name, a, x, m in zip(names, *self.generators.columns)
            ],
            "boundary": {
                name: [names[j] for j in row] for name, row in zip(names, self.boundary)
            },
            "h0_rep": [names[i] for i in sorted(self.h0_rep)],
        }


class SectorLayout(namedtuple("SectorLayout", "ids grades position")):
    """Where each generator's U-translate sits in the grading-0 and grading-1 sectors.

    Index 0 of ``ids`` and ``grades`` is the grading-0 sector, index 1 the
    grading-1 sector: its element k is generator ``ids[p][k]`` shifted by
    U^(maslov // 2), with Alexander and algebraic grades ``grades[p][0][k]``
    and ``grades[p][1][k]``.  ``position[i]`` is the place of generator i
    within its sector.  Each sequence is the narrowest int array that holds
    its values, or a tuple past 64 bits.
    """

    __slots__ = ()


def _compact(values):
    """The values in the narrowest int array that holds them, or a tuple past 64 bits;
    an array or a tuple, which only :func:`_extended` hands in, is already that, and is kept."""
    if isinstance(values, (array, tuple)):
        return values
    for code in "bhiq":
        try:
            return array(code, values)
        except OverflowError:
            pass
    return tuple(values)


def _extended(values, extra):
    """``values`` followed by ``extra``, stored as :func:`_compact` stores them."""
    if isinstance(values, array):
        try:
            return values + array(values.typecode, extra)
        except OverflowError:
            pass
    return _compact([*values, *extra])


_NO_SECTORS = SectorLayout(((), ()), (((), ()), ((), ())), ())


def _sector_layout(alg, alex, maslov, start: int = 0,
                   base: SectorLayout = _NO_SECTORS) -> SectorLayout:
    """The layout of ``base`` extended by generators start, start + 1, ... of these grades.

    One pass over the new generators; a box sum extends its base's layout
    by its own two.
    """
    ids, alexs, algs = ([], []), ([], []), ([], [])  # by parity of the grading
    position = []
    for i, (a, x, m) in enumerate(zip(alg, alex, maslov), start):
        parity, shift = m & 1, m >> 1
        position.append(len(base.ids[parity]) + len(ids[parity]))
        ids[parity].append(i)
        alexs[parity].append(x - shift)
        algs[parity].append(a - shift)
    return SectorLayout(
        tuple(map(_extended, base.ids, ids)),
        tuple((_extended(x0, x), _extended(y0, y))
              for (x0, y0), x, y in zip(base.grades, alexs, algs)),
        _extended(base.position, position))


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _solve_lam(maslov, bnd, masks: list[int], h0: int) -> int:
    """lam with lam . d = 0 on every boundary and lam . h0 = 1, after the rank-one check."""
    # The grading-0 and grading-1 sectors hold the generators of even and odd
    # grading.  Reduce e_last against the columns of the rows [d_odd; h0],
    # tagging the column of even generator i with 1 << i.
    last = 1 << len(maslov)
    columns = {i: last if h0 >> i & 1 else 0 for i, m in enumerate(maslov) if not m & 1}
    for j, m in enumerate(maslov):
        if m & 1:
            for i in bnd[j]:
                columns[i] |= 1 << j
    _, lam, relations = first_entry(
        [(None, [(v, 1 << i) for i, v in columns.items()])], last)
    if lam is None:
        raise ValueError("h0 representative is a boundary")
    # The relations among those columns number #even - rank(d_odd) - 1, as
    # h0 is not a boundary; homology has rank one when that is rank(d_even).
    cycles = Echelon()
    if len(relations) != sum(1 for i in columns if cycles.add(masks[i])):
        raise UnsupportedComplexError(
            "not a knot-like complex in scope: completed grading-0 homology "
            "must have rank one"
        )
    return lam


def trivial_complex() -> BifilteredComplex:
    """One generator at (0, 0), grading 0, named u0: the unknot complex."""
    gens = GeneratorColumns([0], [0], [0], "u{}".format)
    return BifilteredComplex._derived(gens, ((),), frozenset({0}), 1)


def staircase_complex(steps: StepVector) -> BifilteredComplex:
    """Complex on the lattice points of the staircase path, named x0, x1, ...

    The path starts at (0, V) with V the total vertical drop, alternates
    horizontal-right and vertical-down moves of the given lengths, and ends
    at (V, 0).  Even path positions (vertices) sit in grading 0; odd ones
    (corners) sit in grading 1 with boundary the two neighbouring vertices.
    h0 is the first vertex and lam the sum of all vertices.
    """
    x, y = 0, sum(steps.vertical)
    xs, ys = [x], [y]
    for k, b in enumerate(steps.steps):
        if k % 2 == 0:
            x += b
        else:
            y -= b
        xs.append(x)
        ys.append(y)
    n = len(xs)
    gens = GeneratorColumns(xs, ys, [i % 2 for i in range(n)], "x{}".format)
    bnd = tuple((i - 1, i + 1) if i % 2 else () for i in range(n))
    return BifilteredComplex._derived(gens, bnd, frozenset({0}), _mask(range(0, n, 2)))


def tensor(c: BifilteredComplex, d: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over GF(2); filtrations and gradings add, h0 and lam tensor.

    Generator (i, j) has index i * len(d.generators) + j and name (a|b), for
    a and b the names of generator i of c and j of d.
    """
    nd = len(d.generators)
    left, right = c.generators.name, d.generators.name
    gens = GeneratorColumns(
        *([x + y for x in cs for y in ds] for cs, ds in zip(c.generators.columns,
                                                            d.generators.columns)),
        lambda i: f"({left(i // nd)}|{right(i % nd)})",
        c.generators.explicit_names or d.generators.explicit_names)
    # rows share one int object per index, rather than one per entry
    index = list(range(len(gens)))
    bnd = []
    for i, crow in enumerate(c.boundary):
        scaled, block = [i2 * nd for i2 in crow], index[i * nd:(i + 1) * nd]
        for j, drow in enumerate(d.boundary):
            bnd.append(tuple(sorted([index[x + j] for x in scaled] + [block[y] for y in drow])))
    rep = frozenset(i * nd + j for i in c.h0_rep for j in d.h0_rep)
    # the blocks of lam(d) sit apart, so summing them ORs them
    lam = sum(d.lam << i * nd for i in _bits(c.lam))
    return BifilteredComplex._derived(gens, tuple(bnd), rep, lam)


def dual(c: BifilteredComplex) -> BifilteredComplex:
    """Rotate the diagram by 180 degrees and reverse all arrows; h0 and lam swap.

    Each generator keeps its index, and its name gains a '.
    """
    base = c.generators.name
    gens = GeneratorColumns(
        *([-v for v in column] for column in c.generators.columns),
        lambda i: base(i) + "'", c.generators.explicit_names)
    rev: list[list[int]] = [[] for _ in range(len(gens))]
    for i, targets in enumerate(c.boundary):
        for j in targets:
            rev[j].append(i)  # i increases, so each list stays sorted
    bnd = tuple(map(tuple, rev))
    return BifilteredComplex._derived(gens, bnd, frozenset(_bits(c.lam)), _mask(c.h0_rep))


def direct_sum_with_box(c: BifilteredComplex, corner_alg: int, corner_alex: int,
                        width: int, height: int, top_maslov: int) -> BifilteredComplex:
    """Add an acyclic two-generator summand: top at the corner, db = a.

    The base is checked and immutable, so only the box is: its row d(top) =
    bot drops the grading by one and each filtration by the positive width
    or height, d(bot) = 0, and lam and h0 stay the base's, which the box
    does not touch.  Top and bot, generators k and k + 1 for k base
    generators, are named box{k}t and box{k}b.
    """
    for name, value in (("corner_alg", corner_alg), ("corner_alex", corner_alex),
                        ("width", width), ("height", height), ("top_maslov", top_maslov)):
        check_integer(value, name)
    if width < 1 or height < 1:
        raise ValueError("box width and height must be positive")
    base = c.generators
    k = len(base)
    names = (f"box{k}t", f"box{k}b")
    if base.explicit_names and not set(names).isdisjoint(map(base.name, range(k))):
        raise ValueError("generator names must be unique")
    grades = ((corner_alg, corner_alg - width), (corner_alex, corner_alex - height),
              (top_maslov, top_maslov - 1))
    base_name = base.name
    gens = GeneratorColumns(
        *map(_extended, base.columns, grades),
        lambda i: base_name(i) if i < k else f"box{k}{'tb'[i - k]}", base.explicit_names)
    return BifilteredComplex._derived(
        gens, c.boundary + ((k + 1,), ()), c.h0_rep, c.lam,
        _sector_layout(*grades, k, c.layout))


def torus_knot_complex(p: int, q: int) -> BifilteredComplex:
    """Staircase complex of T(p,q); parameters 1 give the unknot complex."""
    a, b = _torus_pair(p, q)
    if a == 1:
        return trivial_complex()
    return staircase_complex(step_vector(alexander_torus(a, b)))


def knot_complex(factors) -> BifilteredComplex:
    """The tensor product of the complexes of factors (sign, p, q), dual where sign < 0."""
    parts = []
    for sign, p, q in factors:
        c = torus_knot_complex(p, q)
        parts.append(dual(c) if sign < 0 else c)
    return reduce(tensor, parts)


def parse_knot_expression(text: str) -> BifilteredComplex:
    """Build the complex of a knot expression such as 'T(2,5) # -T(5,6)'."""
    return knot_complex(parse_knot_factors(text))


def torus_knot_size(p: int, q: int) -> int:
    """Generator count of the staircase of T(p,q), without building it.

    One generator per term of the Alexander polynomial, counted in O(min(p,q))
    by dividing each exponent run's span by its step (len() of a range
    overflows past sys.maxsize).
    """
    a, b = _torus_pair(p, q)
    return 1 if a == 1 else sum((run.stop - run.start) // a for run in _exponent_runs(a, b))
