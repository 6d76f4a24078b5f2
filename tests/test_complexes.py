import json
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from cfk import (
    BifilteredComplex,
    Generator,
    InvalidTorusKnotError,
    KnotExpressionError,
    UnsupportedComplexError,
    canonical_expression,
    direct_sum_with_box,
    dual,
    parse_knot_expression,
    staircase_complex,
    tensor,
    torus_knot_complex,
    trivial_complex,
)
from cfk.complexes import torus_knot_size
from cfk.expressions import _MAX_NESTING, _TERM, parse_knot_factors
from cfk.semigroup import StepVector
from oracles import _h0_from_parts, expression_size, replace, scanned_knot_factors


def by_point(c):
    return {(g.alg, g.alex): g for g in c.generators}


class TestStaircase:
    def test_t34_generators(self):
        c = staircase_complex(StepVector((1, 2, 2, 1)))
        assert [(g.alg, g.alex, g.maslov) for g in c.generators] == [
            (0, 3, 0), (1, 3, 1), (1, 1, 0), (3, 1, 1), (3, 0, 0)
        ]
        # d(1,3) = (0,3) + (1,1)
        assert c.boundary[1] == (0, 2)
        assert c.h0_rep == frozenset({0})

    def test_t57_contains_pivot_vertices(self):
        c = torus_knot_complex(5, 7)
        pts = by_point(c)
        assert pts[(1, 8)].maslov == 0
        assert pts[(3, 5)].maslov == 0

    def test_t23(self):
        c = staircase_complex(StepVector((1, 1)))
        assert [(g.alg, g.alex) for g in c.generators] == [(0, 1), (1, 1), (1, 0)]
        assert sum(1 for g in c.generators if g.maslov == 1) == 1

    def test_generator_count_is_steps_plus_one(self):
        for p, q in ((2, 3), (2, 7), (3, 4), (4, 5), (5, 7)):
            from cfk import alexander_torus, step_vector

            sv = step_vector(alexander_torus(p, q))
            assert len(torus_knot_complex(p, q).generators) == len(sv.steps) + 1

    def test_gradings_and_palindromic_filtration(self):
        for p, q in ((2, 3), (3, 4), (5, 6), (5, 7), (4, 9)):
            c = torus_knot_complex(p, q)
            assert {g.maslov for g in c.generators} == {0, 1}
            pts = [(g.alg, g.alex) for g in c.generators]
            assert pts == [(y, x) for x, y in reversed(pts)]


class TestValidation:
    def test_grading_drop_enforced(self):
        gens = (Generator("a", 0, 0, 0), Generator("b", 1, 1, 2))
        with pytest.raises(ValueError):
            BifilteredComplex(gens, (frozenset(), frozenset({0})), frozenset({0}))

    def test_filtration_monotonicity_enforced(self):
        gens = (Generator("a", 2, 0, 0), Generator("b", 1, 1, 1))
        with pytest.raises(ValueError):
            BifilteredComplex(gens, (frozenset(), frozenset({0})), frozenset({0}))

    def test_boundary_squares_to_zero_enforced(self):
        gens = (
            Generator("a", 0, 0, 0),
            Generator("b", 1, 1, 1),
            Generator("c", 2, 2, 2),
        )
        bnd = (frozenset(), frozenset({0}), frozenset({1}))
        with pytest.raises(ValueError):
            BifilteredComplex(gens, bnd, frozenset({0}))

    def test_h0_must_be_cycle_not_boundary(self):
        gens = (Generator("a", 0, 0, 0), Generator("b", 1, 1, 1))
        bnd = (frozenset(), frozenset({0}))
        with pytest.raises(ValueError):
            BifilteredComplex(gens, bnd, frozenset({0}))

    @pytest.mark.parametrize("field, value", [
        ("alg", 0.0), ("alex", Fraction(0)), ("maslov", False), ("alg", "0"),
    ], ids=repr)
    def test_non_integer_grading_rejected(self, field, value):
        gen = replace(Generator("a", 0, 0, 0), **{field: value})
        with pytest.raises(ValueError, match=f"{field} of generator a must be an int"):
            BifilteredComplex((gen,), ((),), frozenset({0}))

    @pytest.mark.parametrize("boundary, h0_rep, field", [
        (((), (0.0,)), {0}, "entry of boundary row 1"),
        (((), [Fraction(0)]), {0}, "entry of boundary row 1"),
        (((), (False,)), {0}, "entry of boundary row 1"),
        (((), ()), {0.0}, "entry of h0_rep"),
        (((), ()), {True}, "entry of h0_rep"),
        # checked before the row is sorted, which could not compare "x" and 2
        (((), (2, "x", 0)), {0}, "entry of boundary row 1"),
    ], ids=repr)
    def test_non_integer_index_rejected(self, boundary, h0_rep, field):
        gens = (Generator("a", 0, 0, 0), Generator("b", 1, 1, 1))
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            BifilteredComplex(gens, boundary, h0_rep)

    def test_unsorted_row_with_a_missing_generator_rejected(self):
        c = torus_knot_complex(2, 3)
        with pytest.raises(ValueError, match="boundary of x1 references a missing generator"):
            BifilteredComplex(tuple(c.generators), ((), (5, 0), ()), c.h0_rep)

    # T(2,3) is x0, x1, x2 in gradings 0, 1, 0 with d(x1) = x0 + x2
    @pytest.mark.parametrize("boundary, h0_rep, message", [
        (((), (0, 2)), {0}, "boundary table size does not match generator count"),
        (((), (0, 2), ()), set(), "the distinguished homology representative is empty"),
        (((), (0, 2), ()), {0, 3}, "h0 representative references a missing generator"),
        (((), (0, 2), ()), {-1}, "h0 representative references a missing generator"),
        (((), (0, 2), ()), {1}, "h0 representative must be supported in grading 0"),
    ], ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_malformed_table_or_h0_rejected(self, boundary, h0_rep, message):
        gens = tuple(torus_knot_complex(2, 3).generators)
        with pytest.raises(ValueError, match=f"^{message}$"):
            BifilteredComplex(gens, boundary, h0_rep)

    def test_h0_that_is_not_a_cycle_rejected(self):
        # in the dual of T(2,3) both grading-0 generators have boundary x1';
        # their sum is the h0 representative, and each alone is not a cycle
        c = dual(torus_knot_complex(2, 3))
        assert c.h0_rep == {0, 2} and c.boundary == ((1,), (), (1,))
        for h0_rep in ({0}, {2}):
            with pytest.raises(ValueError, match="^h0 representative is not a cycle$"):
                BifilteredComplex(tuple(c.generators), c.boundary, h0_rep)


class TestDerivedClassFunctional:
    """The builders' lam goes through the same checks as the eliminated one."""

    def parts(self):
        c = tensor(torus_knot_complex(2, 3), dual(torus_knot_complex(2, 3)))
        return c, (c.generators, c.boundary, c.h0_rep)

    def test_support_outside_grading_0_is_refused(self):
        c, parts = self.parts()
        off = next(i for i, g in enumerate(c.generators) if g.maslov)
        for lam in (c.lam | 1 << off, c.lam | 1 << len(c.generators), -1):
            with pytest.raises(ValueError, match="supported in grading 0"):
                BifilteredComplex._derived(*parts, lam)

    def test_lam_not_vanishing_on_boundaries_is_refused(self):
        c, parts = self.parts()
        # one end of an edge into grading 0 taken out of lam
        i = next(j for row in c.boundary for j in row if c.lam >> j & 1)
        with pytest.raises(ValueError, match="vanish on boundaries"):
            BifilteredComplex._derived(*parts, c.lam ^ 1 << i)

    def test_lam_that_misses_h0_is_refused(self):
        c, parts = self.parts()
        with pytest.raises(ValueError, match="not 1 on the h0"):
            BifilteredComplex._derived(*parts, 0)


class TestTensor:
    def test_unit(self):
        c = torus_knot_complex(3, 4)
        t = tensor(c, trivial_complex())
        assert [(g.alg, g.alex, g.maslov) for g in t.generators] == [
            (g.alg, g.alex, g.maslov) for g in c.generators
        ]
        assert [s for s in t.boundary] == [s for s in c.boundary]

    def test_pivot_generator_of_connected_sum(self):
        c = parse_knot_expression("T(2,5) # T(5,6)")
        g = by_point(c)[(1, 8)]
        assert g.maslov == 0
        assert g.name == "(x0|x2)"  # (0,2) tensor (1,6)

    def test_boundary_of_mixed_product(self):
        # d((1,2) tensor (1,6)) = (0,2) tensor (1,6) + (1,1) tensor (1,6)
        c = parse_knot_expression("T(2,5) # T(5,6)")
        i = {g.name: i for i, g in enumerate(c.generators)}["(x1|x2)"]
        targets = {c.generators[j].name for j in c.boundary[i]}
        assert targets == {"(x0|x2)", "(x2|x2)"}

    def test_counts(self):
        left = torus_knot_complex(2, 5)
        right = torus_knot_complex(5, 6)
        assert len(left.generators) == 5
        assert len(right.generators) == 9
        assert len(tensor(left, right).generators) == 45

    def test_associative_up_to_relabelling(self):
        a = torus_knot_complex(2, 3)
        b = torus_knot_complex(2, 5)
        c = torus_knot_complex(3, 4)
        lhs = tensor(tensor(a, b), c)
        rhs = tensor(a, tensor(b, c))
        # both association orders list the triple (i, j, k) at the same
        # position, so the induced bijection is positional
        assert [(g.alg, g.alex, g.maslov) for g in lhs.generators] == [
            (g.alg, g.alex, g.maslov) for g in rhs.generators
        ]
        assert list(lhs.boundary) == list(rhs.boundary)
        assert lhs.h0_rep == rhs.h0_rep


class TestDual:
    def test_involution(self):
        c = torus_knot_complex(3, 4)
        dd = dual(dual(c))
        assert [(g.alg, g.alex, g.maslov) for g in dd.generators] == [
            (g.alg, g.alex, g.maslov) for g in c.generators
        ]
        assert list(dd.boundary) == list(c.boundary)

    def test_t23_dual(self):
        d = dual(torus_knot_complex(2, 3))
        assert [(g.alg, g.alex, g.maslov) for g in d.generators] == [
            (0, -1, 0), (-1, -1, -1), (-1, 0, 0)
        ]

    def test_t23_dual_h0_is_sum_of_both_vertices(self):
        d = dual(torus_knot_complex(2, 3))
        names = {d.generators[i].name for i in d.h0_rep}
        assert names == {"x0'", "x2'"}

    def test_dual_of_tensor_is_tensor_of_duals(self):
        a = torus_knot_complex(2, 3)
        b = torus_knot_complex(3, 4)
        lhs = dual(tensor(a, b))
        rhs = tensor(dual(a), dual(b))
        key = lambda cx: sorted((g.alg, g.alex, g.maslov) for g in cx.generators)
        assert key(lhs) == key(rhs)
        # edge multisets on filtration/grading triples agree
        def edges(cx):
            out = []
            for i, targets in enumerate(cx.boundary):
                gi = cx.generators[i]
                for j in targets:
                    gj = cx.generators[j]
                    out.append(((gi.alg, gi.alex, gi.maslov), (gj.alg, gj.alex, gj.maslov)))
            return sorted(out)

        assert edges(lhs) == edges(rhs)


class TestH0Representative:
    def test_staircase_single_vertex_is_valid(self):
        c = torus_knot_complex(3, 4)
        rep = _h0_from_parts(c.generators, c.boundary)
        assert all(c.generators[i].maslov == 0 for i in rep)
        # replacing h0_rep with the computed one yields a valid complex
        BifilteredComplex(c.generators, c.boundary, rep)

    def test_adjacent_vertices_are_homologous(self):
        c = torus_knot_complex(3, 4)
        name_to_index = {g.name: i for i, g in enumerate(c.generators)}
        v03 = name_to_index["x0"]
        v11 = name_to_index["x2"]
        # both singleton cycles are accepted as the distinguished class
        BifilteredComplex(c.generators, c.boundary, frozenset({v03}))
        BifilteredComplex(c.generators, c.boundary, frozenset({v11}))

    def test_box_does_not_change_class(self):
        c = torus_knot_complex(3, 4)
        boxed = direct_sum_with_box(c, 5, 5, 1, 1, 1)
        rep = _h0_from_parts(boxed.generators, boxed.boundary)
        plain = _h0_from_parts(c.generators, c.boundary)
        # the computed class representative never uses box generators
        names = {boxed.generators[i].name for i in rep}
        assert names == {c.generators[i].name for i in plain}

    def test_rank_two_rejected(self):
        gens = (Generator("a", 0, 0, 0), Generator("b", 5, 5, 0))
        with pytest.raises(UnsupportedComplexError):
            _h0_from_parts(gens, (frozenset(), frozenset()))


class TestBox:
    def test_validates(self):
        c = torus_knot_complex(2, 3)
        boxed = direct_sum_with_box(c, 4, -2, 2, 3, 0)
        assert len(boxed.generators) == len(c.generators) + 2
        with pytest.raises(ValueError):
            direct_sum_with_box(c, 0, 0, 0, 1, 1)

    def test_h0_unchanged(self):
        c = torus_knot_complex(2, 3)
        boxed = direct_sum_with_box(c, 3, 3, 1, 1, 1)
        assert boxed.h0_rep == c.h0_rep

    @pytest.mark.parametrize("name, value", [
        ("corner_alg", 0.5), ("corner_alex", Fraction(1, 2)), ("width", 1.0),
        ("height", True), ("top_maslov", 1.0),
    ], ids=repr)
    def test_non_integer_argument_rejected(self, name, value):
        args = {"corner_alg": 0, "corner_alex": 1, "width": 1, "height": 1, "top_maslov": 1}
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            direct_sum_with_box(torus_knot_complex(3, 4), **{**args, name: value})


def _canonical_rows(c):
    return all(type(row) is tuple and list(row) == sorted(set(row)) for row in c.boundary)


class TestRepresentation:
    def test_generator_has_no_instance_dict(self):
        g = Generator("a", 0, 0, 0)
        assert not hasattr(g, "__dict__")
        with pytest.raises(AttributeError):
            g.alg = 1

    def test_every_constructor_gives_strictly_increasing_tuples(self):
        a, b = torus_knot_complex(3, 4), torus_knot_complex(2, 5)
        for c in (
            trivial_complex(),
            staircase_complex(StepVector((1, 2, 2, 1))),
            a,
            dual(a),
            tensor(a, b),
            tensor(dual(b), a),
            direct_sum_with_box(tensor(a, b), 1, 2, 2, 1, 1),
            parse_knot_expression("T(2,3) # -T(3,4) # T(2,5)"),
        ):
            assert type(c.boundary) is tuple
            assert _canonical_rows(c)

    def test_any_iterable_of_indices_gives_the_canonical_complex(self):
        c = parse_knot_expression("T(2,3) # -T(3,4)")
        rows = c.boundary
        assert any(len(row) > 1 for row in rows)
        for spell in (set, frozenset, list, iter, lambda row: tuple(reversed(row)),
                      lambda row: row + row[:1]):
            other = BifilteredComplex(c.generators, [spell(row) for row in rows], c.h0_rep)
            assert other == c and hash(other) == hash(c)
            assert other.boundary == tuple(tuple(sorted(row)) for row in rows)
            assert _canonical_rows(other)

    def test_a_canonical_row_is_kept_as_the_same_object(self):
        c = parse_knot_expression("T(2,3) # -T(3,4)")
        k = next(i for i, row in enumerate(c.boundary) if len(row) > 1)
        rows = list(c.boundary)
        rows[k] = tuple(reversed(rows[k]))
        other = BifilteredComplex(tuple(c.generators), rows, c.h0_rep)
        assert other == c
        for i, row in enumerate(other.boundary):
            assert i == k or row is c.boundary[i]

    def test_outside_input_is_validated_once(self, monkeypatch):
        calls = []
        validate = BifilteredComplex._validate

        def counted(self, lam):
            calls.append(lam)
            validate(self, lam)

        monkeypatch.setattr(BifilteredComplex, "_validate", counted)
        c = parse_knot_expression("T(2,3) # -T(3,4)")
        built = len(calls)  # one per builder that validates
        unsorted = [tuple(reversed(row)) for row in c.boundary]
        assert BifilteredComplex(tuple(c.generators), unsorted, c.h0_rep) == c
        assert calls[built:] == [None]

    def test_box_shares_the_rows_and_generators_of_its_base(self):
        c = parse_knot_expression("T(3,5) # T(4,5) # T(7,8)")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            boxed = direct_sum_with_box(c, 3, 3, 1, 1, 1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        boxed = direct_sum_with_box(boxed, 0, 0, 2, 1, 0)
        for i in range(len(c.generators)):
            assert boxed.boundary[i] is c.boundary[i]
        assert tuple(boxed.generators)[:len(c.generators)] == tuple(c.generators)
        # the new row tuple, its own copy of the base's grade columns (8-bit
        # arrays here) and the extended layout, about 12.5 KB; 17 KB when the
        # box copied the base's tuple of Generator objects
        assert held <= 14 * 1024

    def test_memory_per_complex(self):
        # about 292 KB with frozenset rows and instance dicts on the generators,
        # 127 KB with a Generator object and a name string per generator,
        # about 48 KB with int columns and names built on demand, and 45 KB
        # with 8-bit arrays where the values fit
        parse_knot_expression("T(2,3)")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            c = parse_knot_expression("T(3,5) # T(4,5) # T(7,8)")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(c.generators) == 637
        assert held <= 100 * 1024


class TestParser:
    def test_single_torus_knot(self):
        assert len(parse_knot_expression("T(3,4)").generators) == 5

    def test_connected_sum_generator_count(self):
        assert len(parse_knot_expression("T(2,5) # T(5,6)").generators) == 45

    def test_whitespace_insignificant(self):
        a = parse_knot_expression("T(2,3)#T(2,5)")
        b = parse_knot_expression("  T ( 2 , 3 )  #  T ( 2 , 5 ) ")
        assert [(g.name, g.alg) for g in a.generators] == [
            (g.name, g.alg) for g in b.generators
        ]

    def test_dual_and_parens(self):
        c = parse_knot_expression("-(T(2,3) # -T(3,4))")
        # the inner dual cancels: factors are -T(2,3) and T(3,4)
        assert parse_knot_factors("-(T(2,3) # -T(3,4))") == ((-1, 2, 3), (1, 3, 4))
        assert len(c.generators) == 15

    def test_gcd_error(self):
        with pytest.raises(InvalidTorusKnotError):
            parse_knot_expression("T(4,6)")

    @pytest.mark.parametrize("p, q", [
        (5, True), (True, 5), (False, 3), (2.0, 3), (2, Fraction(3)), ("2", 3), (0, 3),
    ], ids=repr)
    def test_torus_parameters_must_be_positive_ints(self, p, q):
        # True would otherwise pass as 1 and give the unknot complex
        with pytest.raises(InvalidTorusKnotError, match="must be positive integers"):
            torus_knot_complex(p, q)

    def test_syntax_error_position(self):
        with pytest.raises(KnotExpressionError) as info:
            parse_knot_expression("T(2,3) # K(4,5)")
        assert info.value.position == 9

    def test_trailing_garbage(self):
        with pytest.raises(KnotExpressionError):
            parse_knot_expression("T(2,3) T(2,5)")

    def test_missing_integer(self):
        with pytest.raises(KnotExpressionError):
            parse_knot_expression("T(,3)")

    def test_integer_too_long_to_convert(self):
        # int() refuses more than sys.int_info.default_max_str_digits (4300) digits
        with pytest.raises(KnotExpressionError, match="4400 digits") as info:
            parse_knot_factors("T(3,4) # T(2," + "9" * 4400 + ")")
        assert info.value.position == 13

    def test_non_decimal_digit_is_a_syntax_error(self):
        # '\u00b2' (superscript two) is a digit to str.isdigit but not to int()
        with pytest.raises(KnotExpressionError) as info:
            parse_knot_factors("T(2,3\u00b2)")
        assert info.value.position == 5

    def test_nesting_at_the_limit_parses(self):
        depth = _MAX_NESTING
        text = "-(" * depth + "T(2,3)" + ")" * depth
        assert parse_knot_factors(text) == (((-1) ** depth, 2, 3),)

    @pytest.mark.parametrize("opener", ["(", "-(", " ( "])
    def test_nesting_past_the_limit_is_a_syntax_error(self, opener):
        # the recursive descent would otherwise raise RecursionError
        depth = _MAX_NESTING + 1
        text = opener * depth + "T(2,3)" + ")" * depth
        with pytest.raises(KnotExpressionError, match="nested deeper") as info:
            parse_knot_factors(text)
        assert info.value.position == text.index("(", len(opener) * _MAX_NESTING)

    def test_unknot_variants(self):
        assert len(parse_knot_expression("T(1,5)").generators) == 1
        assert len(parse_knot_expression("T(7,1)").generators) == 1

    def test_swapped_parameters_normalise(self):
        a = parse_knot_expression("T(5,2)")
        b = parse_knot_expression("T(2,5)")
        assert [(g.alg, g.alex, g.maslov) for g in a.generators] == [
            (g.alg, g.alex, g.maslov) for g in b.generators
        ]


class TestCanonicalExpression:
    def test_sorts_and_normalises(self):
        assert canonical_expression("T(5,2) # -T(3,4) # T(2,3)") == (
            "T(2,3) # T(2,5) # -T(3,4)"
        )

    def test_dual_distributes(self):
        assert canonical_expression("-(T(2,3) # T(2,5))") == "-T(2,3) # -T(2,5)"

    def test_unknot_factors_dropped(self):
        assert canonical_expression("T(1,5) # T(2,3)") == "T(2,3)"
        assert canonical_expression("-T(3,4) # T(7,1) # -T(1,2)") == "-T(3,4)"
        assert canonical_expression("T(1,5) # -T(3,1)") == "T(1,1)"
        assert canonical_expression("T(1,1)") == "T(1,1)"


# whitespace that str.isspace accepts past ASCII, a decimal digit past ASCII,
# and a digit that is not decimal
SPACES = [" ", "\t", "\n", "\u3000", "\x1c"]
ALPHABET = ["T", "(", ")", ",", "-", "#", "0", "1", "2", "3", "9", "\u0663", "\u00b2", "x",
            *SPACES]
# integers at int()'s default digit limit, and nesting at the parser's limit
LONG_INTEGERS = ["9" * 4300, "9" * 4301]
LIMIT_PIECES = [*LONG_INTEGERS, *(opener * depth for opener in ("(", "-(")
                                  for depth in (_MAX_NESTING, _MAX_NESTING + 1)),
                ")" * _MAX_NESTING]

spaces = st.lists(st.sampled_from(SPACES), max_size=2).map("".join)
short_integers = st.integers(0, 30).map(str)
integers = st.one_of(short_integers, short_integers, short_integers,
                     st.sampled_from(["\u0663", "1\u0663", "07", *LONG_INTEGERS]))


@st.composite
def terms(draw, depth=0):
    """A term of the grammar, with whitespace wherever the grammar allows it."""
    ws = lambda: draw(spaces)  # noqa: E731
    head = ws() + draw(st.sampled_from(["", "-"])) + ws()
    if depth < 3 and draw(st.booleans()):
        inner = [draw(terms(depth + 1)) for _ in range(draw(st.integers(1, 3)))]
        return head + "(" + "#".join(inner) + ws() + ")"
    return (head + "T" + ws() + "(" + ws() + draw(integers) + ws() + "," + ws()
            + draw(integers) + ws() + ")")


@st.composite
def expressions(draw):
    """A well-formed expression, maybe nested at the limit, maybe with a token
    after it, maybe with one character changed."""
    text = "#".join(draw(st.lists(terms(), min_size=1, max_size=3))) + draw(spaces)
    depth = draw(st.sampled_from([0, 0, 0, 1, 2, _MAX_NESTING, _MAX_NESTING + 1]))
    text = draw(st.sampled_from(["(", "-(", " ( "])) * depth + text + ")" * depth
    text += draw(st.sampled_from(["", "", "", ")", "x", " T(2,3)", "(", "#", " -"]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(st.sampled_from(["", *ALPHABET])) + text[at + cut:]
    return text


def parse_outcome(parse, text):
    """The factors parse reads from text, or its error's message and position."""
    try:
        return parse(text)
    except KnotExpressionError as exc:
        return str(exc), exc.position


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=st.one_of(
    st.lists(st.sampled_from(ALPHABET + LIMIT_PIECES), max_size=24).map("".join),
    expressions()))
@example(text="\u3000T\x1c(2,\u0663)\x1c#-(T(2,3\u00b2))")
@example(text="T(2," + "9" * 4300 + ")")
@example(text="T(2," + "9" * 4301 + ")")
@example(text="T(" + "9" * 4301 + ",3")
@example(text="(" * _MAX_NESTING + "T(2,3)" + ")" * _MAX_NESTING)
@example(text="-(" * (_MAX_NESTING + 1) + "T(2,3)" + ")" * (_MAX_NESTING + 1))
def test_the_scanner_reads_as_the_recursive_descent(text):
    # the same factors, or the same message at the same position
    assert parse_outcome(parse_knot_factors, text) == parse_outcome(scanned_knot_factors, text)


def test_the_token_pattern_reads_space_and_digits_as_str_does():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    for pattern, accepts in ((r"\s", str.isspace), (r"\d", str.isdecimal)):
        found = re.compile(pattern, _TERM.flags).findall(everything)
        assert found == list(filter(accepts, everything))


class TestJson:
    def test_shape_and_determinism(self):
        c = torus_knot_complex(3, 4)
        d = c.to_json_dict()
        assert [g["id"] for g in d["generators"]] == ["x0", "x1", "x2", "x3", "x4"]
        assert d["boundary"]["x1"] == ["x0", "x2"]
        assert d["boundary"]["x0"] == []
        assert d["h0_rep"] == ["x0"]
        assert json.dumps(d) == json.dumps(torus_knot_complex(3, 4).to_json_dict())


def test_random_constructions_validate():
    # construction-time checks run on everything this produces; reaching the
    # end without a raise means boundary, gradings and h0 stayed consistent
    rng = random.Random(4321)
    pool = [(p, q) for p in range(2, 10) for q in range(p + 1, 10) if gcd(p, q) == 1]
    for _ in range(100):
        p, q = rng.choice(pool)
        c = torus_knot_complex(p, q)
        if rng.random() < 0.5:
            c = dual(c)
        if rng.random() < 0.5:
            r, s = rng.choice(pool)
            c = tensor(c, torus_knot_complex(r, s))
        c = direct_sum_with_box(
            c,
            rng.randrange(-6, 12),
            rng.randrange(-6, 12),
            rng.randrange(1, 4),
            rng.randrange(1, 4),
            rng.randrange(-2, 4),
        )
        assert len(c.generators) >= 3


def test_expression_size_counts_generators_without_building():
    rng = random.Random(4242)
    pairs = [(1, 4), (2, 3), (3, 2), (2, 5), (3, 4), (3, 5), (4, 5), (2, 7)]
    for _ in range(25):
        expr = " # ".join(
            ("-" if rng.random() < 0.3 else "") + "T(%d,%d)" % rng.choice(pairs)
            for _ in range(rng.randrange(1, 4))
        )
        assert expression_size(expr) == len(parse_knot_expression(expr).generators)
    assert expression_size(" # ".join(["T(2,3)"] * 10)) == 3 ** 10
    with pytest.raises(InvalidTorusKnotError, match="coprime"):
        expression_size("T(2,3) # T(4,6)")


def test_torus_knot_size_counts_generators_without_building():
    for p, q in [(1, 1), (1, 7), (7, 1), (2, 3), (3, 2), (3, 7), (5, 12), (8, 9)]:
        assert torus_knot_size(p, q) == len(torus_knot_complex(p, q).generators)
    with pytest.raises(InvalidTorusKnotError, match="coprime"):
        torus_knot_size(4, 6)


def test_expression_size_does_not_enumerate_the_semigroup():
    # p exponent runs, not the (p-1)(q-1) semigroup elements below the conductor
    started = time.perf_counter()
    assert expression_size("T(2999,3000)") == 5997
    assert time.perf_counter() - started < 1
