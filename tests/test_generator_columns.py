"""A complex's generators, stored as int columns with names built on demand.

The oracle is the builders' eager form: a tuple of named Generator values,
made one factor, mirror and box at a time.  The columns must give the same
tuple, and a complex rebuilt from that tuple by the public constructor must
be the same complex.  Names from outside input are still checked for
uniqueness, through every builder; names the builders make are unique by
construction and never read while a complex is built.
"""

from array import array
from operator import is_

import pytest
from hypothesis import given, seed, settings, strategies as st

from cfk import (
    BifilteredComplex,
    Generator,
    direct_sum_with_box,
    dual,
    parse_knot_expression,
    tensor,
    torus_knot_complex,
)
import cfk.complexes
from cfk.complexes import GeneratorColumns
from oracles import eager_box_generators, eager_expression_generators

FACTORS = ["T(1,3)", "T(2,3)", "T(2,5)", "T(3,4)", "T(3,5)", "-T(2,3)", "-T(2,5)",
           "-T(3,4)", "-T(2,7)"]

box = st.tuples(st.integers(-6, 8), st.integers(-6, 8), st.integers(1, 3),
                st.integers(1, 3), st.integers(-2, 3))
factors = st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3)


def rebuilt(c):
    """c through the public constructor, from the tuple of its generators."""
    return BifilteredComplex(tuple(c.generators), c.boundary, c.h0_rep)


@seed(18)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(factors=factors, boxes=st.lists(box, max_size=4))
def test_the_columns_give_the_eager_generators(factors, boxes):
    expr = " # ".join(factors)
    c, want = parse_knot_expression(expr), eager_expression_generators(expr)
    for args in boxes:
        c, want = direct_sum_with_box(c, *args), eager_box_generators(want, *args)
    gens = c.generators
    assert tuple(gens) == want
    assert [gens[i] for i in range(len(gens))] == list(want)
    assert gens[-1] == want[-1]
    with pytest.raises(TypeError):
        gens[1:-1]
    assert gens == want and hash(gens) == hash(want) and repr(gens) == repr(want)
    assert not gens.explicit_names
    copy = rebuilt(c)
    assert copy.generators.explicit_names
    assert copy == c and hash(copy) == hash(c) and repr(copy) == repr(c)
    assert copy.lam == c.lam and copy.layout == c.layout
    assert copy.to_json_dict() == c.to_json_dict()


@seed(18)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(factors=factors, boxes=st.lists(box, min_size=1, max_size=4))
def test_a_box_sum_is_the_complex_the_public_constructor_checks(factors, boxes):
    c = parse_knot_expression(" # ".join(factors))
    explicit = rebuilt(c)  # its names are checked at every box
    for args in boxes:
        c, explicit = direct_sum_with_box(c, *args), direct_sum_with_box(explicit, *args)
        for other in (rebuilt(c), explicit):
            assert other == c and hash(other) == hash(c)
            assert other.lam == c.lam and other.layout == c.layout


def test_the_sequence_reads_as_a_tuple():
    c = direct_sum_with_box(parse_knot_expression("T(2,3) # -T(2,3)"), 0, 0, 1, 1, 1)
    gens, want = c.generators, tuple(c.generators)
    assert len(gens) == 11 and gens[9] == Generator("box9t", 0, 0, 1)
    assert gens[-11] == want[0]
    with pytest.raises(TypeError):
        gens[::3]
    for i in (11, -12):
        with pytest.raises(IndexError):
            gens[i]
    assert want[4] in gens and gens.index(want[4]) == 4
    pair = (Generator("o", 0, 0, 0),)
    for other in (pair, gens):
        with pytest.raises(TypeError):
            gens + other
    assert gens != list(want) and gens != want[:-1]
    assert c == BifilteredComplex(list(gens), c.boundary, c.h0_rep)


def _trefoil(names):
    """T(2,3) with its three generators renamed."""
    c = torus_knot_complex(2, 3)
    gens = [Generator(name, g.alg, g.alex, g.maslov) for name, g in zip(names, c.generators)]
    return BifilteredComplex(gens, c.boundary, c.h0_rep)


def test_explicit_names_that_collide_are_refused():
    with pytest.raises(ValueError, match="generator names must be unique"):
        _trefoil(["a", "b", "a"])
    # (a|b) (x) c and a (x) (b|c) are both named (a|b|c)
    left, right = _trefoil(["a|b", "m", "a"]), _trefoil(["c", "n", "b|c"])
    with pytest.raises(ValueError, match="generator names must be unique"):
        tensor(left, right)
    # and after a mirror: (a'|b'|c) twice
    left, right = _trefoil(["a'|b", "m", "a"]), _trefoil(["c", "n", "b'|c"])
    with pytest.raises(ValueError, match="generator names must be unique"):
        tensor(dual(left), right)
    assert len(tensor(left, _trefoil(["c", "n", "d"])).generators) == 9


@pytest.mark.parametrize("taken", ["box3t", "box3b"])
def test_a_box_named_like_a_base_generator_is_refused(taken):
    with pytest.raises(ValueError, match="generator names must be unique"):
        direct_sum_with_box(_trefoil(["x0", taken, "x2"]), 0, 0, 1, 1, 1)
    # a name the next box takes, box5t or box5b, is refused one box later
    boxed = direct_sum_with_box(_trefoil(["x0", taken.replace("3", "5"), "x2"]), 0, 0, 1, 1, 1)
    with pytest.raises(ValueError, match="generator names must be unique"):
        direct_sum_with_box(boxed, 0, 0, 1, 1, 1)
    # in the mirror that name gains a ', and the box takes it no longer
    assert len(direct_sum_with_box(dual(boxed), 0, 0, 1, 1, 1).generators) == 7


def test_the_builders_read_no_name(monkeypatch):
    # every name source refuses to be read, and still every builder builds
    original = GeneratorColumns.__init__

    def guarded(self, alg, alex, maslov, name, *args, **kwargs):
        def forbidden(i):
            raise AssertionError("a builder read a name")

        original(self, alg, alex, maslov, forbidden, *args, **kwargs)

    monkeypatch.setattr(GeneratorColumns, "__init__", guarded)
    c = parse_knot_expression("-T(3,4) # T(2,5) # T(1,2)")
    c = direct_sum_with_box(direct_sum_with_box(c, 1, 1, 1, 1, 0), 0, 2, 2, 1, 1)
    c = tensor(dual(c), torus_knot_complex(2, 3))
    assert len(c.generators) == 87 and not c.generators.explicit_names
    with pytest.raises(AssertionError, match="a builder read a name"):
        c.generators[0]


@pytest.mark.parametrize("corner", [3, 200, 2**40, 2**70])
def test_a_box_sum_stores_the_columns_it_extended(monkeypatch, corner):
    # each box column is built once, in its narrowest form, and kept as built
    handed = []
    original = GeneratorColumns.__init__

    def recording(self, alg, alex, maslov, *args, **kwargs):
        handed.append((alg, alex, maslov))
        original(self, alg, alex, maslov, *args, **kwargs)

    monkeypatch.setattr(GeneratorColumns, "__init__", recording)
    c = direct_sum_with_box(parse_knot_expression("T(3,4)"), corner, -corner, 1, 2, 0)
    assert list(map(is_, c.generators.columns, handed[-1])) == [True, True, True]


@pytest.mark.parametrize("corner", [3, 200, 2**40, 2**70])
def test_storing_a_box_sums_columns_tries_no_array_type(monkeypatch, corner):
    # _extended stores each box column at its narrowest, a tuple past 64 bits
    # once it has tried the four array types; storing that column tries none again
    c = direct_sum_with_box(parse_knot_expression("T(3,4)"), corner, -corner, 1, 2, 0)
    tries = []

    class CountingArray(type):
        def __instancecheck__(cls, value):
            return isinstance(value, array)

        def __call__(cls, code, *values):
            tries.append(code)
            return array(code, *values)

    monkeypatch.setattr(cfk.complexes, "array", CountingArray("array", (), {}))
    GeneratorColumns(*c.generators.columns, c.generators.name)
    assert tries == []
