import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from cfk import Generator, StepVector, alexander_torus, parse_knot_expression, torus_knot_complex
from cfk.exactnum import CSV_HEADER, DomainError, PiecewiseLinear
from cfk.upsilon import gamma_at, sector
from cfk.upsilon2 import gamma2_at, upsilon2_at


def tent(depth=F(-1)):
    return PiecewiseLinear(((0, 0), (1, depth), (2, 0)))


ZERO = PiecewiseLinear(((0, 0), (2, 0)))


class TestConstruction:
    def test_requires_full_domain(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(((0, 0), (1, 0)))
        with pytest.raises(ValueError):
            PiecewiseLinear(((F(1, 2), 0), (2, 0)))

    def test_requires_increasing_abscissae(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(((0, 0), (1, 1), (1, 2), (2, 0)))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            PiecewiseLinear(((0, 0), (1.0, -1), (2, 0)))

    def test_merges_collinear_breakpoints(self):
        f = PiecewiseLinear(((0, 0), (1, -1), (F(3, 2), F(-1, 2)), (2, 0)))
        assert f == tent()
        assert len(f.breakpoints) == 3


class TestEvaluate:
    def test_zero_function(self):
        assert ZERO(1) == 0

    def test_linear_interpolation(self):
        assert tent()(F(1, 2)) == F(-1, 2)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tent()(F(5, 2))
        with pytest.raises(DomainError):
            tent()(F(-1, 10))


class TestArithmetic:
    def test_additive_identity(self):
        assert tent() + ZERO == tent()

    def test_additive_inverse(self):
        assert tent() + (-tent()) == ZERO

    def test_negate_zero(self):
        assert -ZERO == ZERO

    def test_equal_reflexive(self):
        assert tent() == tent()

    def test_sum_breakpoints_within_union(self):
        f = PiecewiseLinear(((0, 0), (F(1, 3), 1), (2, 0)))
        g = PiecewiseLinear(((0, 2), (F(3, 2), -1), (2, 0)))
        union = {t for t, _ in f.breakpoints} | {t for t, _ in g.breakpoints}
        assert {t for t, _ in (f + g).breakpoints} <= union


class TestSlopes:
    def test_tent_breakpoint(self):
        assert tent().value_and_slopes(1)[1:] == (-1, 1)

    def test_interior_non_breakpoint(self):
        _, left, right = tent().value_and_slopes(F(1, 3))
        assert left == right == -1

    def test_endpoints_are_one_sided(self):
        assert tent().value_and_slopes(0)[1:] == (None, -1)
        assert tent().value_and_slopes(2)[1:] == (1, None)

    def test_slopes_match_difference_quotients(self):
        f = PiecewiseLinear(((0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0)))
        for (t0, v0), (t1, v1) in zip(f.breakpoints, f.breakpoints[1:]):
            mid = (t0 + t1) / 2
            slope = (v1 - v0) / (t1 - t0)
            assert f.value_and_slopes(mid)[1:] == (slope, slope)


def segment_jet(f, t):
    """Value and one-sided slopes at t from the breakpoints by a linear scan."""
    pts = f.breakpoints
    segments = [(t0, v0, (v1 - v0) / (t1 - t0)) for (t0, v0), (t1, v1) in zip(pts, pts[1:])]
    left = next((s for t0, _, s in reversed(segments) if t0 < t), None)
    t0, v0, right = next((seg for seg in reversed(segments) if seg[0] <= t), segments[-1])
    return v0 + right * (t - t0), left, right if t < 2 else None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_lookup_gives_the_value_and_both_slopes(seed):
    rng = random.Random(seed)
    checked = 0
    for _ in range(40):
        inner = rng.sample(range(1, 60), rng.randrange(0, 8))
        ts = [F(0)] + [F(k, 30) for k in sorted(inner)] + [F(2)]
        f = PiecewiseLinear(tuple((t, F(rng.randrange(-40, 40), rng.randrange(1, 7))) for t in ts))
        points = [t for t, _ in f.breakpoints]
        points += [F(rng.randrange(1, 1000), 500) for _ in range(10)]
        assert {F(0), F(2)} <= set(points)
        for t in points:
            got = f.value_and_slopes(t)
            assert got[0] == f.evaluate(t) and got == segment_jet(f, t), (f, t)
            checked += 1
    assert checked >= 400


@pytest.mark.parametrize("t", [1.0, 0.0, True, False, F(-1, 10), F(21, 10), 3, -1], ids=repr)
def test_the_lookup_refuses_what_evaluate_refuses(t):
    f = PiecewiseLinear(((0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0)))
    errors = []
    for call in (f.evaluate, f.value_and_slopes):
        with pytest.raises((TypeError, DomainError)) as info:
            call(t)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


class TestSingularities:
    def test_zero_function_has_none(self):
        assert ZERO.singularities() == []

    def test_tent_jump(self):
        assert tent().singularities() == [(F(1), F(2))]


class TestCsv:
    def test_header_and_roundtrip(self):
        f = PiecewiseLinear(((0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0)))
        text = f.to_csv()
        assert text.splitlines()[0] == CSV_HEADER
        assert text.splitlines()[1] == "0,1,0,1"
        assert text.splitlines()[2:] == ["2,3,-2,1", "4,3,-2,1", "2,1,0,1"]


# strategy: functions built from random breakpoints over a smallish grid
_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def piecewise_linear(draw):
    k = draw(st.integers(min_value=0, max_value=5))
    inner = draw(
        st.lists(
            st.fractions(min_value=F(1, 16), max_value=F(31, 16), max_denominator=16),
            min_size=k, max_size=k, unique=True,
        )
    )
    ts = [F(0)] + sorted(inner) + [F(2)]
    vals = draw(st.lists(_fractions, min_size=len(ts), max_size=len(ts)))
    return PiecewiseLinear(tuple(zip(ts, vals)))


@given(piecewise_linear(), piecewise_linear(),
       st.fractions(min_value=0, max_value=2, max_denominator=40))
def test_addition_is_pointwise(f, g, t):
    assert (f + g)(t) == f(t) + g(t)


@given(piecewise_linear())
def test_canonical_form_is_idempotent(f):
    assert PiecewiseLinear(f.breakpoints) == f


@given(piecewise_linear())
def test_consecutive_segment_slopes_differ(f):
    pts = f.breakpoints
    slopes = [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(pts, pts[1:])]
    assert all(a != b for a, b in zip(slopes, slopes[1:]))


@given(piecewise_linear())
def test_negation_is_pointwise(f):
    g = -f
    for t, v in f.breakpoints:
        assert g(t) == -v


# each value stands for t = 1 or t = 2/5 and is refused for its type alone, as
# the verifiers refuse it in a certificate
@pytest.mark.parametrize("t", [1.0, 0.4, True, "2/5", None], ids=repr)
@pytest.mark.parametrize("call", [
    pytest.param(lambda t: gamma_at(torus_knot_complex(3, 4), t), id="gamma_at"),
    pytest.param(lambda t: upsilon2_at(parse_knot_expression("T(2,5) # T(3,4)"), t),
                 id="upsilon2_at"),
    pytest.param(lambda t: tent().evaluate(t), id="evaluate"),
])
def test_inexact_parameter_refused(call, t):
    with pytest.raises(TypeError, match="floating point" if isinstance(t, float)
                       else "expected an int or a Fraction"):
        call(t)


# the value classes that check their input, built twice each, and the
# fields that their equality, hash and repr read
FROZEN_VALUES = {
    "PiecewiseLinear": (tent, ("breakpoints",)),
    "AlexanderPolynomial": (lambda: alexander_torus(2, 3), ("exponents",)),
    "StepVector": (lambda: StepVector((1, 1)), ("steps",)),
    "BifilteredComplex": (lambda: torus_knot_complex(2, 3), ("generators", "boundary", "h0_rep")),
}


@pytest.mark.parametrize("name", FROZEN_VALUES)
def test_a_value_class_is_a_frozen_value_over_its_fields(name):
    build, fields = FROZEN_VALUES[name]
    value, twin = build(), build()
    values = tuple(getattr(value, f) for f in fields)
    # equal and hashed as the tuple of its fields, as a frozen dataclass is
    assert value is not twin and value == twin and hash(value) == hash(values)
    assert repr(value) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    # equal only to a value of its own class
    other = type("Other", (type(value),), {})(*values)
    assert value != other and other != value and value != values
    for f in (*fields, "lam", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, f, None)
    for f in fields:
        with pytest.raises(AttributeError):
            delattr(value, f)
    assert value == twin and tuple(getattr(value, f) for f in fields) == values


# the plain records, and the fields their repr reads
RECORDS = {
    "Generator": (lambda: Generator("a", 0, 1, 2), ("name", "alg", "alex", "maslov")),
    "SectorElement": (lambda: sector(torus_knot_complex(3, 4), 0)[1],
                      ("index", "alg", "alex", "maslov")),
    "GammaCertificate": (lambda: gamma_at(torus_knot_complex(3, 4), 1), ("t", "s", "cycle", "levels")),
    "Gamma2Certificate": (lambda: gamma2_at(torus_knot_complex(3, 4), F(2, 3)),
                          ("t0", "gamma", "gamma2", "witness")),
    "MergeWitness": (lambda: gamma2_at(torus_knot_complex(3, 4), F(2, 3)).witness,
                     ("z_minus", "z_plus", "w")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_reads_by_field_and_refuses_assignment(name):
    build, fields = RECORDS[name]
    record = build()
    values = tuple(getattr(record, f) for f in fields)
    assert record == build() and hash(record) == hash(values)
    assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
