import random
import re
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from cfk import (
    BifilteredComplex,
    DomainError,
    Generator,
    PiecewiseLinear,
    UnsupportedComplexError,
    direct_sum_with_box,
    dual,
    parse_knot_expression,
    tensor,
    torus_knot_complex,
    trivial_complex,
)
from cfk.upsilon import (
    BreakpointVerificationError,
    CertificateError,
    GammaCertificate,
    _SectorEngine,
    gamma_at,
    level,
    sector,
    upsilon,
    verify_gamma_certificate,
)
from oracles import brute_gamma, closed_form_upsilon, replace


class TestLevel:
    def test_pure_algebraic_at_zero(self):
        c = torus_knot_complex(3, 4)
        for e in sector(c, 0):
            assert level(0, e) == e.alg

    def test_average_at_one(self):
        c = torus_knot_complex(3, 4)
        for e in sector(c, 0):
            assert level(1, e) == F(e.alg + e.alex, 2)

    def test_pivot_level_of_t57(self):
        c = torus_knot_complex(5, 7)
        e = next(x for x in sector(c, 0) if (x.alg, x.alex) == (1, 8))
        assert level(F(4, 5), e) == F(19, 5)

    def test_domain(self):
        c = trivial_complex()
        with pytest.raises(DomainError):
            level(F(21, 10), sector(c, 0)[0])


def u_power(c, e):
    """The power of U that shifts generator ``e.index`` of c to the element e."""
    return (c.generators[e.index].maslov - e.maslov) // 2


class TestSector:
    def test_staircase_grading_zero_is_vertices(self):
        c = torus_knot_complex(3, 4)
        elems = sector(c, 0)
        assert all(u_power(c, e) == 0 for e in elems)
        assert {(e.alg, e.alex) for e in elems} == {(0, 3), (1, 1), (3, 0)}

    def test_tensor_grading_one_is_mixed_products(self):
        c = parse_knot_expression("T(2,5) # T(5,6)")
        elems = sector(c, 1)
        assert all(u_power(c, e) == 0 for e in elems)
        assert all(c.generators[e.index].maslov == 1 for e in elems)
        # 3 vertices x 4 corners plus 2 corners x 5 vertices
        assert len(elems) == 22

    def test_tensor_grading_zero_includes_translate(self):
        c = parse_knot_expression("T(2,5) # T(5,6)")
        elems = sector(c, 0)
        plain = [e for e in elems if u_power(c, e) == 0]
        shifted = [e for e in elems if u_power(c, e) == 1]
        assert len(plain) == 15  # vertex x vertex
        assert len(shifted) == 8  # U * (corner x corner)
        assert all(c.generators[e.index].maslov == 2 for e in shifted)
        assert len(elems) == 23

    def test_effective_coordinates(self):
        c = parse_knot_expression("T(2,3) # T(2,3)")
        e = next(x for x in sector(c, 0) if u_power(c, x) == 1)
        g = c.generators[e.index]
        assert (g.alg - 1, g.alex - 1) == (e.alg, e.alex)
        assert e.maslov == 0


class TestGamma:
    def test_t34_pivot(self):
        cert = gamma_at(torus_knot_complex(3, 4), F(2, 3))
        assert cert.s == 1
        assert {(e.alg, e.alex) for e in cert.cycle} <= {(0, 3), (1, 1)}

    def test_t57(self):
        assert gamma_at(torus_knot_complex(5, 7), F(4, 5)).s == F(19, 5)

    def test_connected_sum(self):
        c = parse_knot_expression("T(2,5) # T(5,6)")
        assert gamma_at(c, F(4, 5)).s == F(19, 5)

    def test_certificates_verify(self):
        for expr in ("T(3,4)", "T(5,7)", "-T(3,4)", "T(2,3) # T(2,5)"):
            c = parse_knot_expression(expr)
            for t in (F(0), F(1, 3), F(2, 3), F(1), F(7, 5), F(2)):
                verify_gamma_certificate(c, gamma_at(c, t))

    def test_tampered_certificate_rejected(self):
        c = torus_knot_complex(3, 4)
        cert = gamma_at(c, F(2, 3))
        high = next(e for e in sector(c, 0) if (e.alg, e.alex) == (3, 0))
        bad = GammaCertificate(
            t=cert.t,
            s=level(cert.t, high),
            cycle=(high,),
            levels=(level(cert.t, high),),
        )
        with pytest.raises(CertificateError):
            verify_gamma_certificate(c, bad)

    def test_parameter_outside_the_interval_rejected(self):
        c = torus_knot_complex(3, 4)
        cert = gamma_at(c, F(1))
        for t in (F(5, 2), F(-1, 3)):
            with pytest.raises(CertificateError, match="t must lie in"):
                verify_gamma_certificate(c, replace(cert, t=t))

    # gamma(1) of T(3,4) is 1, on one element: each inexact s or level below
    # equals the true value and differs from it only in its type
    @pytest.mark.parametrize("field, value, message", [
        *(pytest.param("t", t, "t must be an int or a Fraction", id=repr(t))
          for t in (1.0, "1", None, True)),
        *(pytest.param(field, value, message, id=f"{field}={value!r}")
          for field, value, message in (
              ("s", 1.0, "s must be an int or a Fraction"),
              ("s", True, "s must be an int or a Fraction"),
              ("levels", (1.0,), "every level must be an int or a Fraction"),
              ("levels", (True,), "every level must be an int or a Fraction"),
              ("levels", [F(1)], "levels must be a tuple"),
              ("levels", None, "levels must be a tuple"))),
    ])
    def test_inexact_parameter_rejected(self, field, value, message):
        c = torus_knot_complex(3, 4)
        cert = gamma_at(c, F(1))
        with pytest.raises(CertificateError, match=message):
            verify_gamma_certificate(c, replace(cert, **{field: value}))

    # the genuine cycle as a list holds the right elements in the wrong
    # container; as "tuples" it holds plain tuples equal to the right elements
    @pytest.mark.parametrize("cycle", [None, 5, [[1]], ((1, 0),), "list", "tuples"], ids=repr)
    def test_malformed_cycle_rejected(self, cycle):
        c = torus_knot_complex(3, 4)
        cert = gamma_at(c, F(1))
        if cycle == "list":
            cycle = list(cert.cycle)
        elif cycle == "tuples":
            cycle = tuple(map(tuple, cert.cycle))
            assert cycle == cert.cycle
        with pytest.raises(CertificateError, match="cycle must be a tuple of SectorElements"):
            verify_gamma_certificate(c, replace(cert, cycle=cycle))


class TestUpsilon:
    def test_trefoil(self):
        ups = upsilon(torus_knot_complex(2, 3))
        assert ups == PiecewiseLinear(((0, 0), (1, -1), (2, 0)))

    def test_t34_value_and_singularities(self):
        ups = upsilon(torus_knot_complex(3, 4))
        assert ups(F(2, 3)) == -2
        assert [t for t, _ in ups.singularities()] == [F(2, 3), F(4, 3)]

    def test_t57_singularity(self):
        ups = upsilon(torus_knot_complex(5, 7))
        assert F(4, 5) in {t for t, _ in ups.singularities()}
        _, left, right = ups.value_and_slopes(F(4, 5))
        assert left != right

    def test_recursion_instance(self):
        lhs = upsilon(torus_knot_complex(5, 7))
        rhs = upsilon(parse_knot_expression("T(5,2)")) + upsilon(
            parse_knot_expression("T(5,6)")
        )
        assert lhs == rhs

    def test_dual_negates(self):
        c = torus_knot_complex(3, 4)
        assert upsilon(dual(c)) == -upsilon(c)

    def test_unknot_is_zero(self):
        assert upsilon(trivial_complex()) == PiecewiseLinear(((0, 0), (2, 0)))

    def test_rank_two_complex_rejected(self):
        # two grading-0 cycles and no boundary: valid as a complex, but its
        # grading-0 homology has rank two
        gens = (Generator("a", 0, 0, 0), Generator("b", 1, 1, 0))
        with pytest.raises(UnsupportedComplexError, match="rank one"):
            upsilon(BifilteredComplex(gens, (frozenset(), frozenset()), frozenset({0})))

    # T(3,4)'s candidates are 0, 2/3, 1, 4/3 and 2: 5/6 is the midpoint of
    # [2/3, 1], and the candidate 1 is the right end of that interval
    @pytest.mark.parametrize("t, interval", [
        (F(5, 6), "[2/3, 1]"), (F(1), "[2/3, 1]"), (F(2), "[4/3, 2]"),
    ], ids=str)
    def test_gamma_off_its_line_at_one_point_is_caught(self, monkeypatch, t, interval):
        real, seen = _SectorEngine.gamma, []

        def gamma(engine, u):
            s, cycle = real(engine, u)
            seen.append(u)
            return (s + F(1, 7) if u == t else s), cycle

        monkeypatch.setattr(_SectorEngine, "gamma", gamma)
        message = f"gamma is not linear on {interval}: missed breakpoint"
        with pytest.raises(BreakpointVerificationError, match=f"^{re.escape(message)}$"):
            upsilon(torus_knot_complex(3, 4))
        assert t in seen

    def test_starts_at_zero(self):
        for expr in ("T(2,3)", "T(3,5)", "T(2,5) # T(3,4)", "-T(2,7)"):
            ups = upsilon(parse_knot_expression(expr))
            assert ups(0) == 0


POOL = [(p, q) for p in range(2, 10) for q in range(p + 1, 10) if gcd(p, q) == 1]


def test_additivity_under_tensor_small_pool():
    pool = [(2, 3), (2, 5), (3, 4), (3, 5)]
    rng = random.Random(11)
    for _ in range(20):
        a = torus_knot_complex(*rng.choice(pool))
        b = torus_knot_complex(*rng.choice(pool))
        assert upsilon(tensor(a, b)) == upsilon(a) + upsilon(b)


def test_gamma_matches_exhaustive_enumeration():
    rng = random.Random(999)
    exprs = ["T(2,3)", "T(2,5)", "T(3,4)", "T(3,5)", "-T(3,4)", "T(2,3) # T(2,3)"]
    for expr in exprs:
        c = parse_knot_expression(expr)
        assert len(sector(c, 0)) <= 12
        for _ in range(8):
            t = F(rng.randrange(0, 41), 20)
            assert gamma_at(c, t).s == brute_gamma(c, t)


def test_box_at_high_level_never_matters():
    c = torus_knot_complex(3, 4)
    base = upsilon(c)
    for corner in ((5, 5), (9, 9)):
        assert upsilon(direct_sum_with_box(c, *corner, 1, 1, 1)) == base


def test_box_anywhere_leaves_upsilon_unchanged():
    rng = random.Random(31337)
    pool = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, 7)]
    for _ in range(25):
        c = torus_knot_complex(*rng.choice(pool))
        base = upsilon(c)
        boxed = direct_sum_with_box(
            c,
            rng.randrange(-8, 10),
            rng.randrange(-8, 10),
            rng.randrange(1, 4),
            rng.randrange(1, 4),
            rng.randrange(-2, 4),
        )
        assert upsilon(boxed) == base


MAX_CLOSED_FORM_GENERATORS = 150

signed_torus_knot = st.tuples(st.sampled_from([1, -1]), st.sampled_from(POOL[:12]))
box = st.tuples(st.integers(-6, 8), st.integers(-6, 8), st.integers(1, 3),
                st.integers(1, 3), st.integers(-2, 3))


@seed(2)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(knots=st.lists(signed_torus_knot, min_size=1, max_size=3), boxes=st.lists(box, max_size=2))
def test_upsilon_matches_the_closed_form(knots, boxes):
    # the search knows nothing of staircases, mirrors or sums; the oracle
    # knows nothing else
    expr = " # ".join(("-" if sign < 0 else "") + f"T({p},{q})" for sign, (p, q) in knots)
    c = parse_knot_expression(expr)
    for args in boxes:
        c = direct_sum_with_box(c, *args)
    assume(len(c.generators) <= MAX_CLOSED_FORM_GENERATORS)
    expected = closed_form_upsilon([(sign, p, q) for sign, (p, q) in knots])
    assert upsilon(c).breakpoints == expected, (expr, boxes)
