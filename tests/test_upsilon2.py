import sys
from fractions import Fraction as F

import pytest

from cfk import (
    direct_sum_with_box,
    dual,
    parse_knot_expression,
    torus_knot_complex,
)
from cfk.exactnum import PiecewiseLinear
from cfk.upsilon import (
    CertificateError,
    _SectorEngine,
    gamma_at,
    upsilon,
    verify_gamma_certificate,
)
from cfk.upsilon2 import (
    NotApplicableError,
    gamma2_at,
    upsilon2_at,
    verify_gamma2_certificate,
)
from oracles import brute_gamma2, eager_side, replace


def points(elems):
    return {(e.alg, e.alex) for e in elems}


def side_pass(c, t0, sign):
    """gamma jet, class cycle (as sector elements) and null cycles beside t0.

    The engine's one pass below gamma and its resumed side must give
    exactly what the eager oracle's whole side pass gives.
    """
    engine = _SectorEngine(c)
    gamma, null_below, *sides = engine.sides(t0)
    slope, z0, own = sides[sign > 0]
    jet = (F(gamma, 2 * t0.denominator), F(slope, 2))  # the engine's are 2b*level and Alex - alg
    assert (jet, z0, null_below, own) == eager_side(c, t0, sign)
    return jet, engine.elements(0, z0), null_below + own


class TestSideCycles:
    # the side passes of gamma2_at: their gamma jets decide whether t0 is a
    # singularity with a positive slope jump, and their class cycles seed the
    # certificate's z_minus and z_plus (see TestGamma2)
    def test_t34(self):
        c = torus_knot_complex(3, 4)
        jet_m, minus, null_m = side_pass(c, F(2, 3), -1)
        jet_p, plus, null_p = side_pass(c, F(2, 3), 1)
        assert points(minus) == {(0, 3)}
        assert points(plus) == {(1, 1)}
        assert null_m == [] and null_p == []
        # upsilon = -3t before 2/3 and -2 after it: gamma = 1, slopes 3/2, 0
        assert jet_m == (1, F(3, 2)) and jet_p == (1, 0)

    def test_t57(self):
        c = torus_knot_complex(5, 7)
        jet_m, minus, _ = side_pass(c, F(4, 5), -1)
        jet_p, plus, _ = side_pass(c, F(4, 5), 1)
        assert points(minus) == {(1, 8)}
        assert points(plus) == {(3, 5)}
        assert jet_m == (F(19, 5), F(7, 2)) and jet_p == (F(19, 5), 1)

    def test_connected_sum_pivots(self):
        c = parse_knot_expression("T(2,5) # T(5,6)")
        _, minus, _ = side_pass(c, F(4, 5), -1)
        _, plus, _ = side_pass(c, F(4, 5), 1)
        assert points(minus) == {(1, 8)}
        assert points(plus) == {(3, 5)}
        names = {c.generators[e.index].name for e in minus}
        assert names == {"(x0|x2)"}  # (0,2) tensor (1,6)
        names = {c.generators[e.index].name for e in plus}
        assert names == {"(x0|x4)"}  # (0,2) tensor (3,3)

    def test_rejects_non_singularity(self):
        c = torus_knot_complex(3, 4)
        with pytest.raises(NotApplicableError, match="no singularity"):
            gamma2_at(c, F(1, 2))
        with pytest.raises(NotApplicableError, match="no singularity"):
            upsilon2_at(c, F(1, 2))

    def test_rejects_negative_jump(self):
        c = dual(torus_knot_complex(3, 4))
        ups = upsilon(c)
        t0 = ups.singularities()[0][0]
        with pytest.raises(NotApplicableError, match="negative"):
            gamma2_at(c, t0, ups=ups)
        with pytest.raises(NotApplicableError, match="negative"):
            upsilon2_at(c, t0)

    def test_rejects_endpoint(self):
        c = torus_knot_complex(3, 4)
        for t0 in (F(0), 2):
            with pytest.raises(NotApplicableError, match="open interval"):
                gamma2_at(c, t0)
            with pytest.raises(NotApplicableError, match="open interval"):
                upsilon2_at(c, t0)

    def test_rejects_foreign_upsilon(self):
        # same singularity location, different gamma value
        foreign = upsilon(parse_knot_expression("T(3,4) # T(3,4)"))
        with pytest.raises(ValueError, match="does not belong"):
            gamma2_at(torus_knot_complex(3, 4), F(2, 3), ups=foreign)

    def test_each_component_of_upsilon_at_t0_is_checked(self):
        # forgeries that match upsilon at t0 in all but one of the value, the
        # left slope and the right slope
        c = parse_knot_expression("T(2,5) # T(5,6)")
        ups = upsilon(c)
        t0s = [t0 for t0, jump in ups.singularities() if jump > 0]
        assert len(t0s) >= 4
        for t0 in t0s:
            pts = list(ups.breakpoints)
            i = [t for t, _ in pts].index(t0)
            left, right = (pts[i - 1][0] + t0) / 2, (t0 + pts[i + 1][0]) / 2
            forgeries = [
                PiecewiseLinear(tuple((t, v + 1) for t, v in pts)),
                PiecewiseLinear((*pts[:i], (left, ups(left) + 1), *pts[i:])),
                PiecewiseLinear((*pts[:i + 1], (right, ups(right) + 1), *pts[i + 1:])),
            ]
            genuine = ups.value_and_slopes(t0)
            cert = gamma2_at(c, t0, ups=ups)
            for k, forged in enumerate(forgeries):
                differs = [a != b for a, b in zip(forged.value_and_slopes(t0), genuine)]
                assert differs == [j == k for j in range(3)], (t0, k)
                with pytest.raises(ValueError, match="does not belong"):
                    gamma2_at(c, t0, ups=forged)
                with pytest.raises(ValueError, match="does not belong"):
                    upsilon2_at(c, t0, ups=forged)
                with pytest.raises(ValueError, match="does not belong"):
                    verify_gamma2_certificate(c, cert, ups=forged)

    # the genuine upsilon of T(3,4) as its tuple of breakpoints, a string and a float
    @pytest.mark.parametrize("kind", ["breakpoints", "str", "float"])
    def test_an_upsilon_that_is_not_piecewise_linear_is_refused(self, kind):
        c = torus_knot_complex(3, 4)
        ups = {"breakpoints": upsilon(c).breakpoints, "str": "upsilon", "float": -0.5}[kind]
        cert = gamma2_at(c, F(2, 3))
        message = f"^ups must be a PiecewiseLinear, got {type(ups).__name__}$"
        for call in (lambda: gamma2_at(c, F(2, 3), ups=ups),
                     lambda: upsilon2_at(c, F(2, 3), ups=ups),
                     lambda: verify_gamma2_certificate(c, cert, ups=ups)):
            with pytest.raises(TypeError, match=message):
                call()

    def test_refusals_come_before_the_merge_pass(self, monkeypatch):
        # the side slopes alone decide each refusal, so a merge pass that
        # raises is never reached
        def merge(*args):
            raise AssertionError("the merge pass ran")

        monkeypatch.setattr(_SectorEngine, "merge", merge)
        c = torus_knot_complex(3, 4)
        foreign = upsilon(parse_knot_expression("T(3,4) # T(3,4)"))
        for call in (gamma2_at, upsilon2_at):
            with pytest.raises(ValueError, match="does not belong"):
                call(c, F(2, 3), ups=foreign)
            with pytest.raises(NotApplicableError, match="no singularity"):
                call(c, F(1, 2))
            with pytest.raises(NotApplicableError, match="negative"):
                call(dual(c), F(2, 3))
            with pytest.raises(NotApplicableError, match="open interval"):
                call(c, 2)
            with pytest.raises(AssertionError, match="the merge pass ran"):
                call(c, F(2, 3))


class TestGamma2:
    def test_t34_witness_is_the_inner_corner(self):
        cert = gamma2_at(torus_knot_complex(3, 4), F(2, 3))
        assert cert.gamma == 1
        assert cert.gamma2 == F(5, 3)
        assert points(cert.witness.w) == {(1, 3)}
        assert points(cert.witness.z_minus) == {(0, 3)}
        assert points(cert.witness.z_plus) == {(1, 1)}

    def test_t57_needs_both_deep_corners(self):
        cert = gamma2_at(torus_knot_complex(5, 7), F(4, 5))
        assert cert.gamma == F(19, 5)
        assert cert.gamma2 == F(23, 5)
        assert points(cert.witness.w) == {(2, 8), (3, 7)}
        assert points(cert.witness.z_minus) == {(1, 8)}
        assert points(cert.witness.z_plus) == {(3, 5)}

    def test_connected_sum_exceeds_23_fifths(self):
        c = parse_knot_expression("T(2,5) # T(5,6)")
        cert = gamma2_at(c, F(4, 5))
        assert cert.gamma2 > F(23, 5)
        assert cert.gamma2 == F(5)  # attained by (0,2) tensor the (3,6) corner
        assert points(cert.witness.w) == {(3, 8)}
        assert points(cert.witness.z_minus) == {(1, 8)}
        assert points(cert.witness.z_plus) == {(3, 5)}
        names = {c.generators[e.index].name for e in cert.witness.z_minus}
        assert names == {"(x0|x2)"}  # (0,2) tensor (1,6)
        names = {c.generators[e.index].name for e in cert.witness.z_plus}
        assert names == {"(x0|x4)"}  # (0,2) tensor (3,3)

    def test_certificates_verify(self):
        for expr, t0 in (
            ("T(3,4)", F(2, 3)),
            ("T(3,4)", F(4, 3)),
            ("T(5,7)", F(4, 5)),
            ("T(2,5) # T(5,6)", F(4, 5)),
        ):
            c = parse_knot_expression(expr)
            ups = upsilon(c)
            cert = gamma2_at(c, t0, ups=ups)
            verify_gamma2_certificate(c, cert, ups=ups)

    def test_tampered_certificate_rejected(self):
        from cfk.upsilon2 import Gamma2Certificate

        c = torus_knot_complex(5, 7)
        cert = gamma2_at(c, F(4, 5))
        inflated = Gamma2Certificate(
            t0=cert.t0, gamma=cert.gamma, gamma2=F(27, 5), witness=cert.witness
        )
        with pytest.raises(CertificateError):
            verify_gamma2_certificate(c, inflated)

    def test_side_cycle_that_is_not_least_rejected(self):
        # T(3,4) at 2/3: z_minus = x0 and z_plus = x2 merge through w = x1.
        # Each is a class cycle at level gamma on the other side too, but
        # there the other one's slope puts it strictly below
        c = torus_knot_complex(3, 4)
        cert = gamma2_at(c, F(2, 3))
        w = cert.witness
        for side, other in (("z_minus", w.z_plus), ("z_plus", w.z_minus)):
            tampered = replace(cert, witness=replace(w, **{side: other}, w=frozenset()))
            with pytest.raises(CertificateError, match=f"class lies below {side}"):
                verify_gamma2_certificate(c, tampered)

    def test_threshold_that_is_no_level_at_or_above_gamma_rejected(self):
        # T(5,7) at 4/5: gamma = 19/5, gamma2 = 23/5 and the grading-1
        # levels from 22/5 up are 22/5, 23/5, 27/5, ...; a gamma2 below gamma,
        # or strictly between two of these levels, is refused by name
        c = torus_knot_complex(5, 7)
        cert = gamma2_at(c, F(4, 5))
        assert (cert.gamma, cert.gamma2) == (F(19, 5), F(23, 5))
        for gamma2 in (F(18, 5), F(21, 5), F(9, 2), F(5)):
            with pytest.raises(CertificateError,
                               match="threshold is not a grading-1 level at or above gamma"):
                verify_gamma2_certificate(c, replace(cert, gamma2=gamma2))
        # gamma itself is a threshold though no grading-1 element sits there:
        # this w, which reaches above it, is what refuses it
        with pytest.raises(CertificateError, match="w uses an element above the threshold"):
            verify_gamma2_certificate(c, replace(cert, gamma2=cert.gamma))

    def test_swapped_sides_rejected(self):
        from cfk.upsilon2 import Gamma2Certificate, MergeWitness

        for expr, t0 in (("T(3,4)", F(2, 3)), ("T(2,5) # T(5,6)", F(4, 5))):
            c = parse_knot_expression(expr)
            cert = gamma2_at(c, t0)
            w = cert.witness
            swapped = Gamma2Certificate(
                t0=cert.t0, gamma=cert.gamma, gamma2=cert.gamma2,
                witness=MergeWitness(z_minus=w.z_plus, z_plus=w.z_minus, w=w.w),
            )
            with pytest.raises(CertificateError):
                verify_gamma2_certificate(c, swapped)

    # each gamma or gamma2 below equals the certificate's own value at that
    # singularity and differs from it only in being inexact
    @pytest.mark.parametrize("expr, t0, field, value", [
        *(pytest.param("T(5,7)", F(2, 5), "t0", v, id=repr(v)) for v in (0.4, "2/5", None, True)),
        *(pytest.param(expr, t0, field, value, id=f"{expr}-{field}={value!r}")
          for expr, t0, field, value in (
              ("T(2,5)", 1, "gamma", 1.0), ("T(2,5)", 1, "gamma", True),
              ("T(2,5)", 1, "gamma2", 1.5), ("T(3,5)", 1, "gamma", 1.5),
              ("T(3,5)", 1, "gamma2", 2.0), ("T(4,5)", F(1, 2), "gamma2", 2.25))),
    ])
    def test_inexact_parameter_rejected(self, expr, t0, field, value):
        c = parse_knot_expression(expr)
        cert = gamma2_at(c, t0)
        with pytest.raises(CertificateError, match=f"{field} must be an int or a Fraction"):
            verify_gamma2_certificate(c, replace(cert, **{field: value}))

    # "set" stands for the genuine elements of that field in a set, not a
    # frozenset, and "tuples" for a frozenset of plain tuples equal to them
    @pytest.mark.parametrize("field, value", [
        ("witness", None), ("witness", (frozenset(),) * 3),
        ("w", None), ("w", 7), ("w", frozenset({7})), ("w", "set"),
        ("z_minus", None), ("z_minus", "set"), ("z_plus", (1,)), ("z_plus", "set"),
        ("z_minus", "tuples"), ("z_plus", "tuples"), ("w", "tuples"),
    ], ids=repr)
    def test_malformed_witness_rejected(self, field, value):
        c = torus_knot_complex(3, 4)
        cert = gamma2_at(c, F(2, 3))
        if field == "witness":
            tampered, message = replace(cert, witness=value), "witness must be a MergeWitness"
        else:
            if value == "set":
                value = set(getattr(cert.witness, field))
            elif value == "tuples":
                value = frozenset(map(tuple, getattr(cert.witness, field)))
                assert value == getattr(cert.witness, field)
            tampered = replace(cert, witness=replace(cert.witness, **{field: value}))
            message = f"{field} must be a frozenset of SectorElements"
        with pytest.raises(CertificateError, match=message):
            verify_gamma2_certificate(c, tampered)


# each verifier refuses anything but its own certificate before it reads a
# field: None, a string, the other verifier's certificate, a look-alike
# holding the genuine certificate's fields, and a bare tuple of them, which
# compares equal to the genuine certificate
@pytest.mark.parametrize("kind", ["gamma", "gamma2"])
@pytest.mark.parametrize("value", [None, "x", "other", "look-alike", "tuple"])
def test_a_non_certificate_is_refused(kind, value):
    from types import SimpleNamespace

    c = torus_knot_complex(3, 4)
    certs = {"gamma": gamma_at(c, F(2, 3)), "gamma2": gamma2_at(c, F(2, 3))}
    verify, other, name = {
        "gamma": (verify_gamma_certificate, "gamma2", "GammaCertificate"),
        "gamma2": (verify_gamma2_certificate, "gamma", "Gamma2Certificate"),
    }[kind]
    fake = {"other": certs[other], "look-alike": SimpleNamespace(**certs[kind]._asdict()),
            "tuple": tuple(certs[kind])}
    assert fake["tuple"] == certs[kind]
    with pytest.raises(CertificateError, match=f"^certificate must be a {name}$"):
        verify(c, fake.get(value, value))


def test_secondary_invariant_needs_no_upsilon(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("upsilon was computed")

    # the package attribute cfk.upsilon is the function, so patch the modules
    monkeypatch.setattr(sys.modules["cfk.upsilon"], "upsilon", forbidden)
    monkeypatch.setattr(sys.modules["cfk.upsilon2"], "upsilon", forbidden, raising=False)
    c = parse_knot_expression("T(2,5) # T(5,6)")
    cert = gamma2_at(c, F(4, 5))
    verify_gamma2_certificate(c, cert)
    assert upsilon2_at(c, F(4, 5)) == F(-12, 5)
    assert cert.gamma == F(19, 5)
    with pytest.raises(NotApplicableError):
        gamma2_at(c, F(1, 2))


class TestUpsilon2Values:
    def test_t34(self):
        # gamma jumps from 1 to 5/3 at t0=2/3, so the invariant is -4/3
        assert upsilon2_at(torus_knot_complex(3, 4), F(2, 3)) == F(-4, 3)

    def test_t57(self):
        assert upsilon2_at(torus_knot_complex(5, 7), F(4, 5)) == F(-8, 5)

    def test_family(self):
        for p in (5, 7):
            c = torus_knot_complex(p, p + 2)
            assert upsilon2_at(c, F(4, p)) == F(-4 * (p - 3), p)

    def test_connected_sum_value(self):
        c = parse_knot_expression("T(2,5) # T(5,6)")
        assert upsilon2_at(c, F(4, 5)) == F(-12, 5)

    def test_separation_at_p5(self):
        a = torus_knot_complex(5, 7)
        b = parse_knot_expression("T(2,5) # T(5,6)")
        ua, ub = upsilon(a), upsilon(b)
        assert ua == ub
        assert upsilon2_at(a, F(4, 5), ups=ua) > upsilon2_at(b, F(4, 5), ups=ub)


class TestOracleAgreement:
    def test_exhaustive_triples_match(self):
        for expr, t0 in (
            ("T(3,4)", F(2, 3)),
            ("T(5,7)", F(4, 5)),
            ("T(2,5) # T(5,6)", F(4, 5)),
            ("T(2,3) # T(2,3)", F(1)),
            ("T(2,5)", F(1)),
        ):
            c = parse_knot_expression(expr)
            ups = upsilon(c)
            assert gamma2_at(c, t0, ups=ups).gamma2 == brute_gamma2(c, t0, ups)


class TestStability:
    def test_box_summands_leave_upsilon2_unchanged(self):
        import random

        rng = random.Random(777)
        for expr in ("T(3,4)", "T(5,7)", "T(2,3) # T(2,5)"):
            c = parse_knot_expression(expr)
            ups = upsilon(c)
            values = {
                t0: upsilon2_at(c, t0, ups=ups)
                for t0, jump in ups.singularities()
                if jump > 0
            }
            for _ in range(6):
                boxed = direct_sum_with_box(
                    c,
                    rng.randrange(-6, 12),
                    rng.randrange(-6, 12),
                    rng.randrange(1, 3),
                    rng.randrange(1, 3),
                    rng.randrange(-1, 3),
                )
                ub = upsilon(boxed)
                assert ub == ups
                for t0, expected in values.items():
                    assert upsilon2_at(boxed, t0, ups=ub) == expected


def test_integer_side_keys_match_fraction_levels():
    # _SectorEngine.sides orders the even sector on integer levels scaled by
    # 2b at t0 = a/b, and the elements at gamma on integer slopes scaled by
    # 2.  The Fraction definition, keys (level, 0) below gamma and (gamma,
    # sign * level_slope) at it, must give the same jet, class cycle and null
    # cycles, at every breakpoint of upsilon and at points with large
    # denominators.
    import random

    from cfk.f2linalg import Echelon, by_threshold
    from cfk.upsilon import _SectorEngine, level, sector
    from oracles import level_slope

    rng = random.Random(9731)
    pairs = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (3, 7), (5, 6)]
    for _ in range(14):
        expr = " # ".join(
            ("-" if rng.random() < 0.3 else "") + "T(%d,%d)" % rng.choice(pairs)
            for _ in range(rng.randrange(1, 4))
        )
        c = parse_knot_expression(expr)
        for _ in range(rng.randrange(0, 3)):
            c = direct_sum_with_box(c, rng.randrange(-5, 8), rng.randrange(-5, 8),
                                    rng.randrange(1, 3), rng.randrange(1, 3),
                                    rng.randrange(-1, 3))
        engine = _SectorEngine(c)
        t0s = [t for t, _ in upsilon(c).breakpoints if 0 < t < 2]
        t0s += [F(97, 113), F(1, 977), F(1999, 1000), F(355, 226)]
        even = sector(c, 0)
        for t0 in t0s:
            gamma = engine.gamma(t0)[0]
            levels = [level(t0, e) for e in even]
            scaled, null_below, *sides = engine.sides(t0)
            for sign, (slope, z0, own) in zip((-1, 1), sides):
                keys = [(lv, sign * level_slope(e) if lv == gamma else 0)
                        for lv, e in zip(levels, even)]
                key, cycle, null_cycles = engine.entry(
                    by_threshold(keys, engine.class_columns), Echelon())
                expected = ((key[0], sign * key[1]), cycle, null_cycles)
                jet = (F(scaled, 2 * t0.denominator), F(slope, 2))
                assert (jet, z0, null_below + own) == expected, (expr, t0, sign)
                assert type(scaled) is type(slope) is int  # the engine builds no Fraction
