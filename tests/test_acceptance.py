"""Acceptance suite: one test per criterion, each printing a PASS line.

All comparisons are exact (Fraction equality, no tolerances).  Each test
asserts its wall-clock budget as well.  Run with ``pytest -v -s`` to see the
per-criterion lines.
"""

import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from io import StringIO
from math import gcd

import pytest

from cfk import (
    alexander_torus,
    direct_sum_with_box,
    dual,
    parse_knot_expression,
    sector,
    step_vector,
    tensor,
    torus_knot_complex,
)
from cfk.cli import run
from cfk.upsilon import CertificateError, gamma_at, level, upsilon, verify_gamma_certificate
from cfk.upsilon2 import (
    Gamma2Certificate,
    gamma2_at,
    upsilon2_at,
    verify_gamma2_certificate,
)
from oracles import brute_gamma, brute_gamma2


def _timed(budget_seconds):
    start = time.perf_counter()

    def done(label):
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"{label} exceeded {budget_seconds}s ({elapsed:.1f}s)"
        print(f"{label}: PASS ({elapsed:.2f}s)")

    return done


def test_acceptance_1_staircase_regression():
    done = _timed(1)
    assert step_vector(alexander_torus(3, 4)).steps == (1, 2, 2, 1)
    assert step_vector(alexander_torus(5, 7)).steps == (
        1, 4, 1, 1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1, 4, 1
    )
    for p in (3, 5, 7, 9, 11, 13):
        assert step_vector(alexander_torus(2, p)).steps == (1,) * (p - 1)
        expected = []
        for j in range(1, p):
            expected += [j, p - j]
        assert step_vector(alexander_torus(p, p + 1)).steps == tuple(expected)
    done("ACCEPTANCE 1 (staircase regression)")


def test_acceptance_2_gamma_and_upsilon2_point_values():
    done = _timed(5)
    t57 = torus_knot_complex(5, 7)
    assert gamma_at(t57, F(4, 5)).s == F(19, 5)
    assert upsilon2_at(t57, F(4, 5)) == F(-8, 5)
    csum = parse_knot_expression("T(2,5) # T(5,6)")
    assert gamma_at(csum, F(4, 5)).s == F(19, 5)
    # T(3,4) at t = 2/3, by hand on the staircase x0(0,3) x1(1,3) x2(1,1)
    # x3(3,1) x4(3,0), with dx1 = x0 + x2 and dx3 = x2 + x4.  The grading-0
    # levels are x0 = x2 = 1 and x4 = 2; x0 is the minimal cycle just below
    # 2/3 and x2 just above, so gamma = 1.  No grading-1 cycle exists, so
    # w = x1 (level 5/3) is the only chain with dw = x0 + x2: gamma2 = 5/3 and
    # upsilon2 = -2*(5/3 - 1) = -4/3, the factor -2 that gives -8/5 above.
    t34 = torus_knot_complex(3, 4)
    computed = upsilon2_at(t34, F(2, 3))
    gamma = gamma_at(t34, F(2, 3)).s
    gamma2 = gamma2_at(t34, F(2, 3)).gamma2
    assert gamma == 1
    assert gamma2 == F(5, 3)
    assert gamma2 - gamma == F(2, 3)
    assert computed == F(-4, 3), (
        f"upsilon2 of T(3,4) at 2/3 computed as {computed}, expected "
        f"-2*(gamma2 - gamma) = -2*(5/3 - 1) = -4/3"
    )
    done("ACCEPTANCE 2 (gamma and upsilon2 point values)")


def test_acceptance_3_grading_one_level_table():
    done = _timed(1)
    c = parse_knot_expression("T(2,5) # T(5,6)")
    levels = sorted(level(F(4, 5), e) for e in sector(c, 1))
    expected = sorted(
        F(n, 5)
        for n in (27, 25, 28, 36, 28, 26, 29, 37, 29, 27, 30, 38,
                  27, 22, 22, 27, 37, 28, 23, 23, 28, 38)
    )
    assert levels == expected
    done("ACCEPTANCE 3 (grading-1 level table at t=4/5)")


def test_acceptance_4_family_separation():
    done = _timed(120)
    for p in (5, 7, 9, 11):
        single = torus_knot_complex(p, p + 2)
        summed = parse_knot_expression(f"T(2,{p}) # T({p},{p + 1})")
        ups_single = upsilon(single)
        ups_summed = upsilon(summed)
        assert ups_single == ups_summed
        t0 = F(4, p)
        v_single = upsilon2_at(single, t0, ups=ups_single)
        v_summed = upsilon2_at(summed, t0, ups=ups_summed)
        assert v_single == F(-4 * (p - 3), p)
        assert v_summed < v_single
    done("ACCEPTANCE 4 (family separation, p <= 11)")


def test_acceptance_4b_family_separation_p13():
    done = _timed(600)
    p = 13
    single = torus_knot_complex(p, p + 2)
    summed = parse_knot_expression(f"T(2,{p}) # T({p},{p + 1})")
    ups_single = upsilon(single)
    ups_summed = upsilon(summed)
    assert ups_single == ups_summed
    assert upsilon2_at(single, F(4, p), ups=ups_single) == F(-40, 13)
    assert upsilon2_at(summed, F(4, p), ups=ups_summed) < F(-40, 13)
    done("ACCEPTANCE 4b (optional p = 13)")


def test_acceptance_5_recursion_sweep():
    done = _timed(120)
    for p in range(2, 12):
        for q in range(p + 1, 13):
            if gcd(p, q) == 1:
                out = StringIO()
                with redirect_stdout(out):
                    run(["verify-recursion", str(p), str(q), "--json"])
                assert json.loads(out.getvalue())["equal"], (p, q)
    done("ACCEPTANCE 5 (torus-knot upsilon recursion, p < q <= 12)")


def _random_staircase(rng):
    pool = [(p, q) for p in range(2, 10) for q in range(p + 1, 10) if gcd(p, q) == 1]
    return torus_knot_complex(*rng.choice(pool))


def test_acceptance_6a_additivity_under_tensor():
    done = _timed(600)
    rng = random.Random(601)
    for _ in range(100):
        a = _random_staircase(rng)
        b = _random_staircase(rng)
        assert upsilon(tensor(a, b)) == upsilon(a) + upsilon(b)
    done("ACCEPTANCE 6a (additivity, 100 cases)")


def test_acceptance_6b_dual_negates():
    done = _timed(600)
    rng = random.Random(602)
    for _ in range(100):
        c = _random_staircase(rng)
        if rng.random() < 0.3:
            c = tensor(c, torus_knot_complex(2, 3))
        assert upsilon(dual(c)) == -upsilon(c)
    done("ACCEPTANCE 6b (mirror, 100 cases)")


def test_acceptance_6c_upsilon_vanishes_at_zero():
    done = _timed(600)
    rng = random.Random(603)
    for _ in range(100):
        c = _random_staircase(rng)
        assert upsilon(c)(0) == 0
    done("ACCEPTANCE 6c (upsilon(0) = 0, 100 cases)")


def test_acceptance_6d_box_invariance():
    done = _timed(600)
    rng = random.Random(604)
    for _ in range(100):
        c = _random_staircase(rng)
        ups = upsilon(c)
        values = {
            t0: upsilon2_at(c, t0, ups=ups)
            for t0, jump in ups.singularities()
            if jump > 0
        }
        boxed = direct_sum_with_box(
            c,
            rng.randrange(-8, 14),
            rng.randrange(-8, 14),
            rng.randrange(1, 4),
            rng.randrange(1, 4),
            rng.randrange(-2, 4),
        )
        ups_boxed = upsilon(boxed)
        assert ups_boxed == ups
        for t0, expected in values.items():
            assert upsilon2_at(boxed, t0, ups=ups_boxed) == expected
    done("ACCEPTANCE 6d (box invariance of upsilon and upsilon2, 100 cases)")


def test_acceptance_6e_boundary_squares_to_zero():
    done = _timed(600)
    rng = random.Random(605)
    for _ in range(100):
        c = _random_staircase(rng)
        if rng.random() < 0.5:
            c = tensor(c, _random_staircase(rng))
        if rng.random() < 0.5:
            c = dual(c)
        c = direct_sum_with_box(c, rng.randrange(-5, 10), rng.randrange(-5, 10),
                                rng.randrange(1, 3), rng.randrange(1, 3),
                                rng.randrange(-1, 3))
        # recheck the axiom directly on top of the construction-time checks
        for i in range(len(c.generators)):
            acc = frozenset()
            for j in c.boundary[i]:
                acc ^= frozenset(c.boundary[j])
            assert not acc
    done("ACCEPTANCE 6e (boundary squares to zero, 100 cases)")


def test_acceptance_6f_gamma_certificates_reverify():
    done = _timed(600)
    rng = random.Random(606)
    for _ in range(100):
        c = _random_staircase(rng)
        if rng.random() < 0.3:
            c = dual(c)
        t = F(rng.randrange(0, 41), 20)
        verify_gamma_certificate(c, gamma_at(c, t))
    done("ACCEPTANCE 6f (gamma certificates re-verify, 100 cases)")


def test_acceptance_7_oracle_equivalence():
    done = _timed(300)
    rng = random.Random(700)
    exprs = [
        "T(2,3)", "T(2,5)", "T(2,7)", "T(2,9)", "T(3,4)", "T(3,5)", "T(3,7)",
        "T(4,5)", "T(5,6)", "T(5,7)", "-T(3,4)", "-T(5,6)",
        "T(2,3) # T(2,3)", "T(2,3) # T(2,5)", "T(2,3) # T(3,4)",
    ]
    for expr in exprs:
        c = parse_knot_expression(expr)
        if rng.random() < 0.4:
            c = direct_sum_with_box(c, rng.randrange(-4, 8), rng.randrange(-4, 8),
                                    1, 1, rng.randrange(0, 2))
        n = len(sector(c, 0))
        assert n <= 12, expr
        for _ in range(25):
            t = F(rng.randrange(0, 41), 20)
            assert gamma_at(c, t).s == brute_gamma(c, t), (expr, t)
    for expr, t0 in (
        ("T(3,4)", F(2, 3)),
        ("T(5,7)", F(4, 5)),
        ("T(2,5) # T(5,6)", F(4, 5)),
    ):
        c = parse_knot_expression(expr)
        ups = upsilon(c)
        assert gamma2_at(c, t0, ups=ups).gamma2 == brute_gamma2(c, t0, ups)
    done("ACCEPTANCE 7 (oracle equivalence)")


def test_acceptance_8_known_stable_equivalence():
    done = _timed(5)
    a = parse_knot_expression("T(2,3) # T(2,3)")
    b = parse_knot_expression("T(2,5)")
    ups_a = upsilon(a)
    ups_b = upsilon(b)
    assert ups_a == ups_b
    sings = [(t0, jump) for t0, jump in ups_a.singularities()]
    assert sings == ups_b.singularities()
    for t0, jump in sings:
        if jump > 0:
            assert upsilon2_at(a, t0, ups=ups_a) == upsilon2_at(b, t0, ups=ups_b)
    done("ACCEPTANCE 8 (stably equivalent pair agrees)")


def _random_expression_complex(rng):
    """A staircase or a sum of two, with mirrored factors and box summands."""
    small = [(p, q) for p in range(2, 6) for q in range(p + 1, 8) if gcd(p, q) == 1]
    c = _random_staircase(rng)
    if rng.random() < 0.5:
        other = torus_knot_complex(*rng.choice(small))
        if rng.random() < 0.4:
            other = dual(other)
        c = tensor(torus_knot_complex(*rng.choice(small)), other)
    if rng.random() < 0.15:
        c = dual(c)
    for _ in range(rng.randrange(0, 3)):
        g = rng.choice(c.generators)
        c = direct_sum_with_box(c, g.alg + rng.randrange(-1, 2), g.alex + rng.randrange(-1, 2),
                                rng.randrange(1, 3), rng.randrange(1, 3),
                                g.maslov + rng.randrange(0, 2))
    return c


def test_acceptance_9_gamma2_certificates_and_minimality():
    done = _timed(600)
    rng = random.Random(909)
    checked = oracle_checked = raised_checked = 0
    for _ in range(100):
        c = _random_expression_complex(rng)
        ups = upsilon(c)
        odd = sector(c, 1)
        for t0, jump in ups.singularities():
            if jump <= 0:
                continue
            cert = gamma2_at(c, t0, ups=ups)
            verify_gamma2_certificate(c, cert, ups=ups)
            checked += 1
            above = sorted({level(t0, e) for e in odd if level(t0, e) > cert.gamma2})
            if above:
                raised = Gamma2Certificate(t0=t0, gamma=cert.gamma, gamma2=above[0],
                                           witness=cert.witness)
                with pytest.raises(CertificateError, match="already merge"):
                    verify_gamma2_certificate(c, raised, ups=ups)
                raised_checked += 1
            try:
                expected = brute_gamma2(c, t0, ups)
            except ValueError:
                continue  # beyond the oracle's size limits
            assert cert.gamma2 == expected, (t0, len(c.generators))
            oracle_checked += 1
    assert checked > 100 and raised_checked > 50 and oracle_checked > 50
    done(f"ACCEPTANCE 9 (gamma2 certificates verify and are minimal, 100 cases, "
         f"{checked} singularities, {oracle_checked} against the oracle)")
