"""The paper's family: T(p, p+k) against T(k, p) # T(p, p+1) at t0 = 4/p.

Feller-Krcatovich give both knots the same upsilon; the secondary upsilon
tells them apart.  The closed forms pinned here are observed, not proven:

    upsilon2 of T(p, p+k) at 4/p          = -4(p - 1 - min(k, p-k)) / p
    upsilon2 of T(k, p) # T(p, p+1) at 4/p = -4(p - 2) / p

Every value comes from ``upsilon2_at`` with no upsilon given, which reads
the side slopes off its own side passes and refuses a t0 that is not a
positive singularity, so no upsilon search runs and the complexes can grow
to thousands of generators.
"""

from fractions import Fraction as F
from math import gcd

import pytest

from cfk import parse_knot_expression
from cfk.upsilon2 import gamma2_at, upsilon2_at, verify_gamma2_certificate


def single_value(p, k):
    return F(-4 * (p - 1 - min(k, p - k)), p)


def summed_value(p):
    return F(-4 * (p - 2), p)


def pair(p, k):
    return (parse_knot_expression(f"T({p},{p + k})"),
            parse_knot_expression(f"T({k},{p}) # T({p},{p + 1})"))


def test_k2_at_every_odd_p_up_to_45():
    sizes = []
    for p in range(5, 46, 2):
        single, summed = pair(p, 2)
        t0 = F(4, p)
        assert upsilon2_at(single, t0) == single_value(p, 2) == F(-4 * (p - 3), p), p
        assert upsilon2_at(summed, t0) == summed_value(p), p
        sizes.append(len(summed.generators))
    # T(2,45) # T(45,46): 4005 generators, six times the benchmark's largest sum
    assert sizes[0] == 45 and sizes[-1] == 4005


def test_every_coprime_k_up_to_p_15():
    checked = 0
    for p in range(5, 16):
        t0 = F(4, p)
        for k in range(2, p - 1):
            if gcd(p, k) != 1:
                continue
            single, summed = pair(p, k)
            assert upsilon2_at(single, t0) == single_value(p, k), (p, k)
            assert upsilon2_at(summed, t0) == summed_value(p), (p, k)
            checked += 1
    assert checked == 44


@pytest.mark.parametrize("side", [0, 1])
def test_both_sides_at_p_21_are_certified(side):
    p = 21
    c = pair(p, 2)[side]
    cert = gamma2_at(c, F(4, p))
    assert cert.upsilon2() == (single_value(p, 2), summed_value(p))[side]
    verify_gamma2_certificate(c, cert)
