"""The closed-form Υ oracle agrees with cfk's breakpoint search."""

from math import gcd

import pytest

import _paths  # noqa: F401
import knots
from cfk import dual, parse_knot_expression, torus_knot_complex
from cfk.upsilon import upsilon

TORUS_KNOTS = [(p, q) for q in range(2, 13) for p in range(1, q) if gcd(p, q) == 1]


@pytest.mark.parametrize("p,q", TORUS_KNOTS)
def test_staircase_generators_match(p, q):
    c = torus_knot_complex(p, q)
    assert knots.staircase(p, q) == tuple((g.alg, g.alex, g.maslov) for g in c.generators)


@pytest.mark.parametrize("p,q", TORUS_KNOTS)
def test_oracle_matches_torus_knot_and_mirror(p, q):
    c = torus_knot_complex(p, q)
    assert knots.upsilon_of_sum([(1, p, q)]) == upsilon(c).breakpoints
    assert knots.upsilon_of_sum([(-1, q, p)]) == upsilon(dual(c)).breakpoints


@pytest.mark.parametrize("text", [
    "T(2,5) # T(5,6)",
    "T(3,4) # -T(2,7) # T(3,5)",
    "-T(2,3) # -T(3,4)",
    "T(1,5) # T(2,3)",
    "T(3,7) # -T(3,7)",
])
def test_oracle_matches_sums(text):
    c = parse_knot_expression(text)
    factors = knots.parse(text)
    assert knots.upsilon_of_sum(factors) == upsilon(c).breakpoints
    assert knots.generator_count(factors) == len(c.generators)


def test_candidate_count_matches_a_direct_count():
    from fractions import Fraction
    from itertools import combinations

    from cfk.upsilon import sector

    c = parse_knot_expression("T(2,5) # -T(3,4)")
    points = sorted({(e.alg, e.alex) for e in sector(c, 0)})
    crossings = set()
    for (a1, x1), (a2, x2) in combinations(points, 2):
        if (x1 - a1) != (x2 - a2):
            t = Fraction(2 * (a2 - a1), (x1 - a1) - (x2 - a2))
            if 0 < t < 2:
                crossings.add(t)
    assert knots.candidate_count(knots.parse("T(2,5) # -T(3,4)")) == len(crossings)
