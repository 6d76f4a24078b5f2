"""Stable equivalence: Upsilon2 does not see a filtered change of basis.

Hom calls two complexes stably equivalent when adding acyclic summands makes
them filtered chain homotopy equivalent ("The knot Floer complex and the
smooth concordance group").  Here the acyclic summands are boxes, and the
equivalence is a run of moves x_i <- x_i + x_j, with x_j of the same grading
at or below x_i in both filtrations: a filtered isomorphism.  The moves make
boundary rows that are not staircase-shaped, and some mix a box with the
knot, so they reach the grading-1 elements below gamma that the gamma2 pass
leaves out.  A pair joined by an arrow of length zero puts an element exactly
at gamma that the pass must keep.
"""

from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from cfk import BifilteredComplex, Generator, direct_sum_with_box, parse_knot_expression
from cfk.upsilon import SectorElement, gamma_at, level, upsilon, verify_gamma_certificate
from cfk.upsilon2 import gamma2_at, upsilon2_at, verify_gamma2_certificate
from oracles import brute_gamma2, eager_gamma2

FACTORS = ["T(2,3)", "T(2,5)", "T(3,4)", "T(2,7)", "-T(2,3)", "-T(2,5)", "-T(3,4)"]


@cache
def invariants(expr):
    """Upsilon and the Upsilon2 of every positive singularity, of the knot alone."""
    c = parse_knot_expression(expr)
    ups = upsilon(c)
    t0s = [t0 for t0, jump in ups.singularities() if jump > 0]
    return ups, {t0: upsilon2_at(c, t0, ups=ups) for t0 in t0s}


def filtered_moves(c):
    """Every (i, j), i != j, with x_j of x_i's grading and at or below it in both filtrations."""
    gens = c.generators
    return [(i, j) for i, gi in enumerate(gens) for j, gj in enumerate(gens)
            if i != j and gi.maslov == gj.maslov and gj.alg <= gi.alg and gj.alex <= gi.alex]


def change_basis(c, moves):
    """The complex in the basis x_i <- x_i + x_j, one move (i, j) after another.

    Row i becomes row_i + row_j, and every row holding i, and h0, toggles j.
    The public constructor checks the result and solves its lam.
    """
    allowed = set(filtered_moves(c))
    rows = [set(r) for r in c.boundary]
    h0 = set(c.h0_rep)
    for i, j in moves:
        assert (i, j) in allowed
        rows[i] ^= rows[j]
        for r in rows + [h0]:
            if i in r:
                r ^= {j}
    return BifilteredComplex(c.generators, [sorted(r) for r in rows], h0)


box = st.tuples(st.integers(-4, 6), st.integers(-4, 6), st.integers(1, 2),
                st.integers(1, 2), st.integers(-1, 2))


@seed(16)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(factors=st.lists(st.sampled_from(FACTORS), min_size=1, max_size=2),
       boxes=st.lists(box, max_size=2), data=st.data())
def test_upsilon2_survives_boxes_and_filtered_changes_of_basis(factors, boxes, data):
    expr = " # ".join(factors)
    ups, expected = invariants(expr)
    c = parse_knot_expression(expr)
    for args in boxes:
        c = direct_sum_with_box(c, *args)
    moves = filtered_moves(c)
    assume(moves)  # a single staircase with no box has none
    changed = change_basis(c, data.draw(st.lists(st.sampled_from(moves), min_size=1, max_size=30)))
    for t0, value in expected.items():
        cert = gamma2_at(changed, t0, ups=ups)
        assert cert.upsilon2() == value, (expr, boxes, t0)
        assert cert == eager_gamma2(changed, t0), (expr, boxes, t0)
        verify_gamma2_certificate(changed, cert, ups=ups)
        try:
            assert cert.gamma2 == brute_gamma2(changed, t0, ups), (expr, boxes, t0)
        except ValueError:  # beyond the oracle's size limits
            pass
    # Upsilon at a few points, without a search over the changed complex
    for t in (F(1, 3), F(1), F(8, 5)):
        cert = gamma_at(changed, t)
        assert -2 * cert.s == ups.evaluate(t), (expr, boxes, t)
        verify_gamma_certificate(changed, cert)


def test_the_moves_make_long_rows_and_mix_a_box_with_the_knot():
    # the property above is only as strong as its moves
    c = direct_sum_with_box(parse_knot_expression("T(3,4)"), 3, 3, 1, 1, 1)
    assert len(c.generators) == 7
    moves = filtered_moves(c)
    # x_1 (grading 1, at (1, 3)) lies below the box top x_5 at (3, 3), not above it
    assert (5, 1) in moves and (1, 5) not in moves
    changed = change_basis(c, [(5, 1)])
    assert changed.boundary[5] == (0, 2, 6)
    ups, expected = invariants("T(3,4)")
    for t0, value in expected.items():
        assert upsilon2_at(changed, t0, ups=ups) == value


@pytest.mark.parametrize("expr, t0, k, grades", [
    ("T(4,5)", F(1), 3, (2, 2)),
    ("T(3,7)", F(2, 3), 1, (1, 4)),
    ("T(2,5) # T(5,6)", F(1), 13, (4, 4)),
])
def test_a_pair_at_gamma_joined_by_an_arrow_of_length_zero(expr, t0, k, grades):
    # o -> e with both at the same (alg, alex) is acyclic.  Here they sit at
    # level gamma with a slope strictly between the two side slopes, so
    # neither side pass feeds e; after x_k <- x_k + o the gamma2 pass must
    # feed o, whose level is exactly gamma, to cancel e from x_k's boundary
    knot = parse_knot_expression(expr)
    n = len(knot.generators)
    g = knot.generators[k]
    alg, alex = grades
    pair = (Generator("o", alg, alex, g.maslov), Generator("e", alg, alex, g.maslov - 1))
    c = BifilteredComplex(tuple(knot.generators) + pair, knot.boundary + ((n + 1,), ()),
                          knot.h0_rep)
    changed = change_basis(c, [(k, n)])
    ups, expected = invariants(expr)
    cert = gamma2_at(changed, t0, ups=ups)
    assert level(t0, SectorElement(pair[0], g.maslov >> 1)) == cert.gamma
    assert cert.upsilon2() == expected[t0]
    assert cert == eager_gamma2(changed, t0)
    verify_gamma2_certificate(changed, cert, ups=ups)
