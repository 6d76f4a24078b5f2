from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from cfk.semigroup import (
    AlexanderPolynomial,
    InvalidTorusKnotError,
    StepVector,
    alexander_torus,
    step_vector,
)
from oracles import alexander_by_division, alexander_by_telescoping, conductor, semigroup_elements


class TestSemigroupElements:
    # the slow oracle that the Apery-set construction is checked against
    def test_small(self):
        assert semigroup_elements(2, 3, 7) == [0, 2, 3, 4, 5, 6, 7]

    def test_five_seven(self):
        assert semigroup_elements(5, 7, 15) == [0, 5, 7, 10, 12, 14, 15]

    def test_bound_zero(self):
        assert semigroup_elements(3, 5, 0) == [0]

    def test_not_coprime(self):
        with pytest.raises(InvalidTorusKnotError):
            semigroup_elements(4, 6, 10)

    def test_bad_order(self):
        with pytest.raises(InvalidTorusKnotError):
            semigroup_elements(5, 3, 10)

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            semigroup_elements(2, 3, -1)

    def test_everything_beyond_conductor_is_in(self):
        for p, q in ((2, 7), (3, 5), (4, 9)):
            c = conductor(p, q)
            elems = set(semigroup_elements(p, q, c + 25))
            assert all(n in elems for n in range(c, c + 26))
            assert c - 1 not in elems  # the Frobenius number sits just below


class TestAlexander:
    def test_t34(self):
        assert alexander_torus(3, 4).exponents == (0, 1, 3, 5, 6)

    def test_t57(self):
        assert alexander_torus(5, 7).exponents == (
            0, 1, 5, 6, 7, 8, 10, 11, 12, 13, 14, 16, 17, 18, 19, 23, 24
        )

    def test_t23(self):
        assert alexander_torus(2, 3).exponents == (0, 1, 2)

    def test_degree_is_conductor(self):
        for p, q in ((2, 5), (3, 7), (5, 6)):
            assert alexander_torus(p, q).exponents[-1] == (p - 1) * (q - 1)

    def test_invalid(self):
        with pytest.raises(InvalidTorusKnotError):
            alexander_torus(4, 6)

    @pytest.mark.parametrize("p, q", [
        (2, True), (True, 3), (2.0, 3), (2, Fraction(3)), ("2", 3), (3, 2), (1, 2),
    ], ids=repr)
    def test_rejects_a_pair_out_of_scope(self, p, q):
        with pytest.raises(InvalidTorusKnotError):
            alexander_torus(p, q)

    def test_agrees_with_telescoping(self):
        pairs = [(p, q) for q in range(3, 80) for p in range(2, q) if gcd(p, q) == 1]
        assert len(pairs) == 1855
        for p, q in pairs:
            assert alexander_torus(p, q).exponents == alexander_by_telescoping(p, q), (p, q)

    def test_agrees_with_polynomial_division(self):
        # second, independent route: (t^{pq}-1)(t-1) / ((t^p-1)(t^q-1))
        pairs = [
            (p, q)
            for p in range(2, 21)
            for q in range(p + 1, 202)
            if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 400
        ]
        assert len(pairs) > 100
        for p, q in pairs:
            poly = alexander_torus(p, q)
            signed = alexander_by_division(p, q)
            assert [e for e, _ in signed] == list(poly.exponents)
            assert [c for _, c in signed] == [
                1 if i % 2 == 0 else -1 for i in range(len(poly.exponents))
            ]


class TestAlexanderType:
    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            AlexanderPolynomial((1, 2, 3))

    def test_rejects_odd_top_index(self):
        with pytest.raises(ValueError):
            AlexanderPolynomial((0, 1, 2, 3))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            AlexanderPolynomial((0, 1, 5))

    @pytest.mark.parametrize("exponents", [(0, 0, 0), (0, 2, 1, 3, 3)], ids=repr)
    def test_rejects_exponents_that_do_not_increase(self, exponents):
        with pytest.raises(ValueError, match="^exponents must be strictly increasing$"):
            AlexanderPolynomial(exponents)

    @pytest.mark.parametrize("exponents", [
        (0, 1.5, 2), (0, 1.0, 2), (0, True, 2), (0, Fraction(1), 2), (0, "1", 2),
    ], ids=repr)
    def test_rejects_non_integer_exponents(self, exponents):
        with pytest.raises(ValueError, match="every exponent must be an int"):
            AlexanderPolynomial(exponents)


class TestStepVector:
    def test_t34(self):
        assert step_vector(alexander_torus(3, 4)).steps == (1, 2, 2, 1)

    def test_t57(self):
        assert step_vector(alexander_torus(5, 7)).steps == (
            1, 4, 1, 1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1, 4, 1
        )

    def test_t2p_is_all_ones(self):
        for p in (3, 5, 7, 9, 11, 13):
            assert step_vector(alexander_torus(2, p)).steps == (1,) * (p - 1)

    def test_tp_pplus1_pattern(self):
        for p in range(3, 14):
            expected = []
            for j in range(1, p):
                expected += [j, p - j]
            assert step_vector(alexander_torus(p, p + 1)).steps == tuple(expected)

    def test_invariants_on_generated_vectors(self):
        for p in range(2, 10):
            for q in range(p + 1, 12):
                if gcd(p, q) != 1:
                    continue
                sv = step_vector(alexander_torus(p, q))
                assert sv.steps == sv.steps[::-1]
                assert sum(sv.steps[0::2]) == sum(sv.vertical)

    def test_type_rejects_non_palindrome(self):
        with pytest.raises(ValueError):
            StepVector((1, 2, 1, 2))

    def test_type_rejects_odd_length(self):
        with pytest.raises(ValueError):
            StepVector((1, 2, 1))

    @pytest.mark.parametrize("steps", [(0, 0), (1, -1, -1, 1), (2, 0, 0, 2)], ids=repr)
    def test_type_rejects_steps_that_are_not_positive(self, steps):
        with pytest.raises(ValueError, match="^steps must be positive$"):
            StepVector(steps)

    def test_an_even_palindrome_balances(self):
        # step i pairs with step n-1-i, of the other parity, so the horizontal
        # and vertical steps are one multiset: a palindrome needs no balance check
        count = 0
        for n in (2, 4, 6, 8):
            for half in product((1, 2, 3), repeat=n // 2):
                steps = StepVector(half + half[::-1]).steps
                assert sorted(steps[0::2]) == sorted(steps[1::2])
                count += 1
        assert count == 120

    @pytest.mark.parametrize("steps", [
        (1.9, 1.9), (1.0, 1.0), (True, True), (Fraction(1), Fraction(1)), ("1", "1"),
    ], ids=repr)
    def test_type_rejects_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="every step must be an int"):
            StepVector(steps)
