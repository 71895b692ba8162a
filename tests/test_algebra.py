import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from icdof.algebra import (
    AlgebraElement,
    distinct_single_terms,
    enumerate_monomials,
    monomial_count,
    monomial_key,
)
from icdof.errors import CapExceededError


def brute_force_count(m, d):
    """Independent oracle: enumerate all exponent tuples with sum <= d."""
    return sum(
        1 for exps in itertools.product(range(d + 1), repeat=m) if sum(exps) <= d
    )


class TestMonomialCount:
    @pytest.mark.parametrize(
        "m,d,expected", [(6, 0, 1), (6, 1, 7), (6, 2, 28), (2, 1, 3), (3, 2, 10)]
    )
    def test_known_values(self, m, d, expected):
        assert monomial_count(m, d) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_matches_brute_force(self, m, d):
        assert monomial_count(m, d) == brute_force_count(m, d)

    def test_arbitrary_precision(self):
        # No overflow: the count is exact far beyond machine integers.
        assert monomial_count(30, 40) == monomial_count(40, 30)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            monomial_count(0, 3)
        with pytest.raises(ValueError):
            monomial_count(3, -1)


class TestEnumerateMonomials:
    def test_length_matches_count(self):
        for m, d in [(1, 5), (2, 3), (3, 2), (6, 1), (6, 2)]:
            assert len(enumerate_monomials(m, d)) == monomial_count(m, d)

    def test_constant_first_and_sorted(self):
        monos = enumerate_monomials(3, 3)
        assert monos[0] == (0, 0, 0)
        assert monos == sorted(monos, key=monomial_key)
        assert len(set(monos)) == len(monos)

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_prefix_property(self, m, d):
        shorter = enumerate_monomials(m, d)
        longer = enumerate_monomials(m, d + 1)
        assert longer[: len(shorter)] == shorter

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_monomials(6, 2, max_count=10)


def fractions_strategy():
    return st.builds(
        Fraction, st.integers(-6, 6), st.integers(1, 5)
    )


def elements_strategy(ngens=3):
    monos = st.tuples(*[st.integers(0, 2)] * ngens)
    return st.builds(
        lambda terms: AlgebraElement(ngens, terms),
        st.dictionaries(monos, fractions_strategy(), max_size=4),
    )


class TestRingAxioms:
    @given(elements_strategy(), elements_strategy(), elements_strategy())
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(elements_strategy(), elements_strategy(), elements_strategy())
    def test_mul_commutative_distributive(self, a, b, c):
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(elements_strategy())
    def test_additive_inverse_cancels(self, a):
        assert (a + (-a)).is_zero()
        assert not (a + (-a)).terms

    @given(elements_strategy(), elements_strategy())
    def test_hash_consistent_with_eq(self, a, b):
        if a == b:
            assert hash(a) == hash(b)


class TestArithmeticExamples:
    def test_cancellation(self):
        x1 = AlgebraElement.generator(2, 0)
        assert (x1 + x1.scale(-1)).is_zero()

    def test_product_of_generators(self):
        x1 = AlgebraElement.generator(2, 0)
        x2 = AlgebraElement.generator(2, 1)
        assert (x1 * x2).terms == {(1, 1): Fraction(1)}

    def test_difference_of_squares(self):
        x1 = AlgebraElement.generator(1, 0)
        one = AlgebraElement.constant(1, 1)
        assert (x1 + one) * (x1 - one) == x1 * x1 - one

    def test_generator_mismatch(self):
        with pytest.raises(ValueError):
            AlgebraElement.generator(2, 0) + AlgebraElement.generator(3, 0)

    def test_exactness(self):
        a = AlgebraElement.constant(1, Fraction(1, 3))
        b = AlgebraElement.constant(1, Fraction(10**30, 7))
        assert (a + b) - b == a


class TestEvaluate:
    def test_constant(self):
        e = AlgebraElement.constant(2, Fraction(3, 2))
        assert e.evaluate([0.0, 0.0]) == 1.5

    def test_single_generator(self):
        e = AlgebraElement.generator(1, 0)
        assert e.evaluate([2**0.5]) == pytest.approx(1.41421356, abs=1e-8)

    def test_product_term(self):
        x1 = AlgebraElement.generator(2, 0)
        x2 = AlgebraElement.generator(2, 1)
        e = (x1 * x2).scale(2)
        assert e.evaluate([0.5, 3.0]) == pytest.approx(3.0)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            AlgebraElement.generator(2, 0).evaluate([1.0])


class TestDistinctSingleTerms:
    def test_distinct_single_terms(self):
        x1 = AlgebraElement.generator(2, 0)
        x2 = AlgebraElement.generator(2, 1)
        values = [AlgebraElement.constant(2, 3), x1.scale(Fraction(1, 2)), x1 * x2]
        assert distinct_single_terms(values) == [
            ((0, 0), Fraction(3)), ((1, 0), Fraction(1, 2)), ((1, 1), Fraction(1))
        ]
        assert distinct_single_terms([]) == []

    def test_refuses_repeated_monomial(self):
        x1 = AlgebraElement.generator(2, 0)
        assert distinct_single_terms([x1, x1.scale(2)]) is None

    def test_refuses_multi_term_and_zero(self):
        x1 = AlgebraElement.generator(2, 0)
        one = AlgebraElement.constant(2, 1)
        assert distinct_single_terms([x1 + one]) is None
        assert distinct_single_terms([AlgebraElement.zero(2)]) is None
