import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from icdof.algebra import (
    AlgebraElement,
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


def recursive_monomials(m, d):
    """The recursive graded-lex enumeration ``enumerate_monomials`` replaced,
    the oracle for its iterative build."""
    def of_degree(m, deg):
        if m == 1:
            yield (deg,)
            return
        for first in range(deg + 1):
            for rest in of_degree(m - 1, deg - first):
                yield (first,) + rest

    return [mono for deg in range(d + 1) for mono in of_degree(m, deg)]


class TestEnumerateMonomials:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_equals_recursive_oracle(self, m):
        for d in range(6):
            assert enumerate_monomials(m, d) == recursive_monomials(m, d)

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
        # C(36, 6) = 1,947,792 monomials: refused before any is built, so
        # the call allocates nothing near the hundreds of MB they would take.
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                enumerate_monomials(30, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


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


def mixed_coefficients():
    """Python ints, and Fractions both integral and not."""
    return st.one_of(st.integers(-6, 6), fractions_strategy())


def mixed_term_maps(ngens=2):
    monos = st.tuples(*[st.integers(0, 2)] * ngens)
    return st.dictionaries(monos, mixed_coefficients(), max_size=4)


def reference(terms):
    """A term map as the plain ``{monomial: Fraction}`` oracle, zeros dropped."""
    return {m: Fraction(c) for m, c in terms.items() if c}


def reference_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def reference_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def assert_canonical(element, expected):
    """``element`` holds ``expected`` by value, no zero, and each coefficient
    is an int exactly when it is integral."""
    terms = element.terms
    assert terms == expected
    assert all(c for c in terms.values())
    assert all(
        (type(c) is int) == (Fraction(c).denominator == 1) for c in terms.values()
    )
    assert element == AlgebraElement(element.ngens, expected)
    assert hash(element) == hash(AlgebraElement(element.ngens, expected))


class TestIntCoefficients:
    """Integral coefficients are kept as ints; every result matches the
    ``{monomial: Fraction}`` oracle by value."""

    @given(mixed_term_maps(), mixed_term_maps(), mixed_coefficients(),
           st.integers(0, 3))
    def test_operations_match_fraction_reference(self, ta, tb, factor, exp):
        a, b = AlgebraElement(2, ta), AlgebraElement(2, tb)
        ra, rb = reference(ta), reference(tb)
        assert_canonical(a, ra)
        assert_canonical(a + b, reference_add(ra, rb))
        assert_canonical(a * b, reference_mul(ra, rb))
        assert_canonical(-a, {m: -c for m, c in ra.items()})
        assert_canonical(a - b, reference_add(ra, {m: -c for m, c in rb.items()}))
        scaled = {m: c * factor for m, c in ra.items() if factor}
        assert_canonical(a.scale(factor), scaled)
        assert_canonical(a * factor, scaled)
        power = {(0, 0): Fraction(1)}
        for _ in range(exp):
            power = reference_mul(power, ra)
        assert_canonical(a**exp, power)

    def test_int_and_fraction_coefficients_are_equal(self):
        as_int = AlgebraElement(1, {(1,): 2})
        as_fraction = AlgebraElement(1, {(1,): Fraction(2)})
        assert as_int == as_fraction
        assert hash(as_int) == hash(as_fraction)
        assert type(as_fraction.terms[(1,)]) is int
        half = AlgebraElement(1, {(1,): Fraction(1, 2)})
        assert type((half + half).terms[(1,)]) is int
        assert (half + half) == as_int.scale(Fraction(1, 2))
        assert len({as_int, as_fraction, half.scale(4)}) == 1


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
