import itertools
import random
from fractions import Fraction

import pytest

from icdof.algebra import AlgebraElement, monomial_count
from icdof.channel import (
    generic_channel,
    load_channel,
    rational_channel,
    integer_offdiag_channel,
)
from icdof.condition import (
    DependenceCertificate,
    basis_values,
    check_all,
    check_condition_star,
    monomial_values,
)
from icdof.errors import CapExceededError
from icdof import linalg


def fraction_rank(matrix):
    """Independent rank oracle: plain Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestLinalg:
    def test_rank_examples(self):
        assert linalg.rank([[1, 0], [0, 1]]) == 2
        assert linalg.rank([[1, 2], [2, 4]]) == 1
        assert linalg.rank([[0, 0], [0, 0]]) == 0
        assert linalg.rank([]) == 0

    def test_rank_matches_fraction_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = [
                [rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)
            ]
            assert linalg.rank(m) == fraction_rank(m)

    def test_kernel_vector_annihilates(self):
        rng = random.Random(11)
        found = 0
        for _ in range(80):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(2, 6)
            m = [
                [rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)
            ]
            x = linalg.kernel_vector(m)
            if x is None:
                assert fraction_rank(m) == cols
                continue
            found += 1
            assert any(x)
            assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in m)
            # coprime with positive leading entry
            g = 0
            for v in x:
                g = __import__("math").gcd(g, v)
            assert g == 1
            assert next(v for v in x if v) > 0
        assert found > 20

    def test_kernel_none_for_full_column_rank(self):
        assert linalg.kernel_vector([[2, 0], [0, 5], [1, 1]]) is None

    def test_no_fractions_in_echelon(self):
        echelon, _ = linalg.bareiss_echelon([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        assert all(isinstance(v, int) for row in echelon for v in row)


class TestMonomialFamily:
    def test_degree_zero_family(self):
        m = generic_channel(2)
        fam = monomial_values(m, 0, 1)
        one = AlgebraElement.constant(4, 1)
        assert fam == [one, m.diagonal(1)]

    def test_family_length(self):
        m = generic_channel(3)
        for d in (0, 1, 2):
            phi = monomial_count(6, d)
            assert len(monomial_values(m, d, 2)) == 2 * phi

    def test_basis_starts_with_one(self):
        m = generic_channel(3)
        vals = basis_values(m, 1)
        assert vals[0] == AlgebraElement.constant(9, 1)
        # degree-1 block is exactly the off-diagonal entries (row-major)
        assert set(vals[1:]) == {
            m.entry(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j
        }

    def test_receiver_out_of_range(self):
        with pytest.raises(ValueError):
            monomial_values(generic_channel(2), 1, 3)

    def test_phi_cap(self):
        with pytest.raises(CapExceededError):
            basis_values(generic_channel(3), 2, phi_cap=10)


class TestGenericIndependence:
    def test_k3_degree_one(self):
        report = check_all(generic_channel(3), 1)
        assert report.independent
        for v in report.verdicts:
            assert v.family_size == 14
            assert v.rank == 14
            assert v.certificate is None

    def test_k3_degree_two(self):
        report = check_all(generic_channel(3), 2)
        assert report.independent
        assert all(v.rank == 56 for v in report.verdicts)

    def test_k2_degrees(self):
        for d in (0, 1, 2, 3):
            assert check_all(generic_channel(2), d).independent

    def test_distinct_single_terms_skip_elimination(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Bareiss ran on a distinct single-term family")

        monkeypatch.setattr(linalg, "bareiss_echelon", refuse)
        report = check_all(generic_channel(3), 3)
        assert report.independent
        assert all(v.rank == v.family_size == 168 for v in report.verdicts)

    def test_monotone_in_degree(self):
        # independence up to d+1 implies independence up to d
        # (the degree-d family is a prefix of the degree-(d+1) family)
        m = generic_channel(3)
        assert check_all(m, 2).independent
        assert check_all(m, 1).independent
        assert check_all(m, 0).independent

    def test_generator_relabel_invariance(self):
        doc = {
            "K": 2,
            "generators": ["u", "v", "w", "z"],
            "entries": [["u", "v"], ["w", "z"]],
        }
        report = check_all(load_channel(doc), 2)
        assert report.independent


class TestDependence:
    def test_rational_channel_dependent_at_degree_zero(self):
        m = rational_channel([[2, 1, 1], [1, 3, 1], [1, 1, "9/2"]])
        report = check_all(m, 0)
        assert not report.independent
        for v in report.verdicts:
            assert not v.independent
            cert = v.certificate
            assert cert is not None
            assert cert.is_valid(m)
            assert cert.substitute(m).is_zero()

    def test_certificate_for_known_relation(self):
        # h12 = g, h21 = 2g: the value h12*h21^0... the degree-1 family for
        # receiver 1 contains both g and 2g, so 2*f - 1*f' vanishes.
        doc = {
            "K": 2,
            "generators": ["g", "h11", "h22"],
            "entries": [["h11", "g"], ["2*g", "h22"]],
        }
        m = load_channel(doc)
        verdict = check_condition_star(m, 1, 1)
        assert not verdict.independent
        assert verdict.certificate.is_valid(m)

    def test_integer_offdiag_dependent_at_degree_one(self):
        # integer off-diagonals give rational dependences among products
        m = integer_offdiag_channel([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        verdict = check_condition_star(m, 1, 1)
        assert not verdict.independent
        assert verdict.certificate.is_valid(m)

    def test_integer_offdiag_independent_at_degree_zero(self):
        # [1, h_ii] with h_ii a free generator is independent over Q
        m = integer_offdiag_channel([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert check_all(m, 0).independent

    def test_dependence_persists_at_higher_degree(self):
        m = rational_channel([[2, 1], [1, 3]])
        for d in (0, 1, 2):
            verdict = check_condition_star(m, d, 1)
            assert not verdict.independent
            assert verdict.certificate.is_valid(m)

    def test_certificate_nonzero_and_coprime(self):
        import math

        m = rational_channel([[Fraction(5, 3), 2], [7, 11]])
        cert = check_condition_star(m, 1, 2).certificate
        coeffs = list(cert.a + cert.b)
        assert any(coeffs)
        assert math.gcd(*[abs(c) for c in coeffs]) in (0, 1)

    def test_all_zero_certificate_invalid(self):
        m = generic_channel(2)
        cert = DependenceCertificate(1, 0, (0,), (0,))
        assert not cert.is_valid(m)


class TestRankOracle:
    def test_family_rank_matches_fraction_oracle(self):
        # cross-check the full pipeline rank against independent elimination
        from icdof.condition import _integer_columns

        for m, d, receiver in [
            (generic_channel(2), 2, 1),
            (generic_channel(3), 1, 3),
            (integer_offdiag_channel([[0, 1, 2], [1, 0, 1], [3, 1, 0]]), 1, 2),
            (rational_channel([[2, 1], [1, 3]]), 2, 1),
        ]:
            values = monomial_values(m, d, receiver)
            rows = _integer_columns(values)
            verdict = check_condition_star(m, d, receiver)
            assert verdict.rank == fraction_rank(rows)
            assert verdict.independent == (verdict.rank == len(values))
