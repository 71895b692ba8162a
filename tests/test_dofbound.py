import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from icdof.algebra import AlgebraElement, monomial_count
from icdof.channel import (
    generic_channel,
    load_channel,
    rational_channel,
    integer_offdiag_channel,
)
from icdof.dofbound import (
    build_w_n,
    containment_check,
    dof_lower_bound,
    entropy_from_counts,
    fig1_demo,
    interference_ratio_bound,
    ratio_limit,
    rational_example,
    separability_check,
    sum_entropy_stats,
    sumset_distribution,
    sweep,
    to_ifs,
)
from icdof.errors import CapExceededError, ConditionNotSatisfiedError
from icdof import dofbound


def brute_force_sum_counts(matrix, receiver, include_diagonal, construction):
    """Oracle: enumerate all letter tuples and tally the exact sums."""
    participants = [
        j
        for j in range(1, matrix.K + 1)
        if include_diagonal or j != receiver
    ]
    counts = Counter()
    for combo in itertools.product(construction.elements, repeat=len(participants)):
        total = AlgebraElement.zero(len(matrix.generators))
        for j, w in zip(participants, combo):
            total = total + matrix.entry(receiver, j) * w
        counts[total] += 1
    return counts


class TestEntropyFromCounts:
    def test_uniform(self):
        assert entropy_from_counts([1] * 8, 8) == pytest.approx(3.0, abs=1e-15)

    def test_triangle(self):
        # U + U with U uniform on {1,2}: counts (1,2,1)
        expected = 2.0 - 0.5  # log2(4) - (2*2*1)/4
        assert entropy_from_counts([1, 2, 1], 4) == pytest.approx(1.5, abs=1e-15)
        assert expected == 1.5

    def test_point_mass(self):
        assert entropy_from_counts([5], 5) == pytest.approx(0.0, abs=1e-15)

    def test_matches_mpmath_high_precision(self):
        rng = random.Random(3)
        counts = [rng.randrange(1, 50) for _ in range(200)]
        total = sum(counts)
        with mpmath.workdps(50):
            exact = -sum(
                (mpmath.mpf(c) / total) * mpmath.log(mpmath.mpf(c) / total, 2)
                for c in counts
            )
        assert entropy_from_counts(counts, total) == pytest.approx(
            float(exact), abs=1e-12
        )


class TestBuildWN:
    def test_degree_zero(self):
        c = build_w_n(generic_channel(3), 0, 4)
        # basis is {1}: W_N = {1..N}
        assert c.cardinality == 4
        assert c.unique_representation
        assert c.contraction == Fraction(1, 16)
        assert c.log_inv_r == pytest.approx(4.0)

    def test_generic_degree_one(self):
        c = build_w_n(generic_channel(3), 1, 2)
        assert len(c.basis) == 7
        assert c.cardinality == 2**7 == 128
        assert c.unique_representation
        assert c.log_inv_r == pytest.approx(14.0)

    def test_collision_when_generators_shared(self):
        # h12 = h21 = g: the two degree-1 basis values coincide, so
        # 1*g + 2*g collides with 2*g + 1*g and cardinality drops
        doc = {
            "K": 2,
            "generators": ["g", "h11", "h22"],
            "entries": [["h11", "g"], ["g", "h22"]],
        }
        c = build_w_n(load_channel(doc), 1, 2)
        assert c.cardinality < 2**3
        assert not c.unique_representation

    def test_elements_match_direct_enumeration(self):
        m = generic_channel(2)
        c = build_w_n(m, 1, 3)
        from icdof.condition import basis_values

        basis = basis_values(m, 1)
        direct = {
            sum((f.scale(a) for f, a in zip(basis, combo)),
                AlgebraElement.zero(4))
            for combo in itertools.product(range(1, 4), repeat=len(basis))
        }
        assert set(c.elements) == direct

    def test_cap(self):
        with pytest.raises(CapExceededError):
            build_w_n(generic_channel(3), 1, 100)

    def test_distinct_single_terms_not_enumerated(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("W_N was enumerated")

        monkeypatch.setattr(dofbound, "_enumerate_letters", refuse)
        c = build_w_n(generic_channel(3), 1, 4)
        assert len(c.elements) == c.cardinality == 16384
        assert c.unique_representation
        report = dof_lower_bound(generic_channel(3), 1, 4)
        assert report.total == 0.1440386719039749
        with pytest.raises(AssertionError, match="enumerated"):
            next(iter(c.elements))

    def test_collisions_enumerated_eagerly(self, monkeypatch):
        doc = {
            "K": 2,
            "generators": ["g", "h11", "h22"],
            "entries": [["h11", "g"], ["g", "h22"]],
        }
        c = build_w_n(load_channel(doc), 1, 2)
        monkeypatch.setattr(dofbound, "_enumerate_letters", None)
        assert len(list(c.elements)) == c.cardinality == 6

    def test_bad_n(self):
        with pytest.raises(ValueError):
            build_w_n(generic_channel(2), 0, 0)


class TestToIfs:
    def test_atoms_are_evaluations(self):
        m = generic_channel(2)
        c = build_w_n(m, 0, 3)
        spec = to_ifs(c, [1.0] * 4)
        assert sorted(float(a) for a in spec.atoms) == [1.0, 2.0, 3.0]
        assert spec.r == Fraction(1, 9)

    def test_collapsing_valuation_rejected(self):
        m = generic_channel(2)
        c = build_w_n(m, 1, 2)
        # all-equal generator values identify distinct letters
        with pytest.raises(ValueError):
            to_ifs(c, [1.0, 1.0, 1.0, 1.0])


class TestSumsetDistribution:
    def test_single_user_uniform(self):
        m = generic_channel(2)
        c = build_w_n(m, 0, 4)
        dist = sumset_distribution(m, 1, False, c)
        # interference at receiver 1 is h12 * {1..4}: uniform on 4 values
        assert dist.support_size == 4
        assert dist.entropy_bits == pytest.approx(2.0, abs=1e-15)
        assert dist.probability(m.entry(1, 2).scale(2)) == Fraction(1, 4)

    def test_counts_match_brute_force(self):
        cases = [
            (generic_channel(2), 1, True, 0, 3),
            (generic_channel(2), 2, True, 1, 2),
            (generic_channel(3), 1, False, 0, 2),
            (integer_offdiag_channel([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), 1, False, 0, 3),
            (rational_channel([[2, 1], [1, 3]]), 1, True, 0, 2),
        ]
        for m, receiver, include_diag, d, N in cases:
            c = build_w_n(m, d, N)
            dist = sumset_distribution(m, receiver, include_diag, c)
            oracle = brute_force_sum_counts(m, receiver, include_diag, c)
            assert dist.counts == dict(oracle)
            assert dist.total == sum(oracle.values())

    def test_all_ones_triangle_law(self):
        # two unit-coefficient interferers of {1,2}: sum law (2,3,4) w/ 1,2,1
        m = integer_offdiag_channel([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        c = build_w_n(m, 0, 2)
        dist = sumset_distribution(m, 1, False, c)
        assert dist.support_size == 3
        assert dist.entropy_bits == pytest.approx(1.5, abs=1e-15)

    def test_cap(self):
        m = generic_channel(3)
        c = build_w_n(m, 1, 2)
        with pytest.raises(CapExceededError):
            sumset_distribution(m, 1, True, c, cap=100)


class TestFastPathAgreement:
    @pytest.mark.parametrize(
        "K,d,N,receiver,include_diag",
        [
            (2, 1, 2, 1, True),
            (2, 1, 3, 2, True),
            (3, 0, 4, 1, True),
            (3, 1, 2, 1, False),
        ],
    )
    def test_matches_materialized_convolution(self, K, d, N, receiver, include_diag):
        m = generic_channel(K)
        c = build_w_n(m, d, N)
        entropy, support = sum_entropy_stats(m, receiver, include_diag, c)
        dist = sumset_distribution(m, receiver, include_diag, c)
        assert support == dist.support_size
        assert entropy == pytest.approx(dist.entropy_bits, abs=1e-12)

    def test_known_generic_values(self):
        # K=3, d=1, N=2, receiver 1: interference entropy 13.5 bits over a
        # 12288-point support; full sum adds the 7 desired-signal bits
        m = generic_channel(3)
        c = build_w_n(m, 1, 2)
        h_int, s_int = sum_entropy_stats(m, 1, False, c)
        assert h_int == pytest.approx(13.5, abs=1e-12)
        assert s_int == 12288
        h_full, s_full = sum_entropy_stats(m, 1, True, c)
        assert h_full == pytest.approx(20.5, abs=1e-12)
        assert s_full == 128 * 12288


class TestSeparability:
    def test_generic_channel_separable(self):
        m = generic_channel(3)
        c = build_w_n(m, 1, 2)
        assert all(separability_check(m, i, c) for i in (1, 2, 3))

    def test_integer_offdiag_separable(self):
        m = integer_offdiag_channel([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        c = build_w_n(m, 0, 3)
        assert all(separability_check(m, i, c) for i in (1, 2, 3))

    def test_rational_channel_not_separable(self):
        # desired and interference sums land in the same rational lattice
        m = rational_channel([[1, 1], [1, 1]])
        c = build_w_n(m, 0, 2)
        assert not separability_check(m, 1, c)


class TestContainment:
    def test_generic_contained(self):
        res = containment_check(generic_channel(3), 1, 1, 2)
        assert res.contained
        assert res.support_size == 12288
        assert res.container_cardinality == 4 ** monomial_count(6, 2)

    def test_k2_contained(self):
        res = containment_check(generic_channel(2), 1, 0, 3)
        assert res.contained
        # interference = h12 * {1..3}
        assert res.support_size == 3
        assert res.container_cardinality == 3 ** monomial_count(2, 1)

    def test_not_fully_connected_refused(self):
        with pytest.raises(ValueError):
            containment_check(rational_channel([[1, 0], [1, 1]]), 1, 0, 2)


class TestRatios:
    def test_interference_ratio_bound(self):
        # K=3, d=0: phi(1) log2((K-1)N) / (2 log2 N)
        v = interference_ratio_bound(3, 0, 4)
        assert v == pytest.approx(7 * math.log2(8) / (2 * math.log2(4)))
        assert interference_ratio_bound(3, 0, 1) is None

    def test_ratio_limit(self):
        assert ratio_limit(3, 0) == 7.0
        assert ratio_limit(3, 1) == 4.0
        assert ratio_limit(2, 0) == 3.0
        with pytest.raises(ValueError):
            ratio_limit(3, -1)


class TestDofLowerBound:
    def test_generic_k3_d1_n2(self):
        report = dof_lower_bound(generic_channel(3), 1, 2)
        assert report.cardinality == 128
        assert report.log_inv_r == pytest.approx(14.0)
        assert report.total == pytest.approx(3 / 28, abs=1e-12)
        for t in report.receivers:
            assert t.entropy_full_bits == pytest.approx(20.5, abs=1e-12)
            assert t.entropy_interference_bits == pytest.approx(13.5, abs=1e-12)

    def test_degree_zero_total_vanishes(self):
        # at d=0, log2(1/r) = 2 log2 N and H_int = (K-1) log2 N, so for K >= 3
        # both terms saturate at 1 and every receiver contributes 0; for K=2
        # each receiver contributes 1 - 1/2, so the total is 1.  Neither
        # depends on N.
        for N in (2, 3):
            report = dof_lower_bound(generic_channel(3), 0, N)
            assert report.total == pytest.approx(0.0, abs=1e-12)
        for N in (2, 3, 4):
            report = dof_lower_bound(generic_channel(2), 0, N)
            assert report.total == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_n1(self):
        report = dof_lower_bound(generic_channel(2), 0, 1)
        assert report.cardinality == 1
        assert report.total == 0.0
        assert report.interference_ratio_bound is None

    def test_condition_gate(self):
        m = rational_channel([[2, 1], [1, 3]])
        with pytest.raises(ConditionNotSatisfiedError) as exc:
            dof_lower_bound(m, 0, 2)
        cert = exc.value.report.verdicts[0].certificate
        assert cert is not None and cert.is_valid(m)

    def test_condition_waiver(self):
        m = rational_channel([[2, 1], [1, 3]])
        report = dof_lower_bound(m, 0, 2, waive_condition=True)
        # formula still evaluates; it is only a valid bound under the condition
        assert 0.0 <= report.total <= m.K / 2

    def test_not_fully_connected_refused(self):
        doc = {"K": 2, "generators": ["a", "b", "c"],
               "entries": [["a", "0"], ["b", "c"]]}
        with pytest.raises(ValueError):
            dof_lower_bound(load_channel(doc), 0, 2)

    def test_notes_present(self):
        report = dof_lower_bound(generic_channel(2), 0, 2)
        assert report.notes


class TestSweep:
    def test_grid_shape_and_values(self):
        cells = sweep(generic_channel(3), [0, 1], [2, 3])
        assert len(cells) == 4
        by_key = {(c.degree, c.coeff_range): c for c in cells}
        assert by_key[(0, 2)].total == pytest.approx(0.0, abs=1e-12)
        assert by_key[(1, 2)].total == pytest.approx(3 / 28, abs=1e-12)
        assert by_key[(1, 3)].total > by_key[(1, 2)].total
        assert all(c.seconds >= 0 for c in cells)

    def test_condition_checked_once_per_degree(self):
        with pytest.raises(ConditionNotSatisfiedError):
            sweep(rational_channel([[2, 1], [1, 3]]), [0], [2])


class TestRationalExample:
    def test_small_n_against_integer_offdiag_oracle(self):
        # cross-check the strided convolution against the exact polynomial law
        offdiag = [[0, 1, 2], [3, 0, 1], [1, 2, 0]]
        rep = rational_example(3, offdiag, 4)
        m = integer_offdiag_channel(offdiag)
        for i in (1, 2, 3):
            # interference of W = {0..3}: shift {1..4} by -1 per participant
            counts = Counter()
            others = [j for j in (1, 2, 3) if j != i]
            for combo in itertools.product(range(4), repeat=2):
                v = sum(
                    int(m.entry(i, j).constant_value()) * w
                    for j, w in zip(others, combo)
                )
                counts[v] += 1
            h_oracle = entropy_from_counts(counts.values(), 16)
            got = rep.report.receivers[i - 1].entropy_interference_bits
            assert got == pytest.approx(h_oracle, abs=1e-12)

    def test_closed_form_and_additivity(self):
        rep = rational_example(3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], 1024)
        base = 2 * 1 * 3 * 1024
        assert rep.contraction == Fraction(1, base**2)
        assert rep.closed_form_bound == pytest.approx(
            3 * 10 / (2 * math.log2(base)), abs=1e-12
        )
        for t in rep.report.receivers:
            assert t.entropy_full_bits == pytest.approx(
                t.entropy_interference_bits + 10, abs=1e-12
            )

    def test_interference_support_bounds(self):
        rep = rational_example(3, [[0, -2, 1], [1, 0, -1], [2, 1, 0]], 5)
        # worst row sums of negative/positive coefficients times N-1
        assert rep.interference_min == -8
        assert rep.interference_max == 12

    def test_n1_degenerate(self):
        rep = rational_example(3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], 1)
        assert rep.report.total == 0.0
        assert rep.closed_form_bound == 0.0

    @pytest.mark.parametrize(
        "K,offdiag,N,err",
        [
            (1, [[0]], 2, ValueError),
            (2, [[0, 0], [1, 0]], 2, ValueError),
            (2, [[0, 1], [1, 0]], 0, ValueError),
            (2, [[0, 1]], 2, ValueError),
        ],
    )
    def test_rejects_bad_input(self, K, offdiag, N, err):
        with pytest.raises(err):
            rational_example(K, offdiag, N)


class TestFig1:
    def test_cardinalities(self):
        res = fig1_demo()
        assert res.set_size == 7
        assert res.common_structure_cardinality == 19
        assert res.different_structure_cardinality == 49
        assert res.different_structure_cardinality == res.set_size**2
