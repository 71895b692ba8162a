import functools
import itertools
import math
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from icdof.algebra import AlgebraElement, enumerate_monomials, monomial_count
from icdof.channel import (
    generic_channel,
    load_channel,
    rational_channel,
    integer_offdiag_channel,
    store_channel,
)
from icdof.dofbound import (
    build_w_n,
    containment_check,
    dof_lower_bound,
    entropy_from_counts,
    fig1_demo,
    interference_ratio_bound,
    multiplicity_profile,
    profile_bound,
    rational_example,
    separability_check,
    sum_entropy_stats,
    sumset_distribution,
    sweep,
    to_ifs,
)
from icdof.errors import CapExceededError, ConditionNotSatisfiedError
from icdof import condition, dofbound, linalg
from reference_entropy import entropy_by_pairs
from test_golden import _product_doc

#: h12 = h21 = g: the degree-1 basis values coincide, so W_N has collisions.
SHARED_GENERATOR_K2 = {
    "K": 2,
    "generators": ["g", "h11", "h22"],
    "entries": [["h11", "g"], ["g", "h22"]],
}


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


    @pytest.mark.parametrize("kind", ["triangle", "random"])
    def test_ndarray_matches_list_bit_for_bit(self, kind):
        if kind == "triangle":
            counts = list(range(1, 1001)) + list(range(999, 0, -1))
        else:
            rng = random.Random(5)
            counts = [rng.choice([0, rng.randrange(1, 10**6)]) for _ in range(5000)]
        total = sum(counts)
        expected = entropy_from_counts(counts, total)
        for dtype in (np.int64, object):
            assert entropy_from_counts(np.array(counts, dtype=dtype), total) == expected


#: Integers whose float64 log2 differs in the last bit between numpy's
#: vectorised ``np.log2`` and libm's ``math.log2`` on some x86-64 builds
#: (AVX-512); an entropy read from them changes if ``np.log2`` is used.
LOG2_DISAGREEMENTS = (1621, 3242, 6484, 7957, 12968, 15914, 25936, 28599,
                      31828, 51872, 57198, 57803, 63656, 104703, 107177)

#: Small counts with zeros and repeats, so the pairs have multiplicities.
SMALL_COUNTS = st.lists(st.integers(0, 12) | st.integers(0, 2**40), max_size=60)


@st.composite
def count_inputs(draw):
    """(counts in one of the accepted input forms, total)."""
    counts = draw(SMALL_COUNTS | st.lists(st.integers(2**62, 2**64 - 1), max_size=6)
                  | st.lists(st.integers(0, 2**64 - 1), max_size=12)
                  # int64 values past 2^53, whose g * v may leave int64
                  | st.lists(st.integers(2**53, 2**63 - 1), max_size=12)
                  # zero and negative counts, which are skipped
                  | st.lists(st.integers(-(2**63), 12), max_size=30))
    total = max(1, sum(counts))
    kinds = ["list", "dict_values", "object"]
    if all(-(2**63) <= c < 2**63 for c in counts):
        kinds.append("int64")
    kind = draw(st.sampled_from(kinds))
    if kind == "int64":
        return np.array(counts, dtype=np.int64), total
    if kind == "object":
        return np.array(counts, dtype=object), total
    if kind == "dict_values":
        return dict(enumerate(counts)).values(), total
    return counts, total


@st.composite
def wide_count_inputs(draw):
    """(counts, total) with more distinct values than one log block holds."""
    distinct = draw(st.integers(dofbound._BLOCK + 1, dofbound._BLOCK + 500))
    base = draw(st.sampled_from([1, 2**53 - 3, 2**61, 2**63 + 1]))
    step = draw(st.integers(1, 2**10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Python ints first, so no base or step wraps in int64
    values = base + step * np.arange(distinct, dtype=object)
    counts = np.repeat(values, rng.integers(1, 4, distinct))
    rng.shuffle(counts)
    counts[:draw(st.integers(0, 3))] = draw(st.sampled_from([0, -1]))
    total = max(1, int(counts.sum()))
    kinds = ["object", "list", "dict_values"]
    if counts.max() < 2**63:
        kinds.append("int64")
    kind = draw(st.sampled_from(kinds))
    if kind == "int64":
        return counts.astype(np.int64), total
    if kind == "list":
        return counts.tolist(), total
    if kind == "dict_values":
        return dict(enumerate(counts.tolist())).values(), total
    return counts, total


class TestEntropyMatchesPairLoop:
    """``entropy_from_counts`` equals the per-pair Python loop bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(count_inputs())
    @example((np.array(LOG2_DISAGREEMENTS, dtype=np.int64), sum(LOG2_DISAGREEMENTS)))
    @example((list(LOG2_DISAGREEMENTS) * 3 + [0, 1, 2], 3 * sum(LOG2_DISAGREEMENTS) + 3))
    @example((np.array([2**62, 2**62, 5], dtype=np.int64), 2**63 + 5))
    @example((np.array([2**63, 2**64 - 1, 0], dtype=object), 2**63 + 2**64 - 1))
    # 29 * v must be rounded to float once, not as 29.0 * float(v)
    @example(([10025403929532902269] * 29, 29 * 10025403929532902269))
    @example((np.array([10025403929532902269] * 29, dtype=object),
              29 * 10025403929532902269))
    # numpy reads a list mixing ints below and above 2^63 as float64
    @example(([4999999999999997440, 5841590180319766016, 9999999999999998976,
               9999999999999998977], 30841590180319761409))
    @example(([0, 0], 1))
    @example(([], 1))
    def test_equal_to_pair_loop(self, case):
        counts, total = case
        assert entropy_from_counts(counts, total) == entropy_by_pairs(counts, total)

    @settings(max_examples=12, deadline=None)
    @given(wide_count_inputs())
    def test_equal_to_pair_loop_across_log_blocks(self, case):
        counts, total = case
        assert entropy_from_counts(counts, total) == entropy_by_pairs(counts, total)

    @settings(max_examples=200, deadline=None)
    @given(count_inputs(), st.lists(st.integers(1, 12), max_size=4), st.integers(1, 9),
           st.integers(1, 7))
    @example((list(LOG2_DISAGREEMENTS) * 3 + [0, 1, 2], 3 * sum(LOG2_DISAGREEMENTS) + 3),
             [1], 9, 2)
    @example((np.array(sorted(LOG2_DISAGREEMENTS * 2), dtype=np.int64),
              2 * sum(LOG2_DISAGREEMENTS)), [1, 1, 1], 3, 1)
    # the object path: runs of counts past 2^63
    @example((np.array([2**63 + 1] * 5 + [2**64 - 1] * 3 + [7], dtype=object),
              5 * (2**63 + 1) + 3 * (2**64 - 1) + 7), [2, 5], 4, 3)
    @example(([2**63] * 4 + [3] * 7, 4 * 2**63 + 21), [1, 2], 3, 2)
    def test_equal_to_pair_loop_when_runs_straddle_blocks(self, case, coeffs, N, block):
        # Blocks of 1 to 7 entries split runs of the sorted counts and of
        # the half-laws; the fold must join them.
        counts, total = case
        law = dofbound._convolve_scaled_uniform(coeffs, N)
        want = (entropy_by_pairs(law, N ** len(coeffs)), int((law > 0).sum()))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dofbound, "_BLOCK", block)
            assert entropy_from_counts(counts, total) == entropy_by_pairs(counts, total)
            assert dofbound._scaled_uniform_law(tuple(coeffs), N) == want

    @pytest.mark.parametrize("value", LOG2_DISAGREEMENTS)
    def test_log2_disagreement_values(self, value):
        # pairs (1, 1) and (value, 2): the only nonzero log is log2(value)
        counts = np.array([value, 1, value], dtype=np.int64)
        total = 2 * value + 1
        assert entropy_from_counts(counts, total) == entropy_by_pairs(counts, total)

    def test_triangle_law_at_two_to_the_nineteen(self):
        # 524,288 distinct counts: the benchmark's example-rational total
        rep = rational_example(3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2**19)
        assert rep.report.total == 1.320363655903864


class TestScaledUniformKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 6) | st.integers(7, 40), min_size=1, max_size=4),
           st.integers(1, 7), st.none() | st.integers(1, 3) | st.integers(1, 400))
    # coefficients larger than the running width leave residue classes empty
    @example([5], 1, None)
    @example([9, 1], 2, None)
    @example([3, 40, 2], 3, None)
    # stopped: at the first entry, at half an odd (7) and an even (8) width,
    # inside a wide coefficient's empty classes, and at the full width
    @example([9, 1], 2, 1)
    @example([1, 2], 3, 4)
    @example([1, 2, 4], 2, 4)
    @example([3, 40, 2], 3, 50)
    @example([3, 40, 2], 3, 91)
    def test_equals_tuple_enumeration(self, coeffs, N, stop):
        counts = dofbound._convolve_scaled_uniform(coeffs, N)
        width = 1 + (N - 1) * sum(coeffs)
        tally = Counter(
            sum(c * u for c, u in zip(coeffs, combo))
            for combo in itertools.product(range(N), repeat=len(coeffs))
        )
        assert counts.dtype == np.int64
        assert counts.tolist() == [tally[k] for k in range(width)]
        # u -> N-1-u maps a sum k to width-1-k
        assert counts.tolist() == counts[::-1].tolist()
        # a stopped kernel writes the first ``stop`` of those counts
        stopped = dofbound._convolve_scaled_uniform(coeffs, N, stop)
        assert stopped.dtype == np.int64
        assert stopped.tolist() == counts.tolist()[:stop]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 12), max_size=4), st.integers(1, 9))
    # even widths (4, 10) and odd widths (1, 3 with a zero middle, 7)
    @example([1], 4)
    @example([1, 2], 4)
    @example([], 5)
    @example([2], 2)
    @example([1, 2], 3)
    def test_law_equals_whole_law_pairs(self, coeffs, N):
        # The law is read from its first half; it must give the pairs, and
        # so the bits, of the whole law.
        counts = dofbound._convolve_scaled_uniform(coeffs, N)
        want = (entropy_by_pairs(counts, N ** len(coeffs)), int((counts > 0).sum()))
        assert dofbound._scaled_uniform_law(tuple(coeffs), N) == want

    @pytest.mark.parametrize("coeffs, N, name", [
        ((0,), 5, "coefficients must be >= 1, got 0"),
        ((2, -1), 5, "coefficients must be >= 1, got -1"),
        ((1,), 0, "N must be >= 1, got 0"),
        ((1, 1), -3, "N must be >= 1, got -3"),
    ])
    def test_refuses_what_it_cannot_count(self, coeffs, N, name):
        with pytest.raises(ValueError, match=name):
            dofbound._convolve_scaled_uniform(coeffs, N)
        with pytest.raises(ValueError, match=name):
            dofbound._scaled_uniform_law(coeffs, N)

    def test_benchmark_law_memory(self):
        # The rational example's law at N = 2^19: 1,048,575 counts, 524,288
        # distinct.  Its first law and its half-law, 4 MiB each, peak at
        # 8.0 MiB, and the sorted half and one block of the fold at 8.1 MiB.
        # The whole law alone is 8 MiB, and a list of its 524,288 distinct
        # counts as ints about 20 MiB.
        tracemalloc.start()
        try:
            dofbound._scaled_uniform_law((1, 1), 2**19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20


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
        c = build_w_n(load_channel(SHARED_GENERATOR_K2), 1, 2)
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
        # A lazy W_N is sized without the cap and refused when iterated.
        c = build_w_n(generic_channel(3), 1, 100)
        assert c.cardinality == 100**7
        with pytest.raises(CapExceededError):
            iter(c.elements)
        # A basis with collisions is enumerated, so it is refused at build.
        with pytest.raises(CapExceededError):
            build_w_n(load_channel(SHARED_GENERATOR_K2), 3, 100)

    def test_distinct_single_terms_not_enumerated(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("W_N was enumerated")

        monkeypatch.setattr(dofbound, "_enumerate_letters", refuse)
        c = build_w_n(generic_channel(3), 1, 4)
        assert c.cardinality == 16384
        assert c.unique_representation
        report = dof_lower_bound(generic_channel(3), 1, 4)
        assert report.total == 0.1440386719039749
        with pytest.raises(AssertionError, match="enumerated"):
            next(iter(c.elements))

    def test_independent_multi_term_basis_not_enumerated(self, monkeypatch):
        # h12 = h12 + h13 makes the basis multi-term; the Jacobian of the six
        # off-diagonal entries still certifies it, so |W_N| = 3^28 with
        # neither the letters nor the 28 basis columns reduced.
        def refuse(*args):
            raise AssertionError("W_N was enumerated")

        widths = []
        eliminate = linalg.eliminate_columns

        def recorded(columns):
            widths.append(len(columns))
            return eliminate(columns)

        monkeypatch.setattr(dofbound, "_enumerate_letters", refuse)
        monkeypatch.setattr(linalg, "eliminate_columns", recorded)
        doc = store_channel(generic_channel(3))
        doc["entries"][0][1] = "h12 + h13"
        c = build_w_n(load_channel(doc), 2, 3)
        assert c.cardinality == 3**28
        assert c.unique_representation
        assert widths == [6]

    def test_one_letter_needs_no_rank(self, monkeypatch):
        # The colliding basis {1, g, g} is wider than the lowered cap, which
        # refuses its rank at N=2; at N=1 W_N is one letter and no rank runs.
        monkeypatch.setattr(linalg, "ELIMINATION_COLUMN_CAP", 2)
        with pytest.raises(CapExceededError):
            build_w_n(load_channel(SHARED_GENERATOR_K2), 1, 2)
        c = build_w_n(load_channel(SHARED_GENERATOR_K2), 1, 1)
        assert c.cardinality == len(list(c.elements)) == 1
        assert c.unique_representation

    def test_collisions_enumerated_eagerly(self, monkeypatch):
        c = build_w_n(load_channel(SHARED_GENERATOR_K2), 1, 2)
        monkeypatch.setattr(dofbound, "_enumerate_letters", None)
        assert len(list(c.elements)) == c.cardinality == 6

    def test_bad_n(self):
        with pytest.raises(ValueError):
            build_w_n(generic_channel(2), 0, 0)

    def test_certified_w_n_builds_nothing_at_any_degree(self, monkeypatch):
        # phi(17) = 100,947 is past the monomial cap, which guards only
        # what is built: a certified W_N builds no basis value.
        def refuse(*args):
            raise AssertionError("a basis value was built")

        monkeypatch.setattr(condition, "basis_values", refuse)
        for d in (17, 4096):
            c = build_w_n(generic_channel(3), d, 2)
            assert c.phi == math.comb(d + 6, 6)
            assert c.size == (2, math.comb(d + 6, 6))
            assert c.unique_representation

    def test_equal_builds_compare_equal(self):
        shared = load_channel(SHARED_GENERATOR_K2)
        for m, d, N in ((generic_channel(2), 1, 3), (shared, 1, 2)):
            first = build_w_n(m, d, N)
            assert first.elements  # read letters are not part of the value
            assert first == build_w_n(m, d, N)
            assert first != build_w_n(m, d, N + 1)

    def test_colliding_basis_built_once(self, monkeypatch):
        # The rank test and the letters of an uncertified basis share one build.
        calls = []
        build = condition.basis_values

        def counted(matrix, d):
            calls.append(d)
            return build(matrix, d)

        monkeypatch.setattr(condition, "basis_values", counted)
        c = build_w_n(load_channel(SHARED_GENERATOR_K2), 1, 2)
        assert c.size == (6, 1) and len(c.elements) == 6 and len(c.basis) == 3
        assert calls == [1]


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

    def test_cap(self, monkeypatch):
        m = generic_channel(3)
        c = build_w_n(m, 1, 2)
        assert len(list(c.elements)) == 128  # enumerated under the real cap
        monkeypatch.setattr(dofbound, "DEFAULT_SUPPORT_CAP", 100)
        with pytest.raises(CapExceededError, match="sumset support"):
            sumset_distribution(m, 1, True, c)


    def test_python_int_codes(self):
        # at each receiver the g coordinate alone spans more than 2^62 values
        m = load_channel({
            "K": 2, "generators": ["g", "h11", "h22"],
            "entries": [["h11", "12345678901234567891/7*g"],
                        ["-98765432109876543210/3*g", "h22 + 5"]]})
        c = build_w_n(m, 0, 3)
        for receiver in (1, 2):
            dist = sumset_distribution(m, receiver, True, c)
            oracle = brute_force_sum_counts(m, receiver, True, c)
            assert dist._codes.dtype == object
            assert dist.counts == dict(oracle)
            assert dist.entropy_bits == entropy_from_counts(oracle.values(), 9)

    def test_python_int_counts(self, monkeypatch):
        monkeypatch.setattr(dofbound, "_INT64_LIMIT", 2)
        m = generic_channel(3)
        c = build_w_n(m, 0, 3)
        dist = sumset_distribution(m, 2, True, c)
        assert dist._weights.dtype == object
        assert dist.counts == dict(brute_force_sum_counts(m, 2, True, c))

    def test_outer_sum_past_cap_with_support_under_it(self, monkeypatch):
        # 8 x 8 tuple sums, 15 distinct: the outer sum runs in blocks of
        # at most 20 entries and the support passes the cap
        monkeypatch.setattr(dofbound, "DEFAULT_SUPPORT_CAP", 20)
        m = integer_offdiag_channel([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        c = build_w_n(m, 0, 8)
        dist = sumset_distribution(m, 1, False, c)
        assert dist.support_size == 15
        assert dist.counts == dict(brute_force_sum_counts(m, 1, False, c))


class TestScaledUniformLaws:
    @staticmethod
    def _count_kernel_calls(monkeypatch):
        calls = []
        kernel = dofbound._convolve_scaled_uniform

        def spy(coeffs, N, stop=None):
            calls.append(tuple(coeffs))
            return kernel(coeffs, N, stop)

        monkeypatch.setattr(dofbound, "_convolve_scaled_uniform", spy)
        return calls

    def test_rational_example_once_per_signature(self, monkeypatch):
        calls = self._count_kernel_calls(monkeypatch)
        rational_example(3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], 64)
        assert calls == [(1, 1)]
        calls.clear()
        rep = rational_example(3, [[0, -2, 1], [1, 0, -1], [2, 1, 0]], 5)
        assert calls == [(1, 2), (1, 1)]
        assert (rep.interference_min, rep.interference_max) == (-8, 12)

    def test_coordinate_path_once_per_signature(self, monkeypatch):
        m = generic_channel(3)
        c = build_w_n(m, 1, 2)
        expected = sum_entropy_stats(m, 1, True, c)
        calls = self._count_kernel_calls(monkeypatch)
        assert sum_entropy_stats(m, 1, True, c) == expected
        assert sorted(calls) == [(1,), (1, 1)]

    def test_kernel_count_limit(self):
        # N^T counts must fit int64: 2^62 tuples are convolved, 2^63 refused
        with pytest.raises(CapExceededError):
            dofbound._convolve_scaled_uniform((1,) * 63, 2)
        counts = dofbound._convolve_scaled_uniform((1,) * 62, 2)
        assert int(counts.sum()) == 2**62
        assert counts[31] == math.comb(62, 31)


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

    @pytest.mark.parametrize("d,N,container,support", [(0, 3, 27, 3), (1, 2, 64, 8)])
    def test_multi_term_basis(self, d, N, container, support):
        # h12 = x + 1 makes the degree-(d+1) basis multi-term, so its
        # independence is decided by one rank test, not on sight
        m = load_channel({"K": 2, "generators": ["a", "b", "x", "y"],
                          "entries": [["a", "x + 1"], ["y", "b"]]})
        res = containment_check(m, 1, d, N)
        assert res == dofbound.ContainmentResult(True, container, support)

    def test_dependent_basis_refused(self):
        # h21 = 2 h12, so the degree-1 basis {1, h12, h21} has rank 2 of 3
        m = load_channel({"K": 2, "generators": ["a", "b", "x", "y"],
                          "entries": [["a", "x + y"], ["2*x + 2*y", "b"]]})
        with pytest.raises(ValueError, match="rationally dependent"):
            containment_check(m, 1, 0, 2)

    def test_answers_past_the_letter_cap(self):
        # N^phi(3) = 6^10 letters: more than the support cap lets anything
        # enumerate, and containment needs none of them
        res = containment_check(generic_channel(2), 1, 3, 6)
        assert res == dofbound.ContainmentResult(True, 6**15, 6**10)

    def test_structural_channel_materializes_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("materialized")

        for name in ("_enumerate_letters", "sumset_distribution", "build_w_n",
                     "sum_entropy_stats", "_convolve_scaled_uniform"):
            monkeypatch.setattr(dofbound, name, refuse)
        res = containment_check(generic_channel(3), 1, 1, 2)
        assert res == dofbound.ContainmentResult(True, 4**28, 12288)
        # h12 = h12 + h13: the exact sumset here has 4^12 * 7 = 117,440,512
        # points, past the support cap
        doc = store_channel(generic_channel(3))
        doc["entries"][0][1] = "h12 + h13"
        res = containment_check(load_channel(doc), 1, 1, 4)
        assert res == dofbound.ContainmentResult(True, 8**28, 4**12 * 7)

    @pytest.mark.parametrize("receiver,d,N,match", [
        (0, 1, 2, "receiver 0 out of range 1..3"),
        (4, 1, 2, "receiver 4 out of range 1..3"),
        (1, 1, 0, "coefficient range N must be >= 1"),
        (1, -1, 2, "degree bound must be non-negative"),
    ])
    def test_bad_arguments_refused(self, receiver, d, N, match):
        with pytest.raises(ValueError, match=match):
            containment_check(generic_channel(3), receiver, d, N)

    def test_profile_refuses_negative_degree(self):
        with pytest.raises(ValueError, match="non-negative"):
            multiplicity_profile(3, -1)


class TestRatios:
    def test_interference_ratio_bound(self):
        # K=3, d=0: phi(1) log2((K-1)N) / (2 log2 N)
        v = interference_ratio_bound(3, 0, 4)
        assert v == pytest.approx(7 * math.log2(8) / (2 * math.log2(4)))
        assert interference_ratio_bound(3, 0, 1) is None


class TestDofLowerBound:
    def test_generic_k3_d1_n2(self):
        report = dof_lower_bound(generic_channel(3), 1, 2)
        assert report.cardinality == (2, 7)
        assert report.log_inv_r == pytest.approx(14.0)
        assert report.total == pytest.approx(3 / 28, abs=1e-12)
        for t in report.receivers:
            assert t.entropy_full_bits == pytest.approx(20.5, abs=1e-12)
            assert t.entropy_interference_bits == pytest.approx(13.5, abs=1e-12)

    @pytest.mark.parametrize("d", range(7))
    def test_generic_k3_n2_closed_form(self, d):
        # At N=2 an interference coordinate of receiver i is divisible by
        # h_ij for one interferer j (a single uniform bit, 1 bit) or by both
        # (U + U', 1.5 bits); phi(d-1) coordinates are of the second kind
        # and 2(phi(d) - phi(d-1)) of the first, so H_int = 2 phi(d) -
        # phi(d-1)/2 against log2(1/r) = 2 phi(d).  term_full clips to 1 and
        # each receiver contributes phi(d-1) / (4 phi(d)) = d / (4(d+6)).
        # From d=3 on |W_N| = 2^phi(d) exceeds what len() can return.
        phi = monomial_count(6, d)
        phi_prev = monomial_count(6, d - 1) if d else 0
        report = dof_lower_bound(generic_channel(3), d, 2)
        assert report.cardinality == (2, phi)
        for t in report.receivers:
            assert t.entropy_interference_bits == pytest.approx(
                2 * phi - phi_prev / 2, abs=1e-9
            )
        assert report.total == pytest.approx(3 * d / (4 * (d + 6)), abs=1e-12)

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
        assert report.cardinality == (1, 1)
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


class TestTotalsFoldFromTheLeft:
    """Totals add the receivers' contributions in order, on every Python.

    The builtin ``sum`` compensates float sums from Python 3.12 on, so a
    total taken with it would change last bits across interpreters.
    """

    @staticmethod
    def _left_fold(report):
        return functools.reduce(
            operator.add, (t.contribution for t in report.receivers), 0
        )

    @pytest.mark.parametrize("d,N", [(1, 2), (1, 3), (2, 2)])
    def test_dof_lower_bound(self, d, N):
        report = dof_lower_bound(generic_channel(3), d, N)
        assert report.total == self._left_fold(report)

    def test_waived_bound_with_unequal_receivers(self):
        m = integer_offdiag_channel([[0, -2, 1], [1, 0, -1], [2, 1, 0]])
        report = dof_lower_bound(m, 0, 5, waive_condition=True)
        assert len({t.contribution for t in report.receivers}) == 2
        assert report.total == self._left_fold(report)

    # On Python 3.12.1 the builtin sum of the first three cases' contributions
    # differs from the left fold in the last bit.
    @pytest.mark.parametrize(
        "offdiag,N",
        [([[0, -2, 1], [1, 0, -1], [2, 1, 0]], 37),
         ([[0, 1, 5], [2, 0, 3], [4, 1, 0]], 37),
         ([[0, 1, 5], [2, 0, 3], [4, 1, 0]], 100),
         ([[0, 1, 2, 3], [3, 0, 1, 2], [2, 3, 0, 1], [1, 2, 3, 0]], 37)],
    )
    def test_rational_example(self, offdiag, N):
        report = rational_example(len(offdiag), offdiag, N).report
        assert report.total == self._left_fold(report)


class TestSweep:
    def test_grid_shape_and_values(self):
        cells = sweep(generic_channel(3), [0, 1], [2, 3])
        assert len(cells) == 4
        by_key = {(r.degree, r.coeff_range): r for r, _ in cells}
        assert by_key[(0, 2)].total == pytest.approx(0.0, abs=1e-12)
        assert by_key[(1, 2)].total == pytest.approx(3 / 28, abs=1e-12)
        assert by_key[(1, 3)].total > by_key[(1, 2)].total
        assert all(seconds >= 0 for _, seconds in cells)

    def test_condition_checked_once_per_degree(self):
        with pytest.raises(ConditionNotSatisfiedError):
            sweep(rational_channel([[2, 1], [1, 3]]), [0], [2])

    def test_certified_channel_decided_once_per_grid(self, monkeypatch):
        calls = []
        certifies = condition.jacobian_certifies

        def counted(*args):
            calls.append(args[1:2])
            return certifies(*args)

        monkeypatch.setattr(condition, "jacobian_certifies", counted)
        cells = sweep(generic_channel(3), range(200), [2])
        assert len(cells) == 200 and calls == [(1,), (2,), (3,)]

    # h32 = 2/3 h12 h13 (single terms, dependent from degree 2) and a
    # colliding W_N (dependent from degree 1)
    @pytest.mark.parametrize("doc,failing_degree", [
        (_product_doc(), 2), (SHARED_GENERATOR_K2, 1)])
    def test_waived_grid_is_the_waived_bound(self, doc, failing_degree):
        # Each cell is the waived bound's report, bit for bit; the gated
        # grid raises at its first failing degree.
        m = load_channel(doc)
        cells = sweep(m, [0, 1], [2, 3], waive_condition=True)
        assert [report for report, _ in cells] == [
            dof_lower_bound(m, d, N, waive_condition=True)
            for d in (0, 1) for N in (2, 3)]
        with pytest.raises(ConditionNotSatisfiedError) as exc:
            sweep(m, [0, 1], [2, 3])
        assert exc.value.report.degree == failing_degree

    def test_uncertified_channel_raises_at_its_first_failing_degree(self):
        # h11 = h12^2: the gate at d+1 passes at 1 and fails at 2, where
        # h11 * 1 equals the basis value h12^2.
        m = load_channel({"K": 2, "generators": ["h12", "h21", "h22"],
                          "entries": [["h12^2", "h12"], ["h21", "h22"]]})
        assert not all(condition.jacobian_certifies(m, i) for i in (1, 2))
        assert len(sweep(m, [0], [2])) == 1
        with pytest.raises(ConditionNotSatisfiedError) as exc:
            sweep(m, [0, 1, 2], [2])
        report = exc.value.report
        assert report.degree == 2
        assert [v.independent for v in report.verdicts] == [False, True]
        assert report.verdicts[0].certificate.is_valid(m)


def _coeff():
    return st.builds(lambda p, q: f"{p}/{q}",
                     st.one_of(st.integers(-9, -1), st.integers(1, 9)),
                     st.integers(1, 5))


def _names(K):
    return [f"h{i}{j}" for i in range(1, K + 1) for j in range(1, K + 1)]


@st.composite
def single_term_docs(draw, K):
    """Each entry c * h_ij^e times up to two other generators' powers."""
    names = _names(K)
    entries = []
    for own in names:
        factors = [f"{own}^{draw(st.integers(1, 2))}"]
        for other in draw(st.lists(st.sampled_from(names), max_size=2,
                                   unique=True)):
            if other != own:
                factors.append(f"{other}^{draw(st.integers(1, 2))}")
        entries.append(f"{draw(_coeff())}*" + "*".join(factors))
    return {"K": K, "generators": names,
            "entries": [entries[i:i + K] for i in range(0, K * K, K)]}


def _polynomial(draw, own, names, min_extra, max_extra):
    """c * own plus min_extra..max_extra terms of degree 1 or 2."""
    terms = [f"{draw(_coeff())}*{own}"]
    for _ in range(draw(st.integers(min_extra, max_extra))):
        mono = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))
        terms.append("*".join([draw(_coeff())] + mono))
    return " + ".join(terms)


@st.composite
def multi_term_docs(draw):
    """Generic K=3 with each entry replaced, with probability 0.4, by a
    polynomial of 1-3 terms."""
    names = _names(3)
    entries = [
        _polynomial(draw, own, names, 0, 2) if draw(st.integers(0, 9)) < 4
        else own
        for own in names
    ]
    return {"K": 3, "generators": names,
            "entries": [entries[i:i + 3] for i in range(0, 9, 3)]}


def _passes_gate(doc, d):
    matrix = load_channel(doc)
    return matrix if condition.check_all(matrix, d + 1).independent else None


class TestProfileBound:
    """The gated bound from the multiplicity profile against the waived
    exact laws of the same channel."""

    @staticmethod
    def _assert_matches_exact(matrix, d, N):
        got = dof_lower_bound(matrix, d, N)
        want = dof_lower_bound(matrix, d, N, waive_condition=True)
        assert got.cardinality == want.cardinality
        assert math.isclose(got.total, want.total, rel_tol=1e-12)
        for g, w in zip(got.receivers, want.receivers, strict=True):
            assert math.isclose(g.entropy_full_bits, w.entropy_full_bits,
                                rel_tol=1e-12)
            assert math.isclose(g.entropy_interference_bits,
                                w.entropy_interference_bits, rel_tol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(single_term_docs(3), st.integers(0, 3), st.integers(1, 4))
    def test_single_term_k3(self, doc, d, N):
        matrix = _passes_gate(doc, d)
        assume(matrix is not None)
        self._assert_matches_exact(matrix, d, N)

    @settings(max_examples=25, deadline=None)
    @given(single_term_docs(4), st.integers(0, 1), st.integers(1, 4))
    def test_single_term_k4(self, doc, d, N):
        matrix = _passes_gate(doc, d)
        assume(matrix is not None)
        self._assert_matches_exact(matrix, d, N)

    @settings(max_examples=30, deadline=None)
    @given(multi_term_docs(), st.sampled_from([2, 3]))
    def test_multi_term_k3_degree_zero(self, doc, N):
        matrix = _passes_gate(doc, 0)
        assume(matrix is not None)
        self._assert_matches_exact(matrix, 0, N)

    # The exact laws split into components on disjoint monomials, each
    # convolved on its own coefficients, so d=2 and N=4 are in reach.  About
    # one draw in ten links a component of 10^4 to 10^81 coefficient tuples;
    # its law is computed under a support cap of 10^5, so that every example
    # stays small, and a draw the exact path refuses there is rejected.
    @settings(max_examples=25, deadline=None)
    @given(multi_term_docs(), st.integers(1, 2), st.integers(2, 4))
    @example({"K": 3, "generators": _names(3),
              "entries": [["h11", "h12 + h13", "h13"], ["h21", "h22", "h23"],
                          ["h31", "h32", "h33"]]}, 1, 2)
    def test_multi_term_k3_degree_one(self, doc, d, N):
        matrix = _passes_gate(doc, d)
        assume(matrix is not None)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dofbound, "DEFAULT_SUPPORT_CAP", 10**5)
            try:
                self._assert_matches_exact(matrix, d, N)
            except CapExceededError:
                reject()

    def test_k3_closed_form(self):
        # total = (3d/(d+6)) (2 log2 N - H_2(N)) / (2 log2 N), with H_2 the
        # entropy of the triangle law of U + U' on {1..N}
        degrees, ranges = [0, 1, 2, 4, 8], [2, 3, 16, 256]
        cells = [report for report, _ in sweep(generic_channel(3), degrees, ranges)]
        assert [(c.degree, c.coeff_range) for c in cells] == [
            (d, N) for d in degrees for N in ranges]
        for c in cells:
            d, N = c.degree, c.coeff_range
            counts = [min(k, 2 * N - k) for k in range(1, 2 * N)]
            h2 = 2 * math.log2(N) - math.fsum(
                n * math.log2(n) for n in counts) / N**2
            want = 3 * d / (d + 6) * (2 * math.log2(N) - h2) / (2 * math.log2(N))
            assert math.isclose(c.total, want, rel_tol=1e-12)
            assert c.cardinality == (N, monomial_count(6, d))

    def test_k3_closed_form_past_the_old_caps(self):
        # n_1 = 2 phi(d) - 2 phi(d-1) coordinates hold one uniform and
        # n_2 = phi(d-1) the sum of two, so each receiver contributes
        # 1 - (n_1 log2 N + n_2 H_2(N)) / (2 phi(d) log2 N); H_2 is the
        # entropy of the triangle law 1, 2, ..., N, ..., 2, 1 over N^2.
        degrees, ranges = [64, 4096], [2, 256]
        cells = [report for report, _ in sweep(generic_channel(3), degrees, ranges)]
        for c in cells:
            d, N = c.degree, c.coeff_range
            phi, phi_prev = math.comb(6 + d, 6), math.comb(5 + d, 6)
            log_n = math.log2(N)
            h2 = 2 * log_n - (2 * math.fsum(k * math.log2(k) for k in range(1, N))
                              + N * log_n) / N**2
            h_int = (2 * phi - 2 * phi_prev) * log_n + phi_prev * h2
            want = 3 * (1 - h_int / (2 * phi * log_n))
            assert math.isclose(c.total, want, rel_tol=1e-12)
            assert c.cardinality == (N, phi)

    @pytest.mark.parametrize("K,d,N,total", [
        (3, 128, 8192, 1.3533), (4, 512, 16384, 1.8048),
        (5, 2048, 16384, 2.2516)])
    def test_nine_tenths_of_k_over_2(self, K, d, N, total):
        # The smallest (d, N), over powers of two, whose total reaches
        # 0.9 K/2; |W_N| = N^phi(d) has 10^11 to 10^35 bits.
        report = dof_lower_bound(generic_channel(K), d, N)
        assert round(report.total, 4) == total >= 0.9 * K / 2
        assert report.cardinality == (N, math.comb(K * (K - 1) + d, d))

    @pytest.mark.parametrize("K", [3, 4, 5])
    @pytest.mark.parametrize("N", [3, 256])
    def test_limit_in_d(self, K, N):
        # As d grows, the total tends to (K/2)(2 - H_{K-1}(N)/log2 N).
        # With term_full = 1, the gap to it is K (phi H_{K-1} - sum_t n_t
        # H_t) / (2 phi log2 N).  As 0 <= H_t <= H_{K-1}, sum_t n_t H_t lies
        # between n_{K-1} H_{K-1} and S H_{K-1}, S = sum_t n_t, so the gap is
        # at most K H_{K-1} max(phi - n_{K-1}, S - phi) / (2 phi log2 N):
        # 0.0006-0.016 at d = 2^14, with 1e-12 more for rounding.  Here
        # n_{K-1} = phi(d+2-K) counts the monomials divisible by all K-1
        # interferer variables, S the degree-<=(d+1) monomials divisible by
        # at least one.
        d, m = 2**14, K * (K - 1)
        counts = np.ones(1, np.int64)
        for _ in range(K - 1):
            counts = np.convolve(counts, np.ones(N, np.int64))
        h_top = (K - 1) * math.log2(N) - math.fsum(
            int(c) * math.log2(int(c)) for c in counts) / N ** (K - 1)
        limit = K / 2 * (2 - h_top / math.log2(N))
        phi = math.comb(m + d, m)
        n_top = math.comb(m + d + 2 - K, m)
        shared = math.comb(m + d + 1, m) - math.comb(m - K + 1 + d + 1, m - K + 1)
        tol = K * h_top * max(phi - n_top, shared - phi) / (2 * phi * math.log2(N))
        report = profile_bound(K, d, N)
        assert all(t.term_full == 1.0 for t in report.receivers)
        assert abs(report.total - limit) <= tol + 1e-12

    @pytest.mark.parametrize("K,d", [(2, 0), (2, 3), (3, 0), (3, 2), (4, 1),
                                     (4, 2), (5, 1)])
    def test_profile_counts_the_shared_coordinates(self, K, d):
        # Receiver 1's interference coordinates are the degree-<=(d+1)
        # monomials with some interferer variable; t counts those variables.
        nvars = K * (K - 1)
        interferers = range(K - 1)
        shared = Counter(
            sum(1 for v in interferers if beta[v])
            for beta in enumerate_monomials(nvars, d + 1)
        )
        del shared[0]
        assert multiplicity_profile(K, d) == dict(sorted(shared.items()))

    def test_gated_call_reads_no_sum_law(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the gated bound reached the exact path")

        for name in ("build_w_n", "sum_entropy_stats", "sumset_distribution"):
            monkeypatch.setattr(dofbound, name, refuse)
        calls = TestScaledUniformLaws._count_kernel_calls(monkeypatch)
        dof_lower_bound(generic_channel(3), 1, 3)
        assert calls == [(1,), (1, 1)]
        # n_3(1) = 0 for K=4: no coordinate has three interferer variables
        sweep(generic_channel(4), [1], [2])
        assert calls[2:] == [(1,), (1, 1)]

    @pytest.mark.parametrize("K,d,N,t", [
        (3, 0, 10**7 + 1, 1),  # H_1 is wider than the support cap
        (5, 3, 2**16, 4),      # H_4 has 2^64 tuples, past what int64 counts hold
    ])
    def test_kernel_caps_still_refuse(self, K, d, N, t):
        assert multiplicity_profile(K, d)[t] > 0
        with pytest.raises(CapExceededError):
            profile_bound(K, d, N)

    def test_no_kernel_call_for_an_empty_multiplicity(self):
        # At d=0 only H_1 is read, so a range whose H_4 would pass the
        # int64 cap still gives the exact path's bound.
        self._assert_matches_exact(generic_channel(5), 0, 2**16)

    @pytest.mark.parametrize("d,N", [(1, 0), (-1, 2)])
    def test_bad_arguments(self, d, N):
        with pytest.raises(ValueError):
            profile_bound(3, d, N)
        with pytest.raises(ValueError):
            dof_lower_bound(generic_channel(3), d, N)


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

    @pytest.mark.parametrize("value", [1.5, Fraction(1, 2), float("inf")])
    def test_non_integer_offdiag_refused_not_truncated(self, value):
        offdiag = [[0, value, 1], [1, 0, 1], [1, 1, 0]]
        with pytest.raises(ValueError, match="h12 must be a nonzero integer"):
            rational_example(3, offdiag, 4)
        exact = rational_example(3, [[0, 3.0, 1], [1, 0, 1], [1, 1, 0]], 4)
        assert exact == rational_example(3, [[0, 3, 1], [1, 0, 1], [1, 1, 0]], 4)
        assert exact.h_max == 3


class TestFig1:
    def test_cardinalities(self):
        res = fig1_demo()
        assert res.set_size == 7
        assert res.common_structure_cardinality == 19
        assert res.different_structure_cardinality == 49
        assert res.different_structure_cardinality == res.set_size**2
