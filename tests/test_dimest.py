import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from icdof import dimest
from icdof.dimest import (
    aligned_k_grid,
    compare_with_formula,
    estimate_dimension,
    quantized_entropy,
    required_depth,
)
from icdof.ifs import IFSSpec, hochman_dimension

CANTOR = IFSSpec(Fraction(1, 3), (0, 2))


class TestQuantizedEntropy:
    def test_constant_sample(self):
        assert quantized_entropy(np.full(100, 0.4), 8) == 0.0

    def test_two_point_law(self):
        samples = np.array([0.1] * 500 + [0.9] * 500)
        assert quantized_entropy(samples, 2) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_approaches_log_k(self):
        rng = np.random.default_rng(0)
        samples = rng.random(200_000)
        for k in (4, 16, 64):
            assert quantized_entropy(samples, k) == pytest.approx(
                math.log2(k), abs=0.01
            )

    def test_miller_madow_adds_correction(self):
        samples = np.array([0.1] * 30 + [0.9] * 70)
        plain = quantized_entropy(samples, 2)
        corrected = quantized_entropy(samples, 2, miller_madow=True)
        assert corrected - plain == pytest.approx(
            1 / (2 * 100 * math.log(2)), abs=1e-12
        )

    def test_coarse_quantization_loses_entropy(self):
        rng = np.random.default_rng(1)
        samples = rng.random(50_000)
        assert quantized_entropy(samples, 2) < quantized_entropy(samples, 32)

    def test_undersampling_warns(self):
        samples = np.linspace(0, 1, 50)
        with pytest.warns(UserWarning, match="undersampled"):
            quantized_entropy(samples, 1000)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            quantized_entropy(np.zeros(5), 0)
        with pytest.raises(ValueError):
            quantized_entropy(np.zeros(0), 2)


def unique_entropy(samples, k, miller_madow):
    """``quantized_entropy`` as it was written with ``np.unique``, the oracle
    for the run-length count on sorted cells."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    _, counts = np.unique(np.floor(k * samples), return_counts=True)
    p = counts / n
    entropy = float(-(p * np.log2(p)).sum())
    if miller_madow:
        entropy += (len(counts) - 1) / (2 * n * math.log(2))
    return entropy


class TestQuantizedEntropyMatchesUnique:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5]),
            min_size=1, max_size=300,
        ),
        st.integers(1, 10**9),
        st.booleans(),
    )
    def test_equals_unique_oracle_sorted_and_unsorted(self, values, k, mm):
        samples = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for x in (samples, np.sort(samples)):
                assert quantized_entropy(x, k, mm) == unique_entropy(x, k, mm)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 0.75, 2.5])
                 | st.floats(-4, 4), min_size=1, max_size=40),
        st.integers(1, 8),
        st.booleans(),
        st.sampled_from([1, 2, 3, 7]),
    )
    @example([0.0, -0.0, 0.1, 0.2, 0.3, 0.9, 1.0], 2, False, 3)
    @example([0.5, 0.25, 0.75, 0.5], 4, True, 2)
    def test_small_blocks_equal_unique_oracle(self, values, k, mm, block):
        # Runs of equal cells cross the block edges, on sorted input and on
        # input whose cells are out of order late in the array.
        samples = np.array(values)
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("ignore")
            patch.setattr(dimest, "_BLOCK", block)
            for x in (np.sort(samples), samples):
                assert quantized_entropy(x, k, mm) == unique_entropy(x, k, mm)

    @pytest.mark.parametrize("values", [[np.nan], [1.0, np.nan, np.nan],
                                        [np.nan, 0.5, np.nan]])
    def test_nan_refused(self, values):
        with pytest.raises(ValueError, match="NaN"):
            quantized_entropy(np.array(values), 4)

    @pytest.mark.parametrize("block", [1, 2])
    @pytest.mark.parametrize("values", [[np.nan, 0.5], [0.25, 0.5, np.nan],
                                        [0.25, np.nan, 0.5, 0.75]])
    def test_nan_refused_across_blocks(self, values, block, monkeypatch):
        monkeypatch.setattr(dimest, "_BLOCK", block)
        with pytest.raises(ValueError, match="NaN"):
            quantized_entropy(np.array(values), 4)

    def test_sorted_samples_are_counted_without_a_copy(self):
        # 4*10^6 sorted samples (32 MB) at k = 729: the cells are built a
        # block at a time, so the call holds no sample-sized array.
        samples = np.sort(np.random.default_rng(8).random(4_000_000))
        tracemalloc.start()
        try:
            quantized_entropy(samples, 729, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000


class TestDepthAndGrid:
    def test_required_depth_rule(self):
        # r = 1/3, k_max = 81: need 3^m >= 162 so m = 5
        assert required_depth(CANTOR, 81) == 5
        depth = required_depth(CANTOR, 81)
        assert (1 / 3) ** depth <= 1 / (2 * 81)
        assert (1 / 3) ** (depth - 1) > 1 / (2 * 81)

    @pytest.mark.parametrize("e", [20, 30, 34, 35])
    def test_required_depth_is_exact_past_float_logs(self, e):
        # 2 k_max = 3^e + 1, so r^m <= 1/(2 k_max) first holds at m = e + 1;
        # the float quotient log(2 k_max) / log 3 is at most e at e = 34 and 35.
        k_max = (3**e + 1) // 2
        depth = required_depth(CANTOR, k_max)
        assert depth == e + 1
        assert Fraction(1, 3) ** depth <= Fraction(1, 2 * k_max)
        assert Fraction(1, 3) ** (depth - 1) > Fraction(1, 2 * k_max)

    def test_required_depth_steps_down_from_float_logs(self):
        # r = 1/2 at k_max = 2^28: log(2^29) / log 2 is 29.000000000000004
        # in floats, so the first m tried is 30, and 2^29 >= 2 k_max lowers it.
        k_max = 2**28
        assert math.ceil(math.log(2 * k_max) / math.log(2)) == 30
        depth = required_depth(IFSSpec(Fraction(1, 2), (0, 1)), k_max)
        assert depth == 29
        assert 2**depth >= 2 * k_max > 2 ** (depth - 1)

    def test_required_depth_of_the_benchmark_estimate(self):
        # r = 1/729 over k up to 729^3: 729^4 >= 2 * 729^3 > 729^3.
        assert required_depth(IFSSpec(Fraction(1, 729), (0, 1)), 729**3) == 4

    def test_aligned_grid_powers(self):
        assert aligned_k_grid(CANTOR, 3, 100) == [3, 9, 27, 81]
        assert aligned_k_grid(CANTOR, 10, 100) == [27, 81]

    @pytest.mark.parametrize("inv_r, top", [(3, 40), (729, 7)])
    def test_aligned_grid_exact_past_two_to_the_53(self, inv_r, top):
        # float powers gave 3^34 + 1 and 729^6 + 15
        spec = IFSSpec(Fraction(1, inv_r), (0, 1))
        grid = aligned_k_grid(spec, inv_r, inv_r**top)
        assert grid == [inv_r**j for j in range(1, top + 1)]

    def test_aligned_grid_irrational_ratio(self):
        spec = IFSSpec(0.4, (0.0, 1.0))
        grid = aligned_k_grid(spec, 2, 50)
        assert grid == [round(2.5**j) for j in (1, 2, 3, 4)]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            aligned_k_grid(CANTOR, 4, 8)
        with pytest.raises(ValueError):
            aligned_k_grid(CANTOR, 5, 4)


class TestEstimateDimension:
    def test_cantor_small_run(self):
        est = estimate_dimension(CANTOR, [9, 27, 81], 50_000, seed=2)
        assert est.slope == pytest.approx(math.log(2) / math.log(3), abs=0.05)
        assert est.lower_proxy <= est.upper_proxy
        assert est.lower_proxy == min(est.pointwise)
        assert est.upper_proxy == max(est.pointwise)
        assert est.depth == required_depth(CANTOR, 81)

    def test_full_dimension_case(self):
        spec = IFSSpec(Fraction(1, 2), (0, 1))
        est = estimate_dimension(spec, [8, 16, 32, 64], 100_000, seed=3)
        assert est.slope == pytest.approx(1.0, abs=0.05)

    def test_deterministic(self):
        a = estimate_dimension(CANTOR, [9, 27], 10_000, seed=5)
        b = estimate_dimension(CANTOR, [9, 27], 10_000, seed=5)
        assert a == b

    def test_entropies_monotone_in_k(self):
        est = estimate_dimension(CANTOR, [3, 9, 27, 81], 100_000, seed=4)
        diffs = np.diff(est.entropies)
        assert np.all(diffs > -1e-9)

    def test_scale_shift_invariance_of_slope(self):
        # affine images (atoms scaled and shifted) share the dimension
        # explicit extra depth: the depth rule does not account for the
        # larger atom diameter of the scaled copy
        a = estimate_dimension(CANTOR, [9, 27, 81], 50_000, depth=9, seed=6)
        shifted = IFSSpec(Fraction(1, 3), (5, 19))  # x -> 7x + 5 image
        b = estimate_dimension(shifted, [9, 27, 81], 50_000, depth=9, seed=6)
        assert b.slope == pytest.approx(a.slope, abs=0.05)

    def test_insufficient_depth_rejected(self):
        with pytest.raises(ValueError, match="need depth >= 5"):
            estimate_dimension(CANTOR, [81], 1000, depth=3)

    def test_plain_floats(self):
        est = estimate_dimension(CANTOR, [9, 27], 10_000, seed=0)
        assert all(type(v) is float for v in est.pointwise)
        assert type(est.slope) is float

    def test_one_entry_grid(self):
        # one point fits no line: the slope is H / log2(k), and 0.0 at k = 1
        est = estimate_dimension(CANTOR, [9], 10_000, seed=0)
        assert est.slope == est.entropies[0] / math.log2(9)
        assert estimate_dimension(CANTOR, [1], 1000, seed=0).slope == 0.0

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            estimate_dimension(CANTOR, [], 100)
        with pytest.raises(ValueError):
            estimate_dimension(CANTOR, [0, 3], 100)


class TestCompareWithFormula:
    def test_within_tolerance(self):
        est = estimate_dimension(CANTOR, [9, 27, 81], 100_000, seed=1)
        cmp = compare_with_formula(CANTOR, est, tolerance=0.05)
        assert cmp.formula == pytest.approx(hochman_dimension(CANTOR), abs=0)
        assert cmp.abs_error == abs(cmp.formula - cmp.empirical)
        assert cmp.within_tolerance

    def test_spec_mismatch_rejected(self):
        est = estimate_dimension(CANTOR, [9, 27], 1000, seed=0)
        other = IFSSpec(Fraction(1, 2), (0, 1))
        with pytest.raises(ValueError):
            compare_with_formula(other, est)
