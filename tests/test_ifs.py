import functools
import itertools
import math
import operator
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from icdof import ifs as ifs_module
from icdof.errors import CapExceededError
from icdof.ifs import (
    IFSSpec,
    SeparationResult,
    exact_overlap_search,
    fixed_point_discrepancy,
    hochman_dimension,
    label_entropy_bits,
    sample,
    separation_check,
    truncation_bound,
)

CANTOR = IFSSpec(Fraction(1, 3), (0, 2))


class TestSpecValidation:
    def test_uniform_default_probs(self):
        assert CANTOR.probs == (Fraction(1, 2), Fraction(1, 2))

    def test_rational_detection(self):
        assert CANTOR.is_rational()
        assert not IFSSpec(0.5, (0.0, 1.0)).is_rational()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r=0, atoms=(0, 1)),
            dict(r=1, atoms=(0, 1)),
            dict(r=Fraction(1, 2), atoms=()),
            dict(r=Fraction(1, 2), atoms=(1, 1)),
            dict(r=Fraction(1, 2), atoms=(0, 1), probs=(Fraction(1, 2),)),
            dict(
                r=Fraction(1, 2),
                atoms=(0, 1),
                probs=(Fraction(1, 3), Fraction(1, 3)),
            ),
            dict(
                r=Fraction(1, 2),
                atoms=(0, 1),
                probs=(Fraction(3, 2), Fraction(-1, 2)),
            ),
            dict(r=Fraction(1, 2), atoms=(0, math.nan)),
            dict(r=Fraction(1, 2), atoms=(0, math.inf)),
            dict(r=Fraction(1, 2), atoms=(-math.inf, 0)),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            IFSSpec(**kwargs)


class TestDimensionFormula:
    def test_cantor(self):
        assert hochman_dimension(CANTOR) == pytest.approx(
            math.log(2) / math.log(3), abs=1e-12
        )

    def test_half_with_four_atoms(self):
        spec = IFSSpec(Fraction(1, 4), (0, 1))
        assert hochman_dimension(spec) == pytest.approx(0.5, abs=1e-12)

    def test_saturates_at_one(self):
        spec = IFSSpec(Fraction(1, 2), (0, 1, 2, 3))
        assert hochman_dimension(spec) == 1.0

    def test_biased_labels(self):
        spec = IFSSpec(
            Fraction(1, 4), (0, 1), probs=(Fraction(1, 4), Fraction(3, 4))
        )
        h = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
        assert label_entropy_bits(spec) == pytest.approx(h, abs=1e-12)
        assert hochman_dimension(spec) == pytest.approx(h / 2, abs=1e-12)

    def test_label_entropy_folds_from_the_left(self):
        # the builtin sum compensates float sums from Python 3.12 on
        probs = tuple(Fraction(k, 55) for k in range(1, 11))
        spec = IFSSpec(Fraction(1, 16), tuple(range(10)), probs=probs)
        terms = [float(p) * math.log2(p) for p in probs]
        assert label_entropy_bits(spec) == -functools.reduce(operator.add, terms, 0)

    def test_rescaling_atoms_invariant(self):
        a = IFSSpec(Fraction(1, 3), (0, 2))
        b = IFSSpec(Fraction(1, 3), (0, 14))
        assert hochman_dimension(a) == hochman_dimension(b)


class TestSeparation:
    def test_cantor_separated(self):
        res = separation_check(CANTOR)
        assert res.bound == 0.5
        assert res.satisfied

    def test_three_atoms_tight(self):
        # distances {1,1,2}: bound 1/3, r = 1/3 sits exactly on it
        spec = IFSSpec(Fraction(1, 3), (0, 1, 2))
        res = separation_check(spec)
        assert res.bound == pytest.approx(1 / 3, abs=1e-15)
        assert res.satisfied

    def test_violated(self):
        spec = IFSSpec(Fraction(1, 2), (0, 1, 2))
        assert not separation_check(spec).satisfied

    def test_exact_boundary_rational(self):
        # float arithmetic would misjudge r == m/(m+M) here
        spec = IFSSpec(Fraction(1, 11), (0, 1, 10))
        assert separation_check(spec).bound == pytest.approx(1 / 11)
        assert separation_check(spec).satisfied

    def test_float_boundary(self):
        # distances {1, 2, 3}: bound 1/4, and r = 0.25 sits exactly on it
        res = separation_check(IFSSpec(0.25, (0.0, 1.0, 3.0)))
        assert res == SeparationResult(0.25, True)

    def test_single_atom_rejected(self):
        with pytest.raises(ValueError):
            separation_check(IFSSpec(Fraction(1, 2), (0,)))


def naive_overlaps(spec, max_depth, tolerance=0):
    """In-test oracle: compare all equal-depth word pairs directly."""
    out = set()
    for depth in range(1, max_depth + 1):
        words = list(itertools.product(range(spec.n), repeat=depth))
        for wa, wb in itertools.combinations(words, 2):
            delta = sum(
                spec.r**t * (spec.atoms[a] - spec.atoms[b])
                for t, (a, b) in enumerate(zip(wa, wb))
            )
            if abs(delta) <= tolerance:
                out.add(tuple(sorted((wa, wb))))
    return out


class TestOverlapSearch:
    def test_cantor_has_none(self):
        assert exact_overlap_search(CANTOR, 6) == []

    def test_binary_half_has_none(self):
        # r=1/2 atoms {0,1}: equal-depth base points are distinct dyadics
        spec = IFSSpec(Fraction(1, 2), (0, 1))
        assert exact_overlap_search(spec, 8) == []

    def test_known_overlap_found(self):
        spec = IFSSpec(Fraction(1, 2), (0, 1, 2))
        pairs = exact_overlap_search(spec, 2)
        keys = {(p.word_a, p.word_b) for p in pairs}
        # 2 + r*0 == 1 + r*2 and 1 + r*0 == 0 + r*2
        assert ((1, 2), (2, 0)) in keys
        assert ((0, 2), (1, 0)) in keys
        assert all(p.delta_abs == 0 for p in pairs)

    @pytest.mark.parametrize(
        "spec,depth",
        [
            (IFSSpec(Fraction(1, 2), (0, 1, 2)), 3),
            (IFSSpec(Fraction(1, 3), (0, 1, 3)), 3),
            (CANTOR, 4),
            (IFSSpec(Fraction(1, 2), (0, 1, 2)), 4),
        ],
    )
    def test_matches_naive_oracle(self, spec, depth):
        # The list itself is ordered by (depth, word_a, word_b); at depth 4
        # the order of the sorted base points is not that order.
        got = [(p.word_a, p.word_b) for p in exact_overlap_search(spec, depth)]
        assert got == sorted(naive_overlaps(spec, depth),
                             key=lambda pair: (len(pair[0]), pair))

    def test_float_tolerance_matches_naive_oracle(self):
        spec = IFSSpec(0.41, (0.0, 0.3, 1.1, 0.7))
        got = [(p.word_a, p.word_b) for p in exact_overlap_search(spec, 3, 0.05)]
        assert got == sorted(naive_overlaps(spec, 3, 0.05),
                             key=lambda pair: (len(pair[0]), pair))

    def test_tolerance_widens(self):
        spec = IFSSpec(Fraction(1, 3), (0, 2))
        assert exact_overlap_search(spec, 3, tolerance=0) == []
        loose = exact_overlap_search(spec, 3, tolerance=10.0)
        # diameter-sized tolerance admits every pair
        n_pairs = sum(
            2**L * (2**L - 1) // 2 for L in range(1, 4)
        )
        assert len(loose) == n_pairs
        assert exact_overlap_search(spec, 3, tolerance=math.inf) == loose

    def test_separation_implies_no_overlap(self):
        for spec in [
            CANTOR,
            IFSSpec(Fraction(1, 4), (0, 1)),
            IFSSpec(Fraction(1, 3), (0, 1, 2)),
            IFSSpec(Fraction(1, 5), (0, 2, 3)),
        ]:
            if separation_check(spec).satisfied:
                assert exact_overlap_search(spec, 4) == []

    def test_pair_cap(self):
        with pytest.raises(CapExceededError):
            exact_overlap_search(CANTOR, 30)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            exact_overlap_search(CANTOR, 0)
        with pytest.raises(ValueError):
            exact_overlap_search(CANTOR, 2, tolerance=-1)

    def test_nan_tolerance_refused(self):
        # Every comparison with NaN is false, so no pair would ever end the
        # sliding window and each one would be reported.
        with pytest.raises(ValueError, match="tolerance"):
            exact_overlap_search(IFSSpec(Fraction(1, 2), (0, 1, 2)), 3,
                                 tolerance=math.nan)


class TestSampling:
    def test_deterministic(self):
        a = sample(CANTOR, 10, 500, seed=42)
        b = sample(CANTOR, 10, 500, seed=42)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        a = sample(CANTOR, 10, 500, seed=42)
        b = sample(CANTOR, 10, 500, seed=43)
        assert not np.array_equal(a, b)

    def test_chunking_splits_count(self):
        out = sample(CANTOR, 5, 1001, seed=0, chunks=4)
        assert out.shape == (1001,)

    def test_depth_one_matches_label_law(self):
        spec = IFSSpec(
            Fraction(1, 2), (0, 1), probs=(Fraction(1, 4), Fraction(3, 4))
        )
        out = sample(spec, 1, 200_000, seed=7)
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert np.mean(out) == pytest.approx(0.75, abs=0.01)

    def test_support_bound(self):
        out = sample(CANTOR, 12, 10_000, seed=1)
        # atoms {0,2}, r=1/3: series stays in [0, 2/(1-1/3)] = [0, 3]
        assert out.min() >= 0.0
        assert out.max() <= 3.0

    def test_bad_arguments(self):
        for kwargs in [
            dict(depth=0, count=1, seed=0),
            dict(depth=1, count=0, seed=0),
            dict(depth=1, count=1, seed=0, chunks=0),
        ]:
            with pytest.raises(ValueError):
                sample(CANTOR, **kwargs)


def choice_sample(spec, depth, count, seed, chunks=1):
    """``sample`` as it was written with ``Generator.choice`` (its chunk
    split inlined), kept as the oracle for the step-table label draw."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(chunks)
    atoms = spec.atoms_float()
    probs = np.array([float(p) for p in spec.probs])
    probs = probs / probs.sum()
    r = float(spec.r)
    parts = []
    base, extra = divmod(count, chunks)
    sizes = [base + (1 if i < extra else 0) for i in range(chunks)]
    for child, size in zip(children, sizes):
        if size == 0:
            continue
        rng = np.random.default_rng(child)
        acc = np.zeros(size)
        scale = 1.0
        for _ in range(depth):
            idx = rng.choice(spec.n, size=size, p=probs)
            acc += scale * atoms[idx]
            scale *= r
        parts.append(acc)
    return np.concatenate(parts)


@st.composite
def label_laws(draw):
    """Specs with 1..100 atoms whose label law may hold zero-probability
    atoms and one dominant atom."""
    n = draw(st.integers(1, 100))
    weights = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    if draw(st.booleans()):
        weights[draw(st.integers(0, n - 1))] += draw(st.integers(1, 10**6))
    if not any(weights):
        weights[-1] = 1
    total = sum(weights)
    r = draw(st.sampled_from([Fraction(1, 3), Fraction(2, 5), 0.37]))
    atoms = tuple(Fraction(3 * i + 1, 7) for i in range(n))
    return IFSSpec(r, atoms, tuple(Fraction(w, total) for w in weights))


class TestSampleMatchesChoice:
    @settings(max_examples=80, deadline=None)
    @given(
        label_laws(),
        st.integers(1, 6),
        st.one_of(st.integers(1, 4), st.integers(5, 3000)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
    )
    @example(IFSSpec(Fraction(1, 2), (0,)), 3, 2, 0, 4)
    @example(IFSSpec(Fraction(1, 3), (0, 1, 2),
                     (Fraction(994, 1000), Fraction(0), Fraction(6, 1000))),
             6, 3000, 1, 3)
    def test_bytes_equal_choice_oracle(self, spec, depth, count, seed, chunks):
        got = sample(spec, depth, count, seed, chunks=chunks)
        want = choice_sample(spec, depth, count, seed, chunks=chunks)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        label_laws(),
        st.integers(1, 4),
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.integers(1, 4)),
        st.booleans(),
    )
    def test_few_buckets_equal_choice_oracle(self, spec, depth, count, seed,
                                             table_bits, capped):
        # With _TABLE_BITS at 1..4 the table has the fewest power of two
        # >= 4n buckets; capped at 2..16 buckets as well, most of them are
        # marked, so most draws take the binary search.  None is the default.
        with pytest.MonkeyPatch.context() as patch:
            if table_bits is not None:
                patch.setattr(ifs_module, "_TABLE_BITS", table_bits)
                if capped:
                    patch.setattr(ifs_module, "_GUIDE_BITS", table_bits)
            got = sample(spec, depth, count, seed)
        assert got.tobytes() == choice_sample(spec, depth, count, seed).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_binary_search_fallback_equals_choice_oracle(self, n, monkeypatch):
        # A 4-bucket step table leaves most draws to the binary search.
        monkeypatch.setattr(ifs_module, "_GUIDE_BITS", 2)
        weights = [(7 * i) % 5 for i in range(n - 1)] + [1]
        probs = tuple(Fraction(w, sum(weights)) for w in weights)
        spec = IFSSpec(Fraction(1, 3), tuple(range(n)), probs)
        got = sample(spec, 3, 5000, 4, chunks=2)
        assert got.tobytes() == choice_sample(spec, 3, 5000, 4, chunks=2).tobytes()

    @pytest.mark.parametrize("sixteenths,guide_bits", [
        ((1, 1, 0, 1, 13), 2),
        ((1, 1, 0, 1, 13), ifs_module._GUIDE_BITS),
        ((6, 10), 2),
    ])
    def test_ties_at_cdf_values_and_bucket_edges(self, sixteenths, guide_bits,
                                                 monkeypatch):
        # Dyadic probabilities make every cdf value a possible uniform.  With
        # 4 buckets the first law crowds four values into bucket 0 and the
        # second puts 3/8 alone inside bucket 1; uncapped, the table has
        # 2**_TABLE_BITS buckets and every edge of them is fed.
        monkeypatch.setattr(ifs_module, "_GUIDE_BITS", guide_bits)
        spec = IFSSpec(Fraction(1, 3), tuple(range(len(sixteenths))),
                       tuple(Fraction(k, 16) for k in sixteenths))
        table, table_cdf = ifs_module._step_table(spec)
        assert table.size == 1 << min(ifs_module._TABLE_BITS, guide_bits)
        cdf = np.array([float(p) for p in spec.probs]).cumsum()
        points = np.concatenate([cdf[:-1], np.arange(64) / 64,
                                 np.arange(table.size) / table.size])
        u = np.unique(np.concatenate([points, np.nextafter(points, 0),
                                      np.nextafter(points, 1)]))
        u = u[(u >= 0) & (u < 1)]

        class FixedUniforms:
            def random(self, size):
                assert size == u.size
                return u.copy()

        labels = np.zeros(u.size)
        ifs_module._add_draws(labels, np.arange(spec.n, dtype=float), table,
                              table_cdf, FixedUniforms())
        assert np.array_equal(labels, cdf.searchsorted(u, side="right"))

    @settings(max_examples=15, deadline=None)
    @given(label_laws(), st.integers(0, 2**32 - 1))
    def test_fixed_point_offsets_equal_choice_oracle(self, spec, seed):
        from scipy.stats import ks_2samp

        depth, count = 3, 500
        direct_ss, scaled_ss, offset_ss = np.random.SeedSequence(seed).spawn(3)
        direct = choice_sample(spec, depth, count, direct_ss)
        inner = choice_sample(spec, depth - 1, count, scaled_ss)
        probs = np.array([float(p) for p in spec.probs])
        offsets = spec.atoms_float()[np.random.default_rng(offset_ss).choice(
            spec.n, size=count, p=probs / probs.sum())]
        want = ks_2samp(direct, float(spec.r) * inner + offsets).statistic
        assert fixed_point_discrepancy(spec, depth, count, seed) == want

    @pytest.mark.parametrize("count", [65535, 65536, 65537, 2 * 65536 + 1])
    @pytest.mark.parametrize("chunks", [1, 2, 3])
    def test_blocks_equal_choice_oracle(self, count, chunks):
        # Counts on both sides of one and two sampling blocks.
        assert ifs_module._BLOCK == 65536
        spec = TIED_SPECS[2]
        got = sample(spec, 3, count, 17, chunks=chunks)
        want = choice_sample(spec, 3, count, 17, chunks=chunks)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(label_laws(), st.integers(1, 4), st.integers(1, 60),
           st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 7))
    def test_small_blocks_equal_choice_oracle(self, spec, depth, count, seed,
                                              chunks, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ifs_module, "_BLOCK", block)
            got = sample(spec, depth, count, seed, chunks=chunks)
        want = choice_sample(spec, depth, count, seed, chunks=chunks)
        assert got.tobytes() == want.tobytes()

    def test_surplus_chunks_cost_nothing(self):
        started = time.perf_counter()
        many = sample(CANTOR, 4, 10, seed=9, chunks=10**6)
        assert time.perf_counter() - started < 5.0
        assert many.tobytes() == sample(CANTOR, 4, 10, seed=9, chunks=10).tobytes()


class TestTruncation:
    def test_bound_formula(self):
        assert truncation_bound(CANTOR, 1) == pytest.approx(1.0)
        assert truncation_bound(CANTOR, 5) == pytest.approx(3 ** (-5) * 3.0)

    def test_bound_holds_empirically(self):
        deep = sample(CANTOR, 20, 2000, seed=3)
        shallow = sample(CANTOR, 6, 2000, seed=3)
        # same seed, shared prefix labels: the tails differ by at most the bound
        assert np.max(np.abs(deep - shallow)) <= truncation_bound(CANTOR, 6) + 1e-12


def fixed_point_samples(spec, depth, count, seed, r_second=None):
    """The two samples ``fixed_point_discrepancy`` compares, drawn again
    with ``Generator.choice``."""
    direct_ss, scaled_ss, offset_ss = np.random.SeedSequence(seed).spawn(3)
    direct = choice_sample(spec, depth, count, direct_ss)
    inner = choice_sample(spec, depth - 1, count, scaled_ss)
    probs = np.array([float(p) for p in spec.probs])
    offsets = spec.atoms_float()[np.random.default_rng(offset_ss).choice(
        spec.n, size=count, p=probs / probs.sum())]
    r2 = float(spec.r) if r_second is None else r_second
    return direct, r2 * inner + offsets


def ks_oracle(x, y):
    """max |F1(v) - F2(v)| over every sample point v, in exact fractions."""
    return max(abs(Fraction(int((x <= v).sum()) - int((y <= v).sum()), len(x)))
               for v in np.concatenate([x, y]))


#: Laws on a coarse lattice: at depth 2 or 3 most sample values repeat.
TIED_SPECS = [
    IFSSpec(Fraction(1, 2), (0, 1, 2)),
    IFSSpec(Fraction(1, 2), (0, 1), (Fraction(1, 8), Fraction(7, 8))),
    IFSSpec(Fraction(1, 3), (0, 1, 2, 5),
            (Fraction(1, 10), Fraction(0), Fraction(6, 10), Fraction(3, 10))),
    IFSSpec(Fraction(1, 2), (0,)),
]


class TestFixedPoint:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(TIED_SPECS), st.integers(2, 3), st.integers(1, 40),
           st.integers(0, 2**32 - 1), st.sampled_from([None, 0.5, 0.25]))
    def test_equals_exact_statistic(self, spec, depth, count, seed, r_second):
        want = ks_oracle(*fixed_point_samples(spec, depth, count, seed, r_second))
        got = fixed_point_discrepancy(spec, depth, count, seed, r_second)
        assert got == float(want)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(TIED_SPECS), st.integers(2, 3), st.integers(1, 40),
           st.integers(0, 2**32 - 1), st.sampled_from([None, 0.5, 0.25]),
           st.sampled_from([1, 2, 3, 7]))
    def test_small_blocks_equal_exact_statistic(self, spec, depth, count, seed,
                                                r_second, block):
        # The lattice laws put tie groups across the walk's block edges.
        from scipy.stats import ks_2samp

        x, y = fixed_point_samples(spec, depth, count, seed, r_second)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ifs_module, "_BLOCK", block)
            got = fixed_point_discrepancy(spec, depth, count, seed, r_second)
        assert got == float(ks_oracle(x, y)) == ks_2samp(x, y).statistic

    @pytest.mark.parametrize("spec", TIED_SPECS)
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_apart_samples_equal_exact_statistic(self, spec, block):
        # With r_second = 0.001 the second sample sits next to the offsets
        # and the first on the coarse lattice, so long runs of one sample
        # fill a window that is then taken whole.
        for depth, count, seed in [(2, 23, 1), (3, 40, 2), (3, 17, 3)]:
            x, y = fixed_point_samples(spec, depth, count, seed, 0.001)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ifs_module, "_BLOCK", block)
                got = fixed_point_discrepancy(spec, depth, count, seed, 0.001)
            assert got == float(ks_oracle(x, y))

    def test_merge_holds_no_index_array(self):
        # At 10^6 draws the two samples take 16 MB; the offsets are drawn
        # and the merge taken in blocks, with no index array.
        tracemalloc.start()
        try:
            fixed_point_discrepancy(CANTOR, 4, 1_000_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20_000_000

    def test_large_count_is_a_correctly_rounded_ratio(self):
        # Past 10,000 draws the statistic is still h/count for the integer
        # h = max |count*F1 - count*F2| over the sample points.
        spec, count = TIED_SPECS[2], 20_011
        x, y = fixed_point_samples(spec, 3, count, 13)
        points = np.concatenate([x, y])
        h = np.abs(np.sort(x).searchsorted(points, side="right")
                   - np.sort(y).searchsorted(points, side="right")).max()
        assert fixed_point_discrepancy(spec, 3, count, 13) == int(h) / count

    def test_small_discrepancy(self):
        stat = fixed_point_discrepancy(CANTOR, depth=16, count=100_000, seed=5)
        assert stat < 0.01

    def test_wrong_ratio_negative_control(self):
        stat = fixed_point_discrepancy(
            CANTOR, depth=16, count=100_000, seed=5, r_second=0.6
        )
        assert stat > 0.1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            fixed_point_discrepancy(CANTOR, depth=1, count=10, seed=0)
        with pytest.raises(ValueError):
            fixed_point_discrepancy(CANTOR, depth=2, count=0, seed=0)
