"""Differential tests of the structural shortcuts against their exact oracles.

Random small K=2/3 channels of three kinds: single terms on distinct
generators (the shortcuts always apply), single terms on a shared pool of
generators (monomials may collide), and entries of up to three terms.  The
oracles are the tuple enumeration of W_N and Bareiss elimination of the
receiver family, called directly.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from icdof import linalg
from icdof.algebra import AlgebraElement, distinct_single_terms
from icdof.channel import ChannelMatrix
from icdof.condition import (
    _integer_columns,
    check_all,
    check_condition_star,
    monomial_values,
)
from icdof.dofbound import _enumerate_letters, build_w_n

KINDS = ("single", "shared", "multi")

coefficients = st.builds(
    Fraction,
    st.integers(1, 4).flatmap(lambda n: st.sampled_from([n, -n])),
    st.integers(1, 3),
)


@st.composite
def channels(draw, kind, K):
    """A K x K channel whose entries follow ``kind``."""
    if kind == "single":
        ngens = K * K
        gens = draw(st.permutations(range(ngens)))
    else:
        ngens = draw(st.integers(1, K * K - 1))

    def monomial():
        return draw(st.tuples(*[st.integers(0, 1)] * ngens))

    entries = []
    for k in range(K * K):
        if kind == "single":
            exps = [0] * ngens
            exps[gens[k]] = 1
            terms = {tuple(exps): draw(coefficients)}
        elif kind == "shared":
            terms = {monomial(): draw(coefficients)}
        else:
            count = draw(st.integers(1, 3))
            terms = {monomial(): draw(coefficients) for _ in range(count)}
        entries.append(AlgebraElement(ngens, terms))
    rows = tuple(tuple(entries[i * K:(i + 1) * K]) for i in range(K))
    return ChannelMatrix(K, tuple(f"g{g}" for g in range(ngens)), rows)


@st.composite
def w_n_cases(draw):
    """(kind, channel, d, N) with at most 729 nominal letters."""
    kind = draw(st.sampled_from(KINDS))
    K = draw(st.sampled_from([2, 3]))
    matrix = draw(channels(kind, K))
    d = draw(st.integers(0, 2 if K == 2 else 1))
    N = draw(st.integers(1, 3 if K == 2 else 2))
    return kind, matrix, d, N


def enumerated_letters(matrix, basis, N):
    """Oracle: every coefficient tuple, summed directly."""
    zero = AlgebraElement.zero(len(matrix.generators))
    return {
        sum((f.scale(a) for f, a in zip(basis, combo)), zero)
        for combo in itertools.product(range(1, N + 1), repeat=len(basis))
    }


class TestLazyWN:
    @settings(max_examples=60, deadline=None)
    @given(w_n_cases())
    def test_size_and_uniqueness_match_enumeration(self, case):
        kind, matrix, d, N = case
        c = build_w_n(matrix, d, N)
        direct = enumerated_letters(matrix, c.basis, N)
        assert c.cardinality == len(c.elements) == len(direct)
        assert c.unique_representation == (len(direct) == N ** len(c.basis))
        if kind == "single":
            assert c.unique_representation

    @settings(max_examples=60, deadline=None)
    @given(w_n_cases())
    def test_lazy_letters_match_eager_enumeration_in_order(self, case):
        _, matrix, d, N = case
        c = build_w_n(matrix, d, N)
        eager = _enumerate_letters(c.basis, N, len(matrix.generators))
        assert list(c.elements) == list(eager)
        assert list(c.elements) == list(eager)  # the cached second pass
        assert set(c.elements) == enumerated_letters(matrix, c.basis, N)


@st.composite
def condition_cases(draw):
    kind = draw(st.sampled_from(KINDS))
    K = draw(st.sampled_from([2, 3]))
    matrix = draw(channels(kind, K))
    d = draw(st.integers(0, 3 if K == 2 else 2))
    return kind, matrix, d, draw(st.integers(1, K))


class TestStructuralIndependence:
    @settings(max_examples=60, deadline=None)
    @given(condition_cases())
    def test_verdict_and_rank_match_bareiss(self, case):
        kind, matrix, d, receiver = case
        values = monomial_values(matrix, d, receiver)
        rows = _integer_columns(values)
        rank = len(linalg.bareiss_echelon(rows)[1]) if rows else 0
        verdict = check_condition_star(matrix, d, receiver)
        assert verdict.rank == rank
        assert verdict.independent == (rank == len(values))
        assert verdict.family_size == len(values)
        if kind == "single":
            assert distinct_single_terms(values) is not None
        if not verdict.independent:
            assert verdict.certificate.is_valid(matrix)

    @settings(max_examples=30, deadline=None)
    @given(condition_cases())
    def test_check_all_matches_per_receiver_checks(self, case):
        _, matrix, d, _ = case
        report = check_all(matrix, d)
        assert report.verdicts == tuple(
            check_condition_star(matrix, d, i) for i in range(1, matrix.K + 1)
        )
