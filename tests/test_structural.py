"""Differential tests of the structural shortcuts against their exact oracles.

Random small K=2/3 channels of four kinds: single terms on distinct
generators (the shortcuts always apply), single terms on a shared pool of
generators (monomials may collide), entries of up to three terms, and
rational constants.  The oracles are the tuple enumeration of W_N and of
the received sums, Bareiss elimination of the receiver family, called
directly, the materialized convolution of the received sums, the
per-element kernel read of the interference support that containment used
to run, the per-degree check that the Jacobian certificate skips, and a
term-by-term Fraction expansion of the products of powers that the basis,
the receiver family and the certificate substitution build from term maps.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from icdof import condition
from icdof.algebra import AlgebraElement, enumerate_monomials, monomial_count
from icdof.channel import ChannelMatrix, load_channel, off_diagonal
from icdof.condition import (
    basis_values,
    check_all,
    jacobian_certifies,
    monomial_values,
)
from icdof.dofbound import (
    ContainmentResult,
    _coordinate_layout,
    _enumerate_letters,
    build_w_n,
    containment_check,
    entropy_from_counts,
    sum_entropy_stats,
    sumset_distribution,
)
import reference_linalg as dense
from test_dofbound import (
    brute_force_sum_counts,
    multi_term_docs,
    single_term_docs,
)

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
        elif kind == "rational":
            terms = {(0,) * ngens: draw(coefficients)}
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

    @settings(max_examples=60, deadline=None)
    @given(w_n_cases())
    def test_jacobian_shortcut_matches_rank(self, case):
        # A basis the Jacobian certifies is sized as its rank would size it,
        # with the same letters in the same order.
        _, matrix, d, N = case
        event(f"certified: {jacobian_certifies(matrix)}")

        def built(*args):
            c = build_w_n(*args)
            return c.size, c.unique_representation, c.elements

        assert built(matrix, d, N) == uncertified(built, matrix, d, N)


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
        rows = dense.integer_columns(values)
        rank = len(dense.bareiss_echelon(rows)[1]) if rows else 0
        verdict = check_all(matrix, d, [receiver]).verdicts[0]
        assert verdict.rank == rank
        assert verdict.independent == (rank == len(values))
        assert verdict.family_size == len(values)
        if kind == "single":
            assert verdict.independent
        if not verdict.independent:
            assert verdict.certificate.is_valid(matrix)
            certificate = verdict.certificate.a + verdict.certificate.b
            assert list(certificate) == dense.kernel_vector(rows)

    @settings(max_examples=30, deadline=None)
    @given(condition_cases())
    def test_check_all_matches_per_receiver_checks(self, case):
        _, matrix, d, _ = case
        report = check_all(matrix, d)
        assert report.verdicts == tuple(
            check_all(matrix, d, [i]).verdicts[0] for i in range(1, matrix.K + 1)
        )


def expanded_product(ngens, factors):
    """Oracle: the product of ``factors``, expanded term by term in
    ``Fraction`` arithmetic, with no shortcut for a single-term factor."""
    terms = {(0,) * ngens: Fraction(1)}
    for factor in factors:
        out = {}
        for ma, ca in terms.items():
            for mb, cb in factor.terms.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                out[mono] = out.get(mono, 0) + Fraction(ca) * cb
        terms = out
    return AlgebraElement(ngens, terms)


@st.composite
def term_map_cases(draw):
    """(channel, d, receiver, a, b): d up to 3 for K = 2 and 3, and sparse
    integer coefficient vectors of length phi(d)."""
    K = draw(st.sampled_from([2, 3]))
    matrix = draw(channels(draw(st.sampled_from(KINDS)), K))
    d = draw(st.integers(0, 3))
    phi = monomial_count(K * (K - 1), d)
    sparse = st.lists(st.sampled_from([0] * 6 + [-2, -1, 1, 3]),
                      min_size=phi, max_size=phi).map(tuple)
    return matrix, d, draw(st.integers(1, K)), draw(sparse), draw(sparse)


class TestTermMapFamilies:
    """The term-map basis, family and certificate substitution against the
    product-of-powers oracle and the dense Bareiss reference."""

    @settings(max_examples=40, deadline=None)
    @given(term_map_cases())
    def test_families_ranks_and_substitution_match_oracles(self, case):
        matrix, d, receiver, a, b = case
        ngens = len(matrix.generators)
        entries = off_diagonal(matrix)
        basis = [
            expanded_product(ngens, [e for e, exp in zip(entries, mono)
                                     for _ in range(exp)])
            for mono in enumerate_monomials(len(entries), d)
        ]
        h_ii = matrix.diagonal(receiver)
        family = basis + [expanded_product(ngens, [h_ii, f]) for f in basis]
        assert basis_values(matrix, d) == basis
        assert monomial_values(matrix, d, receiver) == family

        rows = dense.integer_columns(family)
        verdict = check_all(matrix, d, [receiver]).verdicts[0]
        assert verdict.rank == dense.rank(rows)
        kernel = dense.kernel_vector(rows)
        assert verdict.independent == (kernel is None)
        if kernel is not None:
            assert list(verdict.certificate.a + verdict.certificate.b) == kernel
            assert verdict.certificate.is_valid(matrix)

        # Full-family substitution, every value scaled by its coefficient.
        full = AlgebraElement.zero(ngens)
        for coeff, value in zip(a + b, family):
            full = full + value.scale(coeff)
        certificate = condition.DependenceCertificate(receiver, d, a, b)
        assert certificate.substitute(matrix) == full


@st.composite
def coordinate_cases(draw):
    """(channel, d, N, receiver, include_diagonal) with a small exact oracle.

    Single-term entries with rational coefficients of either sign.  Only on
    a shared generator pool can several terms land on one coordinate at
    these sizes, so that kind is drawn twice as often.
    """
    K = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["single", "shared", "shared"]))
    matrix = draw(channels(kind, K))
    d = draw(st.integers(0, 2 if K == 2 else 0))
    N = draw(st.integers(1, 2 if d == 2 else 3 if K == 2 else 4))
    return matrix, d, N, draw(st.integers(1, K)), draw(st.booleans())


REPEATED_MONOMIAL_K2 = load_channel({
    "K": 2, "generators": ["g", "h11", "h22"],
    "entries": [["h11", "g"], ["2*g", "h22"]]})


class TestCoordinateEntropies:
    def test_repeated_basis_monomial_is_eligible(self):
        c = build_w_n(REPEATED_MONOMIAL_K2, 1, 2)
        assert c.cardinality == 8 and c.unique_representation
        assert _coordinate_layout(REPEATED_MONOMIAL_K2, 1, True, c) is not None

    @settings(max_examples=100, deadline=None)
    @given(coordinate_cases())
    # one coordinate with mixed denominators and a negative coefficient
    @example((load_channel({"K": 2, "generators": ["g"], "entries": [
        ["1/2*g", "-2/3*g"], ["g", "g"]]}), 0, 3, 1, True))
    # the basis {1, g, 2g} repeats a monomial, yet W_2 has unique representation
    @example((REPEATED_MONOMIAL_K2, 1, 2, 1, True))
    def test_coordinate_path_matches_materialized_law(self, case):
        matrix, d, N, receiver, include_diagonal = case
        c = build_w_n(matrix, d, N)
        assume(_coordinate_layout(matrix, receiver, include_diagonal, c) is not None)
        entropy, support = sum_entropy_stats(matrix, receiver, include_diagonal, c)
        dist = sumset_distribution(matrix, receiver, include_diagonal, c)
        assert support == dist.support_size
        assert abs(entropy - dist.entropy_bits) <= 1e-12


@st.composite
def sum_law_cases(draw):
    """(channel, d, N, receiver, include_diagonal) with at most 729 tuples.

    Multi-term, constant (rational) and shared-generator single-term entries,
    coefficients of either sign with denominators up to 3.
    """
    K = draw(st.sampled_from([2, 3]))
    matrix = draw(channels(draw(st.sampled_from(["multi", "rational", "shared"])), K))
    d = draw(st.integers(0, 1 if K == 2 else 0))
    N = draw(st.integers(1, 3))
    return matrix, d, N, draw(st.integers(1, K)), draw(st.booleans())


class TestSumLaws:
    @settings(max_examples=100, deadline=None)
    @given(sum_law_cases())
    def test_counts_match_tuple_enumeration(self, case):
        matrix, d, N, receiver, include_diagonal = case
        c = build_w_n(matrix, d, N)
        dist = sumset_distribution(matrix, receiver, include_diagonal, c)
        oracle = brute_force_sum_counts(matrix, receiver, include_diagonal, c)
        assert dist.counts == dict(oracle)
        assert dist.total == sum(oracle.values())
        h_oracle = entropy_from_counts(oracle.values(), dist.total)
        assert dist.entropy_bits == h_oracle
        entropy, support = sum_entropy_stats(matrix, receiver, include_diagonal, c)
        assert support == len(oracle)
        if _coordinate_layout(matrix, receiver, include_diagonal, c) is None:
            assert entropy == h_oracle


@st.composite
def containment_cases(draw):
    """(channel, receiver, d, N) whose interference support has at most 729
    nominal elements, so that the oracle can read every one of them."""
    kind = draw(st.sampled_from(KINDS))
    K = draw(st.sampled_from([2, 3]))
    matrix = draw(channels(kind, K))
    d = draw(st.integers(0, 1))
    N = draw(st.integers(1, 3))
    phi = 1 if d == 0 else 1 + K * (K - 1)
    assume(N ** (phi * (K - 1)) <= 729)
    return matrix, draw(st.integers(1, K)), d, N


def read_every_element(matrix, receiver, d, N):
    """Oracle: materialize the interference law and read each support
    element over the degree-(d+1) basis from the kernel of [basis | e]."""
    construction = build_w_n(matrix, d, N)
    dist = sumset_distribution(matrix, receiver, False, construction)
    basis = basis_values(matrix, d + 1)
    if dense.rank(dense.integer_columns(basis)) < len(basis):
        raise ValueError(
            "basis values are rationally dependent; representation "
            "extraction is ambiguous for this channel"
        )
    bound = (matrix.K - 1) * N
    contained = True
    for element in dist.counts:
        v = dense.kernel_vector(dense.integer_columns(basis + [element]))
        coeffs = [] if v is None else [Fraction(-x, v[-1]) for x in v[:-1]]
        if v is None or any(
            a.denominator != 1 or not 0 <= a <= bound for a in coeffs
        ):
            contained = False
            break
    return ContainmentResult(contained, bound ** len(basis), dist.support_size)


def outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestContainment:
    @settings(max_examples=60, deadline=None)
    @given(containment_cases())
    # a multi-term K=3 channel whose degree-1 basis passes the rank test
    @example((load_channel({"K": 3, "generators": ["a", "b", "c", "x", "y"],
                            "entries": [["a", "x + y^3", "y"], ["x", "b", "x*y"],
                                        ["y^2", "x^2", "c"]]}), 1, 0, 3))
    def test_generator_check_matches_per_element_read(self, case):
        matrix, receiver, d, N = case
        assert outcome(containment_check, *case) == outcome(
            read_every_element, matrix, receiver, d, N)


@st.composite
def certificate_cases(draw):
    """(channel, top degree): K=3 channels of every kind, single- and
    multi-term polynomial documents, and K=4 channels at d <= 1."""
    K = draw(st.sampled_from([3, 3, 3, 4]))
    source = draw(st.sampled_from(["kind", "kind", "docs"]))
    if source == "kind":
        matrix = draw(channels(draw(st.sampled_from(KINDS)), K))
    elif K == 3:
        matrix = load_channel(draw(st.one_of(multi_term_docs(),
                                             single_term_docs(3))))
    else:
        matrix = load_channel(draw(single_term_docs(4)))
    return matrix, 3 if K == 3 else 1


def uncertified(check, *args):
    """``check(*args)`` with the Jacobian certificate off, so that every
    receiver gets the per-degree check."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(condition, "jacobian_certifies", lambda *_: False)
        return check(*args)


class TestJacobianCertificate:
    @settings(max_examples=60, deadline=None)
    @given(certificate_cases())
    # two-term entries: receivers 1 and 2 certified, receiver 3 not (h33
    # is a product of off-diagonal entries)
    @example((load_channel({
        "K": 3, "generators": [f"h{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)],
        "entries": [["h11 + 2/3", "h12 - h13", "h13"],
                    ["h21", "h22 + 5/7*h11", "h23 + h21*h31"],
                    ["h31", "h32", "3/4*h12*h13"]]}), 3))
    def test_sound_and_invisible(self, case):
        # A certified receiver is independent at every degree the per-degree
        # check reaches, and the verdicts (ranks, certificates) and the
        # containment answers are the per-degree check's.
        matrix, top = case
        certified = [jacobian_certifies(matrix, i)
                     for i in range(1, matrix.K + 1)]
        event(f"certified receivers: {sum(certified)} of {matrix.K}")
        for d in range(top + 1):
            oracle = uncertified(check_all, matrix, d)
            assert check_all(matrix, d) == oracle
            for verdict, ok in zip(oracle.verdicts, certified, strict=True):
                assert verdict.independent or not ok
        if jacobian_certifies(matrix):
            basis = basis_values(matrix, top)
            assert dense.rank(dense.integer_columns(basis)) == len(basis)
        args = (containment_check, matrix, 1, top - 1, 2)
        assert outcome(*args) == uncertified(outcome, *args)
