import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from icdof.algebra import AlgebraElement, enumerate_monomials, monomial_count
from icdof.channel import (
    generic_channel,
    load_channel,
    off_diagonal,
    rational_channel,
    integer_offdiag_channel,
    store_channel,
)
from icdof.condition import (
    DependenceCertificate,
    basis_values,
    check_all,
    jacobian_certifies,
    monomial_values,
)
from icdof.dofbound import build_w_n, containment_check, dof_lower_bound
from icdof.errors import CapExceededError
from icdof import algebra, condition, linalg
import reference_linalg as dense
from test_golden import _multi_term_doc, _product_doc


def _refuse(what):
    def refuse(*args):
        raise AssertionError(f"{what} built past the elimination cap")

    return refuse


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


def sparse_columns(matrix, cols):
    """The columns of a row-list matrix as ``{row: entry}`` maps, zeros dropped."""
    return [
        {r: row[c] for r, row in enumerate(matrix) if row[c]} for c in range(cols)
    ]


def integer_rows(matrix):
    """Each row scaled by its denominator lcm: the same kernel, integer entries."""
    rows = []
    for row in matrix:
        denom = math.lcm(*(Fraction(v).denominator for v in row))
        rows.append([int(v * denom) for v in row])
    return rows


class TestLinalg:
    def test_rank_examples(self):
        assert dense.rank([[1, 0], [0, 1]]) == 2
        assert dense.rank([[1, 2], [2, 4]]) == 1
        assert dense.rank([[0, 0], [0, 0]]) == 0
        assert dense.rank([]) == 0

    def test_rank_matches_fraction_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = [
                [rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)
            ]
            assert dense.rank(m) == fraction_rank(m)
            assert linalg.eliminate_columns(sparse_columns(m, cols)) == (
                fraction_rank(m), dense.kernel_vector(m))

    def test_kernel_vector_annihilates(self):
        rng = random.Random(11)
        found = 0
        for _ in range(80):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(2, 6)
            m = [
                [rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)
            ]
            x = dense.kernel_vector(m)
            assert linalg.eliminate_columns(sparse_columns(m, cols)) == (
                fraction_rank(m), x)
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

    def test_eliminate_columns_rational_zero_and_repeated_columns(self):
        assert linalg.eliminate_columns([]) == (0, None)
        assert linalg.eliminate_columns([{}]) == (0, [1])
        assert linalg.eliminate_columns([{0: 1}, {}, {0: 2}]) == (1, [0, 1, 0])
        assert linalg.eliminate_columns(
            [{0: Fraction(1, 2)}, {0: Fraction(-2, 3)}]) == (1, [4, 3])
        rng = random.Random(13)
        for _ in range(80):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 6)
            m = [
                [Fraction(rng.randrange(-3, 4), rng.randrange(1, 5))
                 for _ in range(cols)]
                for _ in range(rows)
            ]
            # an all-zero column and a repeat of column 0, at random places
            zero, repeat = rng.randrange(cols + 1), rng.randrange(cols + 2)
            for row in m:
                row.insert(zero, Fraction(0))
                row.insert(repeat, row[0])
            rank, kernel = linalg.eliminate_columns(sparse_columns(m, cols + 2))
            assert rank == fraction_rank(m) <= cols
            assert kernel == dense.kernel_vector(integer_rows(m))
            assert all(sum(a * b for a, b in zip(row, kernel)) == 0 for row in m)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_eliminate_columns_matches_bareiss(self, data):
        # Integer, rational and mixed entries: the int-preserving reduction
        # gives the dense Bareiss rank and first-dependence kernel.
        kind = data.draw(st.sampled_from(["int", "rational", "mixed"]))
        ints = st.integers(-4, 4)
        fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
        entry = {"int": ints, "rational": fractions,
                 "mixed": st.one_of(ints, fractions)}[kind]
        rows = data.draw(st.integers(1, 5))
        cols = data.draw(st.integers(1, 6))
        m = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
        # a few columns that are combinations of earlier ones
        for _ in range(data.draw(st.integers(0, 2))):
            weights = [data.draw(entry) for _ in range(cols)]
            for row in m:
                row.append(sum(w * v for w, v in zip(weights, row)))
            cols += 1
        rank, kernel = linalg.eliminate_columns(sparse_columns(m, cols))
        assert rank == dense.rank(integer_rows(m))
        assert kernel == dense.kernel_vector(integer_rows(m))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_eliminate_columns_matches_bareiss_at_large_magnitudes(self, data):
        # Numerators up to 10^12 and denominators up to 10^6, with zero,
        # repeated and combination columns inserted at drawn places: the
        # fraction-free reduction keeps the dense Bareiss rank and kernel.
        numerators = st.integers(-10**12, 10**12)
        fractions = st.builds(Fraction, numerators, st.integers(1, 10**6))
        entry = st.one_of(st.just(0), numerators, fractions)
        rows = data.draw(st.integers(1, 5))
        cols = data.draw(st.integers(1, 5))
        m = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(st.sampled_from(["zero", "repeat", "combination"]))
            if kind == "zero":
                new = [0] * rows
            elif kind == "repeat":
                source = data.draw(st.integers(0, cols - 1))
                new = [row[source] for row in m]
            else:
                weights = [data.draw(fractions) for _ in range(cols)]
                new = [sum(w * v for w, v in zip(weights, row)) for row in m]
            at = data.draw(st.integers(0, cols))
            for row, value in zip(m, new):
                row.insert(at, value)
            cols += 1
        rank, kernel = linalg.eliminate_columns(sparse_columns(m, cols))
        assert rank == dense.rank(integer_rows(m))
        assert kernel == dense.kernel_vector(integer_rows(m))

    def test_reduction_builds_no_fraction(self, monkeypatch):
        # Fractional multi-entry columns, the last a combination of the
        # first three: the reduction and the kernel run in ints.
        rng = random.Random(19)
        m = [[Fraction(rng.randrange(-99, 100), rng.randrange(1, 60))
              for _ in range(4)] for _ in range(5)]
        for row in m:
            row.append(Fraction(3, 7) * row[0] - Fraction(5, 2) * row[2] + row[1])
        columns = sparse_columns(m, 5)
        expected = (dense.rank(integer_rows(m)), dense.kernel_vector(integer_rows(m)))
        assert expected[1] is not None
        made, steps = [], []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        if hasattr(Fraction, "_from_coprime_ints"):
            # Python 3.12 builds arithmetic results without __new__.
            from_ints = Fraction._from_coprime_ints.__func__

            def counting_from_ints(cls, *args):
                made.append(args)
                return from_ints(cls, *args)

            monkeypatch.setattr(
                Fraction, "_from_coprime_ints", classmethod(counting_from_ints))
        reduce = linalg._reduce

        def counting_reduce(*args):
            steps.append(args)
            return reduce(*args)

        monkeypatch.setattr(linalg, "_reduce", counting_reduce)
        assert Fraction(1, 3) * 2 and made
        made.clear()
        assert linalg.eliminate_columns(columns) == expected
        assert steps and not made

    def test_kernel_none_for_full_column_rank(self):
        assert dense.kernel_vector([[2, 0], [0, 5], [1, 1]]) is None

    def test_no_fractions_in_echelon(self):
        echelon, _ = dense.bareiss_echelon([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        assert all(isinstance(v, int) for row in echelon for v in row)


class TestEliminateOnSight:
    """Which families ``eliminate_columns`` decides without a reduction."""

    def test_distinct_single_keys(self, monkeypatch):
        # No column is reduced, and the cap, lowered below n, is not applied.
        def refuse(*args):
            raise AssertionError("a column was reduced")

        monkeypatch.setattr(linalg, "_reduce", refuse)
        monkeypatch.setattr(linalg, "ELIMINATION_COLUMN_CAP", 2)
        x1 = AlgebraElement.generator(2, 0)
        x2 = AlgebraElement.generator(2, 1)
        values = [AlgebraElement.constant(2, 3), x1.scale(Fraction(1, 2)), x1 * x2]
        assert linalg.eliminate_columns([v.terms for v in values]) == (3, None)
        assert linalg.eliminate_columns([]) == (0, None)

    def test_repeated_key_is_reduced(self, monkeypatch):
        x1 = AlgebraElement.generator(2, 0)
        columns = [x1.terms, x1.scale(2).terms]
        assert linalg.eliminate_columns(columns) == (1, [2, -1])
        monkeypatch.setattr(linalg, "ELIMINATION_COLUMN_CAP", 1)
        with pytest.raises(CapExceededError):
            linalg.eliminate_columns(columns)

    def test_repeated_key_decided_from_keys(self, monkeypatch):
        # One-entry columns with repeated keys: the rank is the number of
        # distinct keys and the kernel comes from the first repeat (column 2,
        # key "x", first held by column 0), with no column reduced; the
        # family is still capped.
        columns = [{"x": 3}, {"y": Fraction(1, 2)}, {"x": -2}, {"y": 5}]
        dense_rows = [[3, 0, -2, 0], [0, 1, 0, 10]]
        expected = (dense.rank(dense_rows), dense.kernel_vector(dense_rows))
        assert expected == (2, [2, 0, 3, 0])
        monkeypatch.setattr(linalg, "_reduce", _refuse("reduction"))
        assert linalg.eliminate_columns(columns) == expected
        report = check_all(load_channel(_product_doc()), 3)
        assert [v.rank for v in report.verdicts] == [154] * 3
        monkeypatch.setattr(linalg, "ELIMINATION_COLUMN_CAP", 3)
        with pytest.raises(CapExceededError):
            linalg.eliminate_columns(columns)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 5),
        st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))),
        max_size=12))
    # An explicit zero entry is a zero column, which the rule hands to the
    # reduction.
    @example([(0, 1), (1, 0), (0, 2)])
    @example([(1, Fraction(0)), (0, 3), (1, 5)])
    @example([(0, 2), (1, 1), (2, 0), (0, Fraction(-1, 3))])
    def test_single_entry_rule_matches_bareiss(self, entries):
        columns = [{key: value} for key, value in entries]
        rows = integer_rows([[value if k == key else 0 for key, value in entries]
                             for k in range(6)])
        assert linalg.eliminate_columns(columns) == (
            dense.rank(rows), dense.kernel_vector(rows))

    def test_two_entry_and_empty_columns_are_reduced(self, monkeypatch):
        x1 = AlgebraElement.generator(2, 0)
        one = AlgebraElement.constant(2, 1)
        two_entries = [(x1 + one).terms, x1.terms]
        empty = [AlgebraElement.zero(2).terms]
        assert linalg.eliminate_columns(two_entries) == (2, None)
        assert linalg.eliminate_columns(empty) == (0, [1])
        monkeypatch.setattr(linalg, "ELIMINATION_COLUMN_CAP", 0)
        for columns in (two_entries, empty):
            with pytest.raises(CapExceededError):
                linalg.eliminate_columns(columns)


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

    def test_basis_equals_products_of_powers(self):
        from test_golden import _multi_term_doc

        m = load_channel(_multi_term_doc())
        entries = [m.entry(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        one = AlgebraElement.constant(len(m.generators), 1)
        expected = []
        for mono in enumerate_monomials(6, 4):
            value = one
            for entry, exp in zip(entries, mono):
                if exp:
                    value = value * entry**exp
            expected.append(value)
        assert basis_values(m, 4) == expected

    @pytest.mark.parametrize("name", ["generic3", "multi3", "product3"])
    def test_entry_times_basis_value_is_next_basis_value(self, name):
        # containment_check answers True on this identity alone:
        # h_v * f_alpha == f_{alpha + e_v} for every off-diagonal v, |alpha| <= d
        from test_golden import DOCS

        m, d = load_channel(DOCS[name]()), 2
        entries = off_diagonal(m)
        monomials = enumerate_monomials(len(entries), d + 1)
        position = {mono: k for k, mono in enumerate(monomials)}
        basis = basis_values(m, d + 1)
        checked = 0
        for alpha, f_alpha in zip(monomials, basis):
            if sum(alpha) > d:
                break
            for v, h_v in enumerate(entries):
                shifted = alpha[:v] + (alpha[v] + 1,) + alpha[v + 1:]
                assert h_v * f_alpha == basis[position[shifted]]
                checked += 1
        assert checked == len(entries) * monomial_count(len(entries), d)

    def test_receiver_out_of_range(self):
        with pytest.raises(ValueError):
            monomial_values(generic_channel(2), 1, 3)

    def test_phi_cap(self, monkeypatch):
        # The cap sits on the elimination: a family of 2*phi(2) = 12 values
        # is refused before any column is reduced when it needs the
        # reduction, and passes when it is independent on sight.
        monkeypatch.setattr(linalg, "ELIMINATION_COLUMN_CAP", 10)
        shared = load_channel({
            "K": 2,
            "generators": ["g", "h11", "h22"],
            "entries": [["h11", "g"], ["g", "h22"]],
        })
        monkeypatch.setattr(linalg, "_reduce", _refuse("reduction"))
        with pytest.raises(CapExceededError):
            check_all(shared, 2, [1]).verdicts[0]
        verdict = check_all(generic_channel(2), 2, [1]).verdicts[0]
        assert verdict.independent and verdict.family_size == 12

    def test_multi_term_refused_before_expansion(self, monkeypatch):
        # Two-term entries: the family at d=8 (2*phi(8) = 6006 values) and
        # the basis alone at d=9 (phi(9) = 5005) exceed the elimination cap,
        # so each is refused before any product of entries is expanded or
        # any matrix is built.
        m = load_channel({
            "K": 3,
            "generators": ["x", "y"],
            "entries": [["1", "x + y", "x + 1"],
                        ["y + 1", "1", "x + 2"],
                        ["y + 2", "x + 3", "1"]],
        })
        monkeypatch.setattr(AlgebraElement, "__mul__", _refuse("product"))
        monkeypatch.setattr(AlgebraElement, "__pow__", _refuse("power"))
        monkeypatch.setattr(linalg, "eliminate_columns", _refuse("elimination"))
        for check, size in ((lambda: check_all(m, 8), 6006),
                            (lambda: basis_values(m, 9), 5005)):
            with pytest.raises(CapExceededError, match=f"size {size} "):
                check()


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
            raise AssertionError("elimination ran on a distinct single-term family")

        monkeypatch.setattr(linalg, "_reduce", refuse)
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
    def test_degree_four_without_bareiss(self):
        # 420-value families with both verdicts, too wide for dense Bareiss
        # in a unit test; the ranks were computed once with it.
        from test_golden import _multi_term_doc, _product_doc

        for doc, ranks in [
            (_multi_term_doc(), [420, 420, 392]),
            (_product_doc(), [364, 364, 364]),
        ]:
            m = load_channel(doc)
            report = check_all(m, 4)
            assert [v.rank for v in report.verdicts] == ranks
            for v in report.verdicts:
                assert v.independent == (v.certificate is None)
                assert v.independent or v.certificate.is_valid(m)

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
        verdict = check_all(m, 1, [1]).verdicts[0]
        assert not verdict.independent
        assert verdict.certificate.is_valid(m)

    def test_integer_offdiag_dependent_at_degree_one(self):
        # integer off-diagonals give rational dependences among products
        m = integer_offdiag_channel([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        verdict = check_all(m, 1, [1]).verdicts[0]
        assert not verdict.independent
        assert verdict.certificate.is_valid(m)

    def test_integer_offdiag_independent_at_degree_zero(self):
        # [1, h_ii] with h_ii a free generator is independent over Q
        m = integer_offdiag_channel([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert check_all(m, 0).independent

    def test_dependence_persists_at_higher_degree(self):
        m = rational_channel([[2, 1], [1, 3]])
        for d in (0, 1, 2):
            verdict = check_all(m, d, [1]).verdicts[0]
            assert not verdict.independent
            assert verdict.certificate.is_valid(m)

    @pytest.mark.parametrize("d", [2, 3])
    def test_fractional_multi_term_diagonal_certificate(self, d):
        # h33 = 5/8*h21 + 8/3*h12*h13 + 7/6 is left uncertified, and its
        # family is eliminated with h33 scaled by 24 to int coefficients.
        # The certificate is still the Bareiss kernel of the true family.
        m = _with_h(3, (3, 3), "5/8*h21 + 8/3*h12*h13 + 7/6")
        family = monomial_values(m, d, 3)
        phi = monomial_count(6, d)
        assert family[phi:] == [m.diagonal(3) * f for f in family[:phi]]
        rows = dense.integer_columns(family)
        verdict = check_all(m, d, [3]).verdicts[0]
        assert verdict.rank == dense.rank(rows) < 2 * phi
        cert = verdict.certificate
        assert list(cert.a + cert.b) == dense.kernel_vector(rows)
        assert any(cert.b) and cert.is_valid(m)

    def test_certificate_nonzero_and_coprime(self):
        import math

        m = rational_channel([[Fraction(5, 3), 2], [7, 11]])
        cert = check_all(m, 1, [2]).verdicts[0].certificate
        coeffs = list(cert.a + cert.b)
        assert any(coeffs)
        assert math.gcd(*[abs(c) for c in coeffs]) in (0, 1)

    def test_certificate_of_the_wrong_length_is_refused(self):
        # phi(1) = 3 on generic K=2: seven a's and no b's, truncated to the
        # six family values, would read as a valid certificate.
        m = generic_channel(2)
        for a, b in [((0,) * 6 + (1,), ()), ((1, 0, 0), (0, 0)),
                     ((1, 0, 0), (0, 0, 0, 0))]:
            cert = DependenceCertificate(1, 1, a, b)
            message = f"{len(a)} a and {len(b)} b coefficients; phi\\(1\\) = 3"
            for call in (cert.is_valid, cert.substitute):
                with pytest.raises(ValueError, match=message):
                    call(m)

    def test_all_zero_certificate_invalid(self):
        m = generic_channel(2)
        cert = DependenceCertificate(1, 0, (0,), (0,))
        assert not cert.is_valid(m)


class TestRankOracle:
    def test_family_rank_matches_fraction_oracle(self):
        # cross-check the full pipeline rank against independent elimination
        for m, d, receiver in [
            (generic_channel(2), 2, 1),
            (generic_channel(3), 1, 3),
            (integer_offdiag_channel([[0, 1, 2], [1, 0, 1], [3, 1, 0]]), 1, 2),
            (rational_channel([[2, 1], [1, 3]]), 2, 1),
        ]:
            values = monomial_values(m, d, receiver)
            rows = dense.integer_columns(values)
            verdict = check_all(m, d, [receiver]).verdicts[0]
            assert verdict.rank == fraction_rank(rows)
            assert verdict.independent == (verdict.rank == len(values))


def _with_h(K, entry, expr):
    """Generic K x K with one entry replaced by ``expr``."""
    doc = store_channel(generic_channel(K))
    i, j = entry
    doc["entries"][i - 1][j - 1] = expr
    return load_channel(doc)


def _four_entry_channel():
    """Generic K=3 with four entries replaced; the Jacobian certifies
    receiver 2 only."""
    doc = store_channel(generic_channel(3))
    doc["entries"][0][0] = "-5*h13^2 - 3*h12 + 4*h33"
    doc["entries"][1][2] = "h33^2"
    doc["entries"][2][0] = "3*h11^2 - 4*h32^2 + 3*h12^2"
    doc["entries"][2][1] = "-4*h32"
    return load_channel(doc)


class TestJacobianCertificate:
    """Which receivers the all-degree certificate answers, and that an
    uncertified receiver gets the per-degree check's verdict, certificate
    and refusals."""

    def test_which_channels_are_certified(self):
        assert jacobian_certifies(generic_channel(2), 1)
        assert jacobian_certifies(generic_channel(4))
        # constant entries and no generators: too few nonzero rows
        assert not jacobian_certifies(rational_channel([[2, 1], [1, 3]]), 1)
        offdiag = integer_offdiag_channel([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert not any(jacobian_certifies(offdiag, i) for i in (1, 2, 3))
        # h32 = 2/3 h12 h13 is algebraic over h12, h13
        m = load_channel(_product_doc())
        assert not jacobian_certifies(m)
        assert not any(jacobian_certifies(m, i) for i in (1, 2, 3))

    def test_jacobian_past_the_elimination_cap_is_not_certified(
            self, monkeypatch):
        # The 7 Jacobian columns of a multi-term channel need a reduction;
        # past the cap (K >= 64 at the real one) the per-degree check
        # answers instead of the certificate refusing.
        m = _with_h(3, (1, 2), "h12 + h13")
        assert jacobian_certifies(m, 1)
        monkeypatch.setattr(linalg, "ELIMINATION_COLUMN_CAP", 6)
        assert not jacobian_certifies(m, 1)
        report = check_all(m, 0)
        assert report.independent and [v.rank for v in report.verdicts] == [2] * 3

    def test_generic_k3_builds_no_family(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a monomial family was built")

        monkeypatch.setattr(condition, "_basis_terms", refuse)
        monkeypatch.setattr(condition, "enumerate_monomials", refuse)
        monkeypatch.setattr(algebra, "enumerate_monomials", refuse)
        monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
        report = check_all(generic_channel(3), 16)
        assert report.independent
        for v in report.verdicts:
            assert v.rank == v.family_size == 149226
            assert v.certificate is None
        assert check_all(generic_channel(3), 16, [2]).verdicts[0] == report.verdicts[1]
        # the gated bound at d=15 gates at d+1 = 16
        bound = dof_lower_bound(generic_channel(3), 15, 2)
        assert bound.cardinality == (2, monomial_count(6, 15))

    def test_monomial_cap_still_refuses_degree_17(self):
        message = r"^monomial enumeration: size 100947 exceeds cap 100000$"
        m = generic_channel(3)
        with pytest.raises(CapExceededError, match=message):
            containment_check(m, 1, 16, 2)

    @pytest.mark.parametrize("d", [17, 4096])
    def test_certified_verdicts_count_phi_at_any_degree(self, monkeypatch, d):
        # phi(17) = 100,947 is past the monomial cap, which guards only
        # what is built; a certified receiver builds nothing.
        def refuse(*args):
            raise AssertionError("a monomial family was built")

        monkeypatch.setattr(condition, "_basis_terms", refuse)
        monkeypatch.setattr(algebra, "enumerate_monomials", refuse)
        m = generic_channel(3)
        size = 2 * math.comb(6 + d, 6)
        report = check_all(m, d)
        assert report.independent
        assert [(v.rank, v.family_size) for v in report.verdicts] == [
            (size, size)] * 3
        assert check_all(m, d, [1]).verdicts[0] == report.verdicts[0]

    def test_refusals_before_the_certificate_are_kept(self):
        m = generic_channel(3)
        with pytest.raises(ValueError, match="receiver 4 out of range 1..3"):
            check_all(m, 1, [4]).verdicts[0]
        with pytest.raises(ValueError, match="degree bound must be non-negative"):
            check_all(m, -1)

    def test_uncertified_four_entry_channel_refused_at_degree_8(self):
        # The CI channel checked at d=7 (3,432 columns).  Receivers 1 and 3
        # need the per-degree check, and at d=8 their family has
        # 2 C(14, 8) = 6,006 columns, past the 4,000-column cap, for the
        # check and for the gate of the bound at d=7.
        m = _four_entry_channel()
        assert [jacobian_certifies(m, i) for i in (1, 2, 3)] == [False, True, False]
        message = "^elimination columns: size 6006 exceeds cap 4000$"
        for check in (lambda: check_all(m, 8), lambda: dof_lower_bound(m, 7, 2)):
            with pytest.raises(CapExceededError, match=message):
                check()

    def test_selected_certified_receiver_answers_past_the_cap(self, monkeypatch):
        # Receiver 2 alone is certified, so asking for it builds no family
        # while the check over every receiver still refuses at d=8.
        m = _four_entry_channel()
        with pytest.raises(CapExceededError, match="elimination columns: size 6006"):
            check_all(m, 8)
        monkeypatch.setattr(condition, "_basis_terms", _refuse("a basis"))
        report = check_all(m, 8, [2])
        assert [v.receiver for v in report.verdicts] == [2]
        assert report.independent
        assert report.verdicts[0].rank == report.verdicts[0].family_size == 6006

    @pytest.mark.parametrize("receiver", [0, 4])
    def test_receiver_range_checked_before_the_family(self, receiver):
        # 2 phi(9) = 10,010 columns: building the family would hit the
        # elimination cap first.
        m = _with_h(3, (1, 2), "h12 + h13")
        message = f"^receiver {receiver} out of range 1..3$"
        for check in (lambda: check_all(m, 9, [receiver]).verdicts[0],
                      lambda: monomial_values(m, 9, receiver)):
            with pytest.raises(ValueError, match=message):
                check()

    def test_rank_deficient_jacobian_falls_back(self, monkeypatch):
        # h32 = -3 h22^2: receiver 2's Jacobian has rank 6 of 7, yet h22 is
        # not rational over the off-diagonal entries and (*) holds.  The
        # certificate is only sufficient: the per-degree check answers.
        m = _with_h(3, (3, 2), "-3*h22^2")
        assert [jacobian_certifies(m, i) for i in (1, 2, 3)] == [True, False, True]
        assert jacobian_certifies(m)
        built = []
        original = condition._basis_terms
        monkeypatch.setattr(condition, "_basis_terms",
                            lambda *args: built.append(args) or original(*args))
        for d in range(4):
            report = check_all(m, d)
            assert report.independent
            assert all(v.rank == 2 * monomial_count(6, d) for v in report.verdicts)
        assert len(built) == 4

    # product3 is uncertified and still independent at d=1; receivers 1-2
    # of multi3 are certified, receiver 3 is dependent
    @pytest.mark.parametrize("doc,degree,independent", [
        (_product_doc, 1, True), (_product_doc, 3, False),
        (_multi_term_doc, 3, False)])
    def test_dependent_channels_keep_their_certificates(
            self, monkeypatch, doc, degree, independent):
        m = load_channel(doc())
        report = check_all(m, degree)
        per_receiver = [check_all(m, degree, [i]).verdicts[0] for i in (1, 2, 3)]
        monkeypatch.setattr(condition, "jacobian_certifies", lambda *_: False)
        assert report == check_all(m, degree)
        assert per_receiver == list(report.verdicts)
        assert report.independent == independent
        for v in report.verdicts:
            assert v.independent or v.certificate.is_valid(m)

    # multi3: receivers 1-2 certified, 3 not; product3: none certified
    @pytest.mark.parametrize("doc", [_multi_term_doc, _product_doc])
    def test_gradients_taken_once_per_check_all(self, monkeypatch, doc):
        # K(K-1) off-diagonal gradients and one per diagonal entry: 9, and
        # no receiver's Jacobian is decided a second time.
        m = load_channel(doc())
        assert not all(jacobian_certifies(m, i) for i in (1, 2, 3))
        expected = check_all(m, 2)
        gradient = condition._gradient
        calls = []

        def counted(entry):
            calls.append(entry)
            return gradient(entry)

        monkeypatch.setattr(condition, "_gradient", counted)
        assert check_all(m, 2) == expected
        assert len(calls) == 3 * 2 + 3

    def test_certified_multi_term_answers_past_the_elimination_cap(
            self, monkeypatch):
        # 2 phi(8) = 6,006 columns: the per-degree check refuses before any
        # product is expanded, and the certificate needs none.  Containment
        # eliminates the phi(8) = 3,003 basis values alone, under the cap,
        # so uncertified it gives the certified answer.
        m = _with_h(3, (1, 2), "h12 + h13")
        report = check_all(m, 8)
        assert report.independent
        assert all(v.rank == v.family_size == 6006 for v in report.verdicts)
        contained = containment_check(m, 1, 7, 2)
        assert contained.container_cardinality == 4 ** monomial_count(6, 8)
        monkeypatch.setattr(condition, "jacobian_certifies", lambda *_: False)
        with pytest.raises(CapExceededError, match="elimination columns: size 6006"):
            check_all(m, 8)
        assert containment_check(m, 1, 7, 2) == contained

    def test_basis_read_checks_only_its_own_columns(self):
        # h32 = h12^9 + h13: the off-diagonal Jacobian fails, so W_N and
        # containment take the rank of the phi(8) = 3,003 basis values,
        # which are independent; the check of the 6,006-column family at
        # d=8 is still refused.
        m = _with_h(3, (3, 2), "h12^9 + h13")
        assert not jacobian_certifies(m)
        construction = build_w_n(m, 8, 2)
        assert construction.size == (2, 3003)
        assert construction.unique_representation
        assert containment_check(m, 1, 7, 2).contained
        with pytest.raises(CapExceededError, match="elimination columns: size 6006"):
            check_all(m, 8)
