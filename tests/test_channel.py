import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icdof.algebra import AlgebraElement
from icdof.channel import (
    ChannelMatrix,
    format_element,
    fully_connected,
    generic_channel,
    load_channel,
    load_channel_file,
    off_diagonal,
    parse_element,
    rational_channel,
    integer_offdiag_channel,
    store_channel,
)
from icdof.errors import ChannelFormatError

GENS = ("a", "b", "c")


class TestParseElement:
    def test_constant(self):
        e = parse_element("3/4", GENS)
        assert e.constant_value() == Fraction(3, 4)

    def test_bare_generator(self):
        e = parse_element("b", GENS)
        assert e == AlgebraElement.generator(3, 1)

    def test_full_term(self):
        e = parse_element("2 * a^2 * c", GENS)
        assert e.terms == {(2, 0, 1): Fraction(2)}

    def test_implicit_star(self):
        assert parse_element("2 a b", GENS) == parse_element("2*a*b", GENS)

    def test_signs_and_sums(self):
        e = parse_element("a - 1/2*b + 3", GENS)
        assert e.terms == {
            (1, 0, 0): Fraction(1),
            (0, 1, 0): Fraction(-1, 2),
            (0, 0, 0): Fraction(3),
        }

    def test_leading_minus(self):
        assert parse_element("-a", GENS) == -parse_element("a", GENS)

    def test_double_sign(self):
        assert parse_element("- -a", GENS) == parse_element("a", GENS)

    def test_repeated_generator_merges_exponents(self):
        assert parse_element("a*a", GENS) == parse_element("a^2", GENS)

    def test_cancelling_sum_is_zero(self):
        assert parse_element("a - a", GENS).is_zero()

    @pytest.mark.parametrize("bad", ["", "  ", "a +", "a ^ b", "q", "a^1/2", "2?",
                                     "1/0*x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ChannelFormatError):
            parse_element(bad, GENS)


NAMES = ("a", "b", "h12")
SIGN = st.sampled_from(["+", "-", "+ ", "- "])
FACTOR = st.one_of(
    st.tuples(st.integers(0, 60), st.none() | st.integers(1, 60)),
    st.tuples(st.sampled_from(NAMES), st.none() | st.integers(0, 6),
              st.sampled_from(["^", " ^ "])),
)
BETWEEN = st.sampled_from(["*", " * ", "* ", " ", "\t"])


@st.composite
def expressions(draw):
    """An expression and the element it denotes, built from the same terms."""
    text, element = "", AlgebraElement.zero(len(NAMES))
    for i in range(draw(st.integers(1, 4))):
        signs = draw(st.lists(SIGN, min_size=0 if i == 0 else 1, max_size=3))
        coeff = Fraction(-1 if "".join(signs).count("-") % 2 else 1)
        exponents = [0] * len(NAMES)
        factors = []
        for factor in draw(st.lists(FACTOR, min_size=1, max_size=4)):
            if len(factor) == 2:
                num, den = factor
                coeff *= Fraction(num, den or 1)
                factors.append(str(num) if den is None else f"{num}/{den}")
            else:
                name, exp, caret = factor
                exponents[NAMES.index(name)] += 1 if exp is None else exp
                factors.append(name if exp is None else f"{name}{caret}{exp}")
        body = factors[0] + "".join(draw(BETWEEN) + f for f in factors[1:])
        text += (" " if i else "") + "".join(signs) + body
        element = element + AlgebraElement(len(NAMES), {tuple(exponents): coeff})
    return text, element


class TestGrammar:
    @settings(max_examples=400, deadline=None)
    @given(expressions())
    def test_reads_the_terms_it_was_built_from(self, case):
        text, element = case
        parsed = parse_element(text, NAMES)
        assert parsed == element
        assert list(parsed.terms) == list(element.terms)

    def test_long_expression_keeps_the_sequential_term_order(self):
        # 2,000 terms over 40 monomials; about a third cancel a monomial's
        # running coefficient, which the next term on it brings back at the end
        rng = random.Random(7)
        running = {}
        text, element = [], AlgebraElement.zero(len(NAMES))
        for _ in range(2000):
            mono = (rng.randrange(4), rng.randrange(5), rng.randrange(2))
            if running.get(mono) and rng.random() < 0.35:
                coeff = -running[mono]
            else:
                coeff = Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
            running[mono] = running.get(mono, 0) + coeff
            factors = [f"{abs(coeff.numerator)}/{coeff.denominator}"] + [
                f"{name}^{e}" for name, e in zip(NAMES, mono)
            ]
            text.append(("-" if coeff < 0 else "+") + " " + "*".join(factors))
            element = element + AlgebraElement(len(NAMES), {mono: coeff})
        parsed = parse_element(" ".join(text), NAMES)
        assert parsed == element
        assert list(parsed.terms.items()) == list(element.terms.items())

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * len(NAMES)),
        st.fractions(min_value=-50, max_value=50, max_denominator=60),
        max_size=6,
    ))
    def test_format_round_trip(self, terms):
        element = AlgebraElement(len(NAMES), terms)
        assert parse_element(format_element(element, NAMES), NAMES) == element

    @pytest.mark.parametrize("bad", ["h12**2", "*a", "a*", "a* *b", "3+*1", "a*b*"])
    def test_refuses_stray_star(self, bad):
        with pytest.raises(ChannelFormatError):
            parse_element(bad, NAMES)


class TestFormatElement:
    @pytest.mark.parametrize(
        "expr",
        ["0", "1", "-3/4", "a", "2*b^3", "a - 1/2*b + 3", "a*b*c", "-a + b"],
    )
    def test_round_trip(self, expr):
        e = parse_element(expr, GENS)
        assert parse_element(format_element(e, GENS), GENS) == e

    def test_canonical_order(self):
        e = parse_element("c + a^2 + b", GENS)
        assert format_element(e, GENS) == "c + b + a^2"


#: A document over one-letter generators, so that a string or a float in
#: the wrong place would still read as a channel if it were not refused.
MISREAD_BASE = {"K": 2, "generators": ["a", "b", "c", "d"],
                "entries": [["a", "b"], ["c", "d"]]}
MISREAD = [
    pytest.param({"generators": "abcd"}, "generators must be a list",
                 id="generators-string"),
    pytest.param({"entries": ["ab", "cd"]}, "2x2 grid", id="entries-strings"),
    pytest.param({"K": 2.9}, "K must be an integer", id="K-float"),
    pytest.param({"valuation": [1, 2]}, "valuation must be an object",
                 id="valuation-list"),
    pytest.param({"entries": 5}, "2x2 grid", id="entries-number"),
    pytest.param({"valuation": {"a": "x"}}, "valuation for 'a' is not a number",
                 id="valuation-value"),
]


class TestLoadStore:
    DOC = {
        "K": 2,
        "generators": ["h12", "h21"],
        "valuation": {"h12": "1.25", "h21": 2.5},
        "entries": [["1", "h12"], ["2*h21", "3/4"]],
    }

    def test_load(self):
        m = load_channel(self.DOC)
        assert m.K == 2
        assert m.entry(1, 2) == AlgebraElement.generator(2, 0)
        assert m.entry(2, 2).constant_value() == Fraction(3, 4)
        assert m.valuation_vector() == [1.25, 2.5]

    def test_store_round_trip(self):
        m = load_channel(self.DOC)
        again = load_channel(store_channel(m))
        assert again.entries == m.entries
        assert again.valuation_vector() == m.valuation_vector()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(store_channel(load_channel(self.DOC))))
        assert load_channel_file(path).entries == load_channel(self.DOC).entries

    @pytest.mark.parametrize(
        "mutation",
        [
            {"K": 1},
            {"generators": ["h12", "h12"]},
            {"entries": [["1", "h12"]]},
            {"entries": [["1"], ["2*h21", "3/4"]]},
            {"valuation": {"nope": 1.0}},
            {"entries": [["1", "zzz"], ["h21", "1"]]},
        ],
    )
    def test_rejects_malformed_documents(self, mutation):
        doc = dict(self.DOC)
        doc.update(mutation)
        with pytest.raises(ChannelFormatError):
            load_channel(doc)

    @pytest.mark.parametrize("mutation, message", MISREAD)
    def test_refuses_misread_documents(self, mutation, message):
        doc = dict(MISREAD_BASE, **mutation)
        with pytest.raises(ChannelFormatError, match=message):
            load_channel(doc)

    def test_rejects_non_object(self):
        with pytest.raises(ChannelFormatError):
            load_channel([1, 2])

    def test_missing_valuation_entry(self):
        doc = dict(self.DOC)
        doc["valuation"] = {"h12": 1.25}
        with pytest.raises(ValueError):
            load_channel(doc).valuation_vector()


class TestStructure:
    def test_off_diagonal_order(self):
        m = generic_channel(3)
        names = [
            next(iter(e.terms)) for e in off_diagonal(m)
        ]
        # row-major: (1,2) (1,3) (2,1) (2,3) (3,1) (3,2)
        expected = [
            m.entry(i, j)
            for i, j in [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        ]
        assert off_diagonal(m) == expected
        assert len(names) == 6

    def test_fully_connected(self):
        assert fully_connected(generic_channel(4))
        m = rational_channel([[1, 0], [2, 3]])
        assert not fully_connected(m)

    def test_generic_channel_generator_names(self):
        m = generic_channel(2)
        assert m.generators == ("h11", "h12", "h21", "h22")
        assert m.diagonal(2) == AlgebraElement.generator(4, 3)

    def test_rational_channel(self):
        m = rational_channel([[1, "1/2"], [-2, 3]])
        assert m.generators == ()
        assert m.entry(1, 2).constant_value() == Fraction(1, 2)
        with pytest.raises(ChannelFormatError):
            rational_channel([[1]])

    def test_integer_offdiag_channel(self):
        m = integer_offdiag_channel([[0, 1, -1], [2, 0, 1], [1, 1, 0]])
        assert m.generators == ("h11", "h22", "h33")
        assert m.diagonal(1) == AlgebraElement.generator(3, 0)
        assert m.entry(2, 1).constant_value() == 2
        with pytest.raises(ChannelFormatError):
            integer_offdiag_channel([[0, 0], [1, 0]])

    @pytest.mark.parametrize("offdiag,name", [
        ([[0, 2.7], [1, 0]], "h12"), ([[0, 2], [1.5, 0]], "h21"),
        ([[0, 2], [Fraction(3, 2), 0]], "h21"), ([[0, float("nan")], [1, 0]], "h12")])
    def test_integer_offdiag_channel_refuses_non_integers(self, offdiag, name):
        # refused, not truncated; an integral float is still an integer
        with pytest.raises(ChannelFormatError, match=f"{name} must be a nonzero integer"):
            integer_offdiag_channel(offdiag)
        m = integer_offdiag_channel([[0, 2.0], [Fraction(-3), 0]])
        assert [m.entry(1, 2).constant_value(), m.entry(2, 1).constant_value()] == [2, -3]

    def test_matrix_is_frozen(self):
        m = generic_channel(2)
        with pytest.raises(AttributeError):
            m.K = 3
