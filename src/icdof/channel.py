"""Channel-matrix data model, parsing, and structural checks.

A channel document is JSON-compatible: it declares ``K``, the generator
names, an optional numeric valuation per generator, and a K x K grid of
polynomial expressions with exact rational coefficients, e.g.::

    {"K": 2,
     "generators": ["h12", "h21"],
     "valuation": {"h12": "1.25"},
     "entries": [["0", "h12"], ["2*h21", "3/4"]]}

Expressions are sums of terms ``c * g1^e1 * g2^e2 ...``; the coefficient and
the ``*`` separators are optional where unambiguous.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .algebra import AlgebraElement
from .errors import ChannelFormatError

_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<caret>\^)|(?P<star>\*))"
)


def parse_element(expr: str, generators: Sequence[str]) -> AlgebraElement:
    """Parse a polynomial expression over the given generator names."""
    index = {name: i for i, name in enumerate(generators)}
    ngens = len(generators)
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if m is None or m.end() == pos:
            trailing = expr[pos:].strip()
            if not trailing:
                break
            raise ChannelFormatError(f"cannot tokenize {trailing!r} in {expr!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))

    result = AlgebraElement.zero(ngens)
    i = 0

    def parse_term(i: int) -> Tuple[AlgebraElement, int]:
        coeff = Fraction(1)
        exponents = [0] * ngens
        saw_factor = False
        expect_factor = True
        while i < len(tokens):
            kind, text = tokens[i]
            if kind == "sign" and not expect_factor:
                break
            if kind == "star":
                expect_factor = True
                i += 1
                continue
            if kind == "number":
                num, _, den = text.partition("/")
                if den and int(den) == 0:
                    raise ChannelFormatError(f"zero denominator in {expr!r}")
                coeff *= Fraction(int(num), int(den) if den else 1)
                saw_factor = True
                expect_factor = False
                i += 1
            elif kind == "name":
                if text not in index:
                    raise ChannelFormatError(f"unknown generator {text!r} in {expr!r}")
                exp = 1
                if i + 1 < len(tokens) and tokens[i + 1][0] == "caret":
                    if i + 2 >= len(tokens) or tokens[i + 2][0] != "number":
                        raise ChannelFormatError(f"malformed exponent in {expr!r}")
                    exp_text = tokens[i + 2][1]
                    if "/" in exp_text:
                        raise ChannelFormatError(f"non-integer exponent in {expr!r}")
                    exp = int(exp_text)
                    i += 2
                exponents[index[text]] += exp
                saw_factor = True
                expect_factor = False
                i += 1
            else:
                raise ChannelFormatError(f"unexpected token {text!r} in {expr!r}")
        if not saw_factor:
            raise ChannelFormatError(f"empty term in {expr!r}")
        return AlgebraElement(ngens, {tuple(exponents): coeff}), i

    sign = Fraction(1)
    saw_any = False
    pending_sign = False
    while i < len(tokens):
        kind, text = tokens[i]
        if kind == "sign":
            sign = -sign if text == "-" else sign
            pending_sign = True
            i += 1
            continue
        term, i = parse_term(i)
        result = result + term.scale(sign)
        sign = Fraction(1)
        pending_sign = False
        saw_any = True
    if not saw_any or pending_sign:
        raise ChannelFormatError(f"empty expression {expr!r}" if not saw_any
                                 else f"dangling sign in {expr!r}")
    return result


def format_element(element: AlgebraElement, generators: Sequence[str]) -> str:
    """Inverse of :func:`parse_element` (canonical term order)."""
    from .algebra import monomial_key

    if element.is_zero():
        return "0"
    parts: List[str] = []
    terms = element.terms
    for mono in sorted(terms, key=monomial_key):
        coeff = terms[mono]
        factors = []
        for name, e in zip(generators, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = f"{abs(coeff)}*" + "*".join(factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


@dataclass(frozen=True)
class ChannelMatrix:
    """K x K channel matrix with exact polynomial entries."""

    K: int
    generators: Tuple[str, ...]
    entries: Tuple[Tuple[AlgebraElement, ...], ...]
    valuation: Dict[str, float] | None = field(default=None)

    def entry(self, i: int, j: int) -> AlgebraElement:
        """Entry h_ij with 1-based receiver/transmitter indices."""
        return self.entries[i - 1][j - 1]

    def diagonal(self, i: int) -> AlgebraElement:
        return self.entry(i, i)

    def valuation_vector(self) -> List[float]:
        """Numeric values in generator order; requires a full valuation."""
        if self.valuation is None:
            raise ValueError("channel has no numeric valuation")
        missing = [g for g in self.generators if g not in self.valuation]
        if missing:
            raise ValueError(f"valuation missing generators: {missing}")
        return [self.valuation[g] for g in self.generators]


def fully_connected(matrix: ChannelMatrix) -> bool:
    """True iff every entry is a nonzero polynomial."""
    return all(not e.is_zero() for row in matrix.entries for e in row)


def off_diagonal(matrix: ChannelMatrix) -> List[AlgebraElement]:
    """The K(K-1) off-diagonal entries in row-major order."""
    return [
        matrix.entries[i][j]
        for i in range(matrix.K)
        for j in range(matrix.K)
        if i != j
    ]


def load_channel(doc: dict) -> ChannelMatrix:
    """Build a validated :class:`ChannelMatrix` from a parsed document."""
    if not isinstance(doc, dict):
        raise ChannelFormatError("channel document must be an object")
    try:
        K = int(doc["K"])
        generators = list(doc["generators"])
        grid = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ChannelFormatError(f"malformed channel document: {exc}") from exc
    if K < 2:
        raise ChannelFormatError(f"need K >= 2 users, got K={K}")
    if len(set(generators)) != len(generators):
        raise ChannelFormatError("duplicate generator names")
    if len(grid) != K or any(len(row) != K for row in grid):
        raise ChannelFormatError(f"entries must form a {K}x{K} grid")
    entries = tuple(
        tuple(parse_element(str(expr), generators) for expr in row) for row in grid
    )
    valuation = None
    if doc.get("valuation") is not None:
        valuation = {}
        for name, value in doc["valuation"].items():
            if name not in generators:
                raise ChannelFormatError(f"valuation for unknown generator {name!r}")
            valuation[name] = float(value)
    return ChannelMatrix(K, tuple(generators), entries, valuation)


def store_channel(matrix: ChannelMatrix) -> dict:
    """Serialize a matrix back to the channel document format."""
    doc = {
        "K": matrix.K,
        "generators": list(matrix.generators),
        "entries": [
            [format_element(e, matrix.generators) for e in row]
            for row in matrix.entries
        ],
    }
    if matrix.valuation is not None:
        doc["valuation"] = {g: repr(v) for g, v in matrix.valuation.items()}
    return doc


def load_channel_file(path) -> ChannelMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return load_channel(json.load(fh))


# -- programmatic builders used by the CLI and tests -----------------------


def generic_channel(K: int, valuation: Dict[str, float] | None = None) -> ChannelMatrix:
    """K x K matrix whose entries are K^2 distinct generators h{i}{j}."""
    names = [f"h{i}{j}" for i in range(1, K + 1) for j in range(1, K + 1)]
    ngens = len(names)
    entries = tuple(
        tuple(
            AlgebraElement.generator(ngens, (i - 1) * K + (j - 1))
            for j in range(1, K + 1)
        )
        for i in range(1, K + 1)
    )
    return ChannelMatrix(K, tuple(names), entries, valuation)


def rational_channel(values: Sequence[Sequence]) -> ChannelMatrix:
    """Matrix with purely rational entries (no generators)."""
    K = len(values)
    entries = tuple(
        tuple(AlgebraElement.constant(0, Fraction(v)) for v in row) for row in values
    )
    matrix = ChannelMatrix(K, (), entries, None)
    if K < 2:
        raise ChannelFormatError(f"need K >= 2 users, got K={K}")
    return matrix


def integer_offdiag_channel(
    offdiag: Sequence[Sequence[int]],
    diagonal_valuation: Dict[str, float] | None = None,
) -> ChannelMatrix:
    """Integer off-diagonal entries, distinct-generator (irrational) diagonals.

    ``offdiag[i][j]`` supplies h_ij for i != j; the diagonal positions of the
    input grid are ignored.
    """
    K = len(offdiag)
    names = tuple(f"h{i}{i}" for i in range(1, K + 1))
    rows = []
    for i in range(K):
        row = []
        for j in range(K):
            if i == j:
                row.append(AlgebraElement.generator(K, i))
            else:
                value = int(offdiag[i][j])
                if value == 0:
                    raise ChannelFormatError(
                        f"off-diagonal entry h{i + 1}{j + 1} must be nonzero"
                    )
                row.append(AlgebraElement.constant(K, value))
        rows.append(tuple(row))
    return ChannelMatrix(K, names, tuple(rows), diagonal_valuation)
