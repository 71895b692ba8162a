"""Channel-matrix data model, parsing, and structural checks.

A channel document is JSON-compatible: it declares ``K``, the generator
names, an optional numeric valuation per generator, and a K x K grid of
polynomial expressions with exact rational coefficients, e.g.::

    {"K": 2,
     "generators": ["h12", "h21"],
     "valuation": {"h12": "1.25"},
     "entries": [["0", "h12"], ["2*h21", "3/4"]]}

An expression is a sum of terms such as ``-3/4 * g1^2 * g2``.  A term is its
signs (at least one on every term after the first), then one or more factors.
A factor is a number ``n`` or ``n/m``, or a generator name with an optional
``^`` power ``g^e``.  Two factors are joined by ``*``, by whitespace, or by
nothing where their boundary is plain (``2h12``).  Any other ``*``, as in
``h12**2`` or ``a*``, is refused.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .algebra import AlgebraElement
from .errors import ChannelFormatError

#: One factor: a name with an optional ``^`` power, or a rational number.
_FACTOR = r"([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(\d+))?|(\d+)(?:/(\d+))?"
#: One term: its signs, then factors joined by ``*``, whitespace or nothing.
#: A term ends only where no factor can follow, so every term after the first
#: starts with a sign.
_TERM = re.compile(
    rf"\s*(?P<signs>(?:[+-]\s*)*)"
    rf"(?P<factors>(?:{_FACTOR})(?:\s*(?:\*\s*)?(?:{_FACTOR}))*)\s*"
)
_FACTORS = re.compile(_FACTOR)


def parse_element(expr: str, generators: Sequence[str]) -> AlgebraElement:
    """Parse a polynomial expression over the given generator names.

    The terms are accumulated in one map, as ``AlgebraElement.__add__`` adds
    them one by one: a new monomial is appended, a repeated one updated in
    place, and one whose coefficient reaches zero deleted.  So the term order
    is that of the sequential sum, in time linear in the number of terms.
    """
    index = {name: i for i, name in enumerate(generators)}
    ngens = len(generators)
    terms: Dict[Tuple[int, ...], Fraction] = {}
    pos = 0
    while pos == 0 or pos < len(expr):
        m = _TERM.match(expr, pos)
        if m is None:
            raise ChannelFormatError(f"cannot parse {expr[pos:]!r} in {expr!r}")
        coeff = Fraction(-1 if m["signs"].count("-") % 2 else 1)
        exponents = [0] * ngens
        for name, exp, num, den in _FACTORS.findall(m["factors"]):
            if name:
                if name not in index:
                    raise ChannelFormatError(f"unknown generator {name!r} in {expr!r}")
                exponents[index[name]] += int(exp or 1)
            elif den and int(den) == 0:
                raise ChannelFormatError(f"zero denominator in {expr!r}")
            else:
                coeff *= Fraction(int(num), int(den or 1))
        mono = tuple(exponents)
        coeff += terms.get(mono, 0)
        if coeff:
            terms[mono] = coeff
        else:
            terms.pop(mono, None)
        pos = m.end()
    return AlgebraElement(ngens, terms)


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
        K, generators, grid = doc["K"], doc["generators"], doc["entries"]
    except KeyError as exc:
        raise ChannelFormatError(f"malformed channel document: missing {exc}") from exc
    if not isinstance(K, int):
        raise ChannelFormatError(f"K must be an integer, got {K!r}")
    if K < 2:
        raise ChannelFormatError(f"need K >= 2 users, got K={K}")
    if not (isinstance(generators, list)
            and all(isinstance(g, str) for g in generators)):
        raise ChannelFormatError(f"generators must be a list of names, got {generators!r}")
    if len(set(generators)) != len(generators):
        raise ChannelFormatError("duplicate generator names")
    if not (isinstance(grid, list) and len(grid) == K
            and all(isinstance(row, list) and len(row) == K for row in grid)):
        raise ChannelFormatError(f"entries must form a {K}x{K} grid")
    entries = tuple(
        tuple(parse_element(str(expr), generators) for expr in row) for row in grid
    )
    valuation = doc.get("valuation")
    if valuation is not None:
        if not isinstance(valuation, dict):
            raise ChannelFormatError(f"valuation must be an object, got {valuation!r}")
        valuation = dict(valuation)
        for name, value in valuation.items():
            if name not in generators:
                raise ChannelFormatError(f"valuation for unknown generator {name!r}")
            try:
                valuation[name] = float(value)
            except (TypeError, ValueError) as exc:
                raise ChannelFormatError(
                    f"valuation for {name!r} is not a number: {value!r}"
                ) from exc
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

    ``offdiag[i][j]`` supplies h_ij for i != j, a nonzero integer (a float
    or fraction with a fractional part is refused, not truncated); the
    diagonal positions of the input grid are ignored.
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
                value = offdiag[i][j]
                if value == 0 or value % 1:
                    raise ChannelFormatError(
                        f"off-diagonal entry h{i + 1}{j + 1} must be a "
                        f"nonzero integer, got {value!r}"
                    )
                row.append(AlgebraElement.constant(K, int(value)))
        rows.append(tuple(row))
    return ChannelMatrix(K, names, tuple(rows), diagonal_valuation)
