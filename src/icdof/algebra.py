"""Exact sparse multivariate polynomial arithmetic over named generators.

A monomial is an exponent tuple (one non-negative int per generator); an
:class:`AlgebraElement` maps monomials to nonzero ``Fraction`` coefficients.
The representation is canonical (no zero coefficients stored), so equality
and hashing agree with mathematical equality, which lets elements key exact
convolution dictionaries downstream.

All arithmetic is exact; floating point only enters through
:meth:`AlgebraElement.evaluate`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import CapExceededError

Monomial = Tuple[int, ...]

#: Default cap on monomial enumerations (see :func:`enumerate_monomials`).
DEFAULT_MONOMIAL_CAP = 10**6


def monomial_degree(mono: Monomial) -> int:
    """Total degree: the sum of all exponents."""
    return sum(mono)


def monomial_key(mono: Monomial) -> Tuple[int, Monomial]:
    """Sort key for the graded lexicographic order (degree, then lex)."""
    return (sum(mono), mono)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_count(m: int, d: int) -> int:
    """Number of monomials in ``m`` variables of total degree <= ``d``.

    Equals C(m + d, d); the constant monomial is included.
    """
    if m < 1:
        raise ValueError(f"need at least one variable, got m={m}")
    if d < 0:
        raise ValueError(f"degree bound must be non-negative, got d={d}")
    return math.comb(m + d, d)


def _monomials_of_degree(m: int, deg: int) -> Iterable[Monomial]:
    if m == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in _monomials_of_degree(m - 1, deg - first):
            yield (first,) + rest


def enumerate_monomials(
    m: int, d: int, max_count: int = DEFAULT_MONOMIAL_CAP
) -> list[Monomial]:
    """All monomials in ``m`` variables of degree <= ``d``, graded-lex sorted.

    The constant monomial comes first, and the list for degree ``d`` is a
    prefix of the list for ``d + 1`` (degrees are enumerated in order, each
    degree internally in lexicographic order).
    """
    total = monomial_count(m, d)
    if total > max_count:
        raise CapExceededError("monomial enumeration", total, max_count)
    out: list[Monomial] = []
    for deg in range(d + 1):
        out.extend(_monomials_of_degree(m, deg))
    return out


def distinct_single_terms(
    values: Iterable["AlgebraElement"],
) -> list[Tuple[Monomial, Fraction]] | None:
    """``[(monomial, coeff), ...]`` of the values, or None.

    Not None exactly when every value has one term and the monomials are
    pairwise distinct.  Such a family is linearly independent over Q
    (distinct monomials are), and each value's coefficient on a combination
    is read back from its own monomial alone.
    """
    terms = []
    seen = set()
    for value in values:
        term = value.single_term()
        if term is None or term[0] in seen:
            return None
        seen.add(term[0])
        terms.append(term)
    return terms


class AlgebraElement:
    """Element of the polynomial algebra over a fixed number of generators.

    Immutable and hashable; zero is the empty term map.
    """

    __slots__ = ("ngens", "_terms", "_hash")

    def __init__(self, ngens: int, terms: Mapping[Monomial, Fraction] | None = None):
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    if len(mono) != ngens:
                        raise ValueError(
                            f"monomial {mono} has {len(mono)} exponents, "
                            f"expected {ngens}"
                        )
                    clean[tuple(mono)] = coeff
        object.__setattr__(self, "ngens", ngens)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", hash((ngens, frozenset(clean.items()))))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ngens: int) -> "AlgebraElement":
        return cls(ngens)

    @classmethod
    def constant(cls, ngens: int, value) -> "AlgebraElement":
        return cls(ngens, {(0,) * ngens: Fraction(value)})

    @classmethod
    def generator(cls, ngens: int, index: int) -> "AlgebraElement":
        if not 0 <= index < ngens:
            raise ValueError(f"generator index {index} out of range for {ngens}")
        exps = [0] * ngens
        exps[index] = 1
        return cls(ngens, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, exponents: Monomial, coeff=1) -> "AlgebraElement":
        return cls(len(exponents), {tuple(exponents): Fraction(coeff)})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, Fraction]:
        """Copy of the term map (monomial -> coefficient)."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(monomial_degree(m) == 0 for m in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant element (zero allowed)."""
        if not self.is_constant():
            raise ValueError(f"{self!r} is not constant")
        return next(iter(self._terms.values()), Fraction(0))

    def single_term(self) -> Tuple[Monomial, Fraction] | None:
        """The (monomial, coefficient) pair if this has exactly one term."""
        if len(self._terms) == 1:
            return next(iter(self._terms.items()))
        return None

    def degree(self) -> int:
        """Total degree (0 for the zero element)."""
        if not self._terms:
            return 0
        return max(monomial_degree(m) for m in self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "AlgebraElement") -> None:
        if self.ngens != other.ngens:
            raise ValueError(
                f"generator-set mismatch: {self.ngens} vs {other.ngens}"
            )

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_compatible(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = coeff
            else:
                s = s + coeff
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return AlgebraElement(self.ngens, out)

    def __neg__(self):
        return AlgebraElement(
            self.ngens, {m: -c for m, c in self._terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "AlgebraElement":
        """Multiply by a rational scalar."""
        factor = Fraction(factor)
        if not factor:
            return AlgebraElement.zero(self.ngens)
        return AlgebraElement(
            self.ngens, {m: c * factor for m, c in self._terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_compatible(other)
        out: Dict[Monomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = monomial_mul(ma, mb)
                s = out.get(mono)
                out[mono] = ca * cb if s is None else s + ca * cb
        return AlgebraElement(self.ngens, out)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative powers are not defined here")
        result = AlgebraElement.constant(self.ngens, 1)
        for _ in range(exp):
            result = result * self
        return result

    # -- numerics ----------------------------------------------------------

    def evaluate(self, values: Sequence[float]) -> float:
        """Evaluate at a numeric point, one value per generator."""
        if len(values) != self.ngens:
            raise ValueError(
                f"got {len(values)} generator values, expected {self.ngens}"
            )
        total = 0.0
        for mono, coeff in self._terms.items():
            prod = float(coeff)
            for v, e in zip(values, mono):
                if e:
                    prod *= v**e
            total += prod
        return total

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.ngens == other.ngens
            and self._terms == other._terms
        )

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        if not self._terms:
            return "<0>"
        parts = []
        for mono in sorted(self._terms, key=monomial_key):
            coeff = self._terms[mono]
            factors = [
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(mono)
                if e
            ]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return "<" + " + ".join(parts) + ">"
