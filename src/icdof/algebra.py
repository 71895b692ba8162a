"""Exact sparse multivariate polynomial arithmetic over named generators.

A monomial is an exponent tuple (one non-negative int per generator); an
:class:`AlgebraElement` maps monomials to nonzero rational coefficients,
each an ``int`` when its value is integral and a ``Fraction`` otherwise.
The representation is canonical in value (no zero coefficients stored, and
Python's ``int`` and ``Fraction`` compare and hash equal on equal values),
so equality and hashing agree with mathematical equality, which lets
elements key exact convolution dictionaries downstream.

All arithmetic is exact; floating point only enters through
:meth:`AlgebraElement.evaluate`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Dict, Mapping, Sequence, Tuple, Union

from .errors import CapExceededError

Monomial = Tuple[int, ...]
Rational = Union[int, Fraction]

#: Cap on monomial counts, checked before anything is built from them.  It
#: was sized by ``check_all`` on generic K=3 at d=16 (74,613 monomials)
#: with every family built (the Jacobian certificate switched off), which
#: takes 2.0-2.1 s and 110 MB peak RSS with integer coefficients, and
#: 3.4 s and 126 MB with every entry 3/2 times its generator (2 vCPUs,
#: Python 3.11.7).  It guards only what is built from the monomials: a channel
#: certified by its Jacobian builds none, and its verdicts, W_N sizes and
#: bounds count phi uncapped, with |W_N| kept as the pair (N, phi), never as
#: N**phi, so ``build`` meets the cap only for an uncertified or colliding
#: basis.  ``containment_check`` alone still writes ((K-1)N)**phi(d+1) out,
#: so it keeps the cap.
DEFAULT_MONOMIAL_CAP = 10**5


def monomial_degree(mono: Monomial) -> int:
    """Total degree: the sum of all exponents."""
    return sum(mono)


def monomial_key(mono: Monomial) -> Tuple[int, Monomial]:
    """Sort key for the graded lexicographic order (degree, then lex)."""
    return (sum(mono), mono)


def monomial_count(m: int, d: int) -> int:
    """Number of monomials in ``m`` variables of total degree <= ``d``.

    Equals C(m + d, d); the constant monomial is included.
    """
    if m < 1:
        raise ValueError(f"need at least one variable, got m={m}")
    if d < 0:
        raise ValueError(f"degree bound must be non-negative, got d={d}")
    return math.comb(m + d, d)


def capped_monomial_count(m: int, d: int) -> int:
    """:func:`monomial_count`, refused past ``DEFAULT_MONOMIAL_CAP`` before
    any monomial, or anything indexed by one, is built."""
    total = monomial_count(m, d)
    if total > DEFAULT_MONOMIAL_CAP:
        raise CapExceededError("monomial enumeration", total, DEFAULT_MONOMIAL_CAP)
    return total


def enumerate_monomials(m: int, d: int) -> list[Monomial]:
    """All monomials in ``m`` variables of degree <= ``d``, graded-lex sorted.

    The constant monomial comes first, and the list for degree ``d`` is a
    prefix of the list for ``d + 1`` (degrees are enumerated in order, each
    degree internally in lexicographic order).  More than
    ``DEFAULT_MONOMIAL_CAP`` monomials are refused before any is built.

    The lists are built from the last variable forwards: the degree-s
    monomials in one more variable are each first exponent, ascending,
    followed by every degree-(s - first) tail in its lexicographic order.
    """
    capped_monomial_count(m, d)
    tails = [[(s,)] for s in range(d + 1)]
    for _ in range(m - 1):
        tails = [[(first,) + rest
                  for first in range(s + 1) for rest in tails[s - first]]
                 for s in range(d + 1)]
    return [mono for level in tails for mono in level]


def _exact(value):
    """A rational value as an ``int`` when it is integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def terms_product(
    a: Mapping[Monomial, Rational], b: Mapping[Monomial, Rational]
) -> Dict[Monomial, Rational]:
    """The term map of the product of two canonical term maps, canonical too.

    A single-term factor shifts every monomial of the other by the same
    exponent vector, which is injective, so no two products meet and none
    cancels: the product of nonzero rationals is nonzero.  Otherwise equal
    monomials are summed and the cancelled ones dropped.
    """
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((mb, cb),) = b.items()
        if len(a) == 1:
            ((ma, ca),) = a.items()
            c = ca if cb == 1 else _exact(ca * cb)
            return {tuple(map(add, ma, mb)): c}
        return {tuple(map(add, ma, mb)): _exact(ca * cb) for ma, ca in a.items()}
    out: Dict[Monomial, Rational] = {}
    get = out.get
    others = b.items()
    for ma, ca in a.items():
        for mb, cb in others:
            mono = tuple(map(add, ma, mb))
            s = get(mono)
            out[mono] = ca * cb if s is None else s + ca * cb
    return {m: _exact(c) for m, c in out.items() if c}


class AlgebraElement:
    """Element of the polynomial algebra over a fixed number of generators.

    Immutable and hashable; zero is the empty term map.  A coefficient is
    stored as an ``int`` when its value is integral and as a ``Fraction``
    otherwise, so integer arithmetic never leaves Python ints.  Equality and
    hashing are by value: ``2 == Fraction(2)`` and the two hash equal, so an
    element compares and hashes the same whichever type its coefficients
    were given in.  The hash is computed on first use.
    """

    __slots__ = ("ngens", "_terms", "_hash")

    def __init__(self, ngens: int, terms: Mapping[Monomial, Rational] | None = None):
        clean: Dict[Monomial, Rational] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff:
                    if len(mono) != ngens:
                        raise ValueError(
                            f"monomial {mono} has {len(mono)} exponents, "
                            f"expected {ngens}"
                        )
                    clean[tuple(mono)] = coeff
        object.__setattr__(self, "ngens", ngens)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, ngens: int, terms: Dict[Monomial, Rational]) -> "AlgebraElement":
        """An element that owns ``terms``, which the caller has already made
        canonical: no zero, every integral value an ``int``."""
        self = object.__new__(cls)
        object.__setattr__(self, "ngens", ngens)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ngens: int) -> "AlgebraElement":
        return cls._of(ngens, {})

    @classmethod
    def constant(cls, ngens: int, value) -> "AlgebraElement":
        return cls(ngens, {(0,) * ngens: value})

    @classmethod
    def generator(cls, ngens: int, index: int) -> "AlgebraElement":
        if not 0 <= index < ngens:
            raise ValueError(f"generator index {index} out of range for {ngens}")
        exps = [0] * ngens
        exps[index] = 1
        return cls._of(ngens, {tuple(exps): 1})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, Rational]:
        """Copy of the term map (monomial -> coefficient): an ``int`` where
        the coefficient is integral, a ``Fraction`` elsewhere."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(monomial_degree(m) == 0 for m in self._terms)

    def constant_value(self) -> Rational:
        """The value of a constant element (zero allowed)."""
        if not self.is_constant():
            raise ValueError(f"{self!r} is not constant")
        return next(iter(self._terms.values()), 0)

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
                s = _exact(s + coeff)
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return AlgebraElement._of(self.ngens, out)

    def __neg__(self):
        return AlgebraElement._of(
            self.ngens, {m: -c for m, c in self._terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "AlgebraElement":
        """Multiply by a rational scalar."""
        factor = _exact(factor)
        if not factor:
            return AlgebraElement.zero(self.ngens)
        return AlgebraElement._of(
            self.ngens, {m: _exact(c * factor) for m, c in self._terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._check_compatible(other)
        return AlgebraElement._of(
            self.ngens, terms_product(self._terms, other._terms)
        )

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
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.ngens, frozenset(self._terms.items())))
            )
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
