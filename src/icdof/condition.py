"""Rational-independence checker for the per-receiver monomial family.

For receiver i and degree cutoff d the checked family is

    [f_1(h), ..., f_phi(h),  h_ii f_1(h), ..., h_ii f_phi(h)]

where f_1, f_2, ... enumerate the monomials of degree <= d in the K(K-1)
off-diagonal entries and phi = C(K(K-1) + d, d).

:func:`check_all` is the one place the condition is decided, for every
receiver or for the ones asked for, and :func:`require_independent` is the
gate over it.  The family only grows with d, so a pass at d is a pass at
every lower degree.  A receiver that :func:`jacobian_certifies` is
independent at every degree, and its family is never built.  Any other is
checked at the given degree.  The family is expanded into exact polynomials
in the channel generators, built as plain term maps
(``algebra.terms_product``) and handed to ``linalg.eliminate_columns`` as
the sparse coefficient columns whose rank decides independence over the
rationals.  The eliminator owns the elimination cap and the single-entry
rule: a single-term channel's family is decided from its monomials alone,
its rank the number of distinct ones.  A product of multi-term entries is
not expanded for a family past that cap: phi(d) columns for the basis
values alone, 2 phi(d) for a receiver's family.  A failed check returns an
explicit integer certificate that substitutes back to the exact zero
polynomial; the substitution builds only the family values the certificate
weighs.  An "independent" verdict from the check is certified only up to
the tested degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Dict, List, Sequence, Tuple

from .algebra import (
    AlgebraElement, Rational, enumerate_monomials, monomial_count, terms_product
)
from .channel import ChannelMatrix, off_diagonal
from .errors import CapExceededError, ConditionNotSatisfiedError
from . import linalg


def _gradient(entry: AlgebraElement) -> Dict[int, Rational]:
    """{k: d entry / d x_k} at the point x_k = k + 2, from the term map.

    The term c x^m contributes c m_k x^m / x_k to the k-th partial; x^m is
    an integer at this point and x_k divides it whenever m_k > 0.
    """
    grad: Dict[int, Rational] = {}
    for mono, coeff in entry.terms.items():
        support = [(k, e) for k, e in enumerate(mono) if e]
        value = prod((k + 2) ** e for k, e in support)
        for k, e in support:
            partial = coeff * (e * value // (k + 2))
            grad[k] = grad[k] + partial if k in grad else partial
    return {k: v for k, v in grad.items() if v}


def jacobian_certifies(
    matrix: ChannelMatrix,
    receiver: int | None = None,
    gradients: List[Dict[int, Rational]] | None = None,
) -> bool:
    """True only if the off-diagonal entries, and h_ii when ``receiver`` is
    i, are algebraically independent over Q: their Jacobian at the rational
    point x_k = k + 2 has full rank (by ``linalg.eliminate_columns``; a
    generic channel's columns are single entries on distinct keys, so the
    single-entry rule decides them with no reduction).

    A relation P(entries) = 0 of least degree makes, by the chain rule, the
    gradients dependent over Q(x) with the coefficients dP/dy(entries), not
    all zero in characteristic 0, so the rank at any point is below full.
    Distinct monomials in independent elements are linearly independent, so
    a full rank proves condition (*) at every degree (without h_ii: the
    basis values).  False means only "not certified" (h_ii may be algebraic
    but not rational over the entries), as does a Jacobian with fewer
    nonzero rows than columns or past the elimination cap (K >= 64).
    ``gradients`` are the off-diagonal entries' columns when the caller
    already has them; they are read, not changed.
    """
    if gradients is None:
        gradients = [_gradient(entry) for entry in off_diagonal(matrix)]
    columns = list(gradients)
    if receiver is not None:
        columns.append(_gradient(matrix.diagonal(receiver)))
    if len(set().union(*columns)) < len(columns):
        return False
    try:
        return linalg.eliminate_columns(columns)[0] == len(columns)
    except CapExceededError:
        return False


def basis_values(matrix: ChannelMatrix, d: int) -> List[AlgebraElement]:
    """The values f_1(h), ..., f_phi(h) as exact polynomials in the generators.

    Unless every entry is a single term, the values will need elimination,
    so the elimination cap is checked before any product is expanded.

    Each value is one product of term maps: its graded predecessor (the
    monomial with its last nonzero exponent lowered by one, which has degree
    one less and so comes earlier in graded order) times that entry.
    Arithmetic is exact, so this equals the product of powers.
    """
    ngens = len(matrix.generators)
    return [AlgebraElement._of(ngens, terms) for terms in _basis_terms(matrix, d)]


def _basis_terms(matrix: ChannelMatrix, d: int) -> List[Dict]:
    """:func:`basis_values` as term maps, for the callers that eliminate them.

    The cap counts the phi columns built here, which is what
    :func:`basis_independent` eliminates; :func:`check_all`, which
    eliminates 2 phi, checks those before it calls this.
    """
    nvars = matrix.K * (matrix.K - 1)
    check_h = [entry._terms for entry in off_diagonal(matrix)]
    if any(len(entry) != 1 for entry in check_h):
        linalg.check_columns(monomial_count(nvars, d))
    monomials = enumerate_monomials(nvars, d)
    position = {mono: k for k, mono in enumerate(monomials)}
    values = [{(0,) * len(matrix.generators): 1}]
    for mono in monomials[1:]:
        last = nvars - 1
        while not mono[last]:
            last -= 1
        predecessor = mono[:last] + (mono[last] - 1,) + mono[last + 1:]
        values.append(terms_product(values[position[predecessor]], check_h[last]))
    return values


def basis_independent(
    matrix: ChannelMatrix,
    d: int,
    basis: Callable[[], Sequence[AlgebraElement]] | None = None,
) -> bool:
    """Whether the degree-<=d basis values are independent over Q, so that
    |W_N| = N^phi(d): at once when :func:`jacobian_certifies` the
    off-diagonal entries (distinct monomials in algebraically independent
    elements are linearly independent), else by the rank of the values of
    :func:`basis_values` at ``d``.  ``basis``, when given, is called for
    those values instead, and only when the certificate fails, so a caller
    that keeps them builds them once and a certified one not at all.
    """
    if jacobian_certifies(matrix):
        return True
    values = basis_values(matrix, d) if basis is None else basis()
    return linalg.eliminate_columns([f._terms for f in values])[1] is None


def monomial_values(
    matrix: ChannelMatrix, d: int, receiver: int
) -> List[AlgebraElement]:
    """The length-2*phi(d) family for one receiver (1-based index)."""
    require_receiver(matrix, receiver)
    ngens = len(matrix.generators)
    family = _receiver_family(
        matrix.diagonal(receiver)._terms, _basis_terms(matrix, d))
    return [AlgebraElement._of(ngens, terms) for terms in family]


def require_receiver(matrix: ChannelMatrix, receiver: int) -> None:
    """Refuse a receiver index outside 1..K."""
    if not 1 <= receiver <= matrix.K:
        raise ValueError(f"receiver {receiver} out of range 1..{matrix.K}")


def _receiver_family(h_ii: Dict, basis: List[Dict]) -> List[Dict]:
    """The family as term maps: the basis values, then ``h_ii`` times each."""
    return basis + [terms_product(h_ii, f) for f in basis]


@dataclass(frozen=True)
class DependenceCertificate:
    """Integer coefficients witnessing a rational dependence.

    ``sum(a_j * f_j(h)) + sum(b_j * h_ii * f_j(h)) == 0`` exactly.
    """

    receiver: int
    degree: int
    a: Tuple[int, ...]
    b: Tuple[int, ...]

    def substitute(self, matrix: ChannelMatrix) -> AlgebraElement:
        """sum_j (a_j + b_j h_ii) f_j(h), exactly, over the j with a nonzero
        coefficient; each such f_j is the product of powers of its own
        exponent vector, and no other family value is built.  Refuses an
        ``a`` or ``b`` whose length is not phi(degree).
        """
        require_receiver(matrix, self.receiver)
        nvars = matrix.K * (matrix.K - 1)
        phi = monomial_count(nvars, self.degree)
        if len(self.a) != phi or len(self.b) != phi:
            raise ValueError(
                f"certificate has {len(self.a)} a and {len(self.b)} b "
                f"coefficients; phi({self.degree}) = {phi} each are needed"
            )
        entries = [entry._terms for entry in off_diagonal(matrix)]
        h_ii = matrix.diagonal(self.receiver)
        ngens = len(matrix.generators)
        one = (0,) * ngens
        total = AlgebraElement.zero(ngens)
        monomials = enumerate_monomials(nvars, self.degree)
        for mono, a_j, b_j in zip(monomials, self.a, self.b):
            if not (a_j or b_j):
                continue
            f_j = {one: 1}
            for entry, exp in zip(entries, mono):
                for _ in range(exp):
                    f_j = terms_product(f_j, entry)
            weight = AlgebraElement.constant(ngens, a_j) + h_ii.scale(b_j)
            total = total + AlgebraElement._of(
                ngens, terms_product(weight._terms, f_j))
        return total

    def is_valid(self, matrix: ChannelMatrix) -> bool:
        return self.substitute(matrix).is_zero() and (any(self.a) or any(self.b))


@dataclass(frozen=True)
class ReceiverVerdict:
    receiver: int
    degree: int
    independent: bool
    rank: int
    family_size: int
    certificate: DependenceCertificate | None = None


@dataclass(frozen=True)
class ConditionReport:
    degree: int
    verdicts: Tuple[ReceiverVerdict, ...]

    @property
    def independent(self) -> bool:
        return all(v.independent for v in self.verdicts)


def check_all(
    matrix: ChannelMatrix, d: int, receivers: Sequence[int] | None = None
) -> ConditionReport:
    """Decide condition (*) up to degree ``d`` at each of ``receivers``
    (1-based, in the order given; every receiver when None).

    Each receiver is range-checked before any work.  The off-diagonal
    gradients are taken once.  A receiver that :func:`jacobian_certifies`
    is independent at every degree: its verdict counts phi(d), at any
    degree, with no family built.  The basis values are built once, and
    only when a requested receiver is left uncertified; then the
    family's 2 phi(d) columns are checked against the elimination cap before any
    product of multi-term entries is expanded.  The check sends the
    family's term maps to ``linalg.eliminate_columns``, with h_ii replaced
    by D h_ii, D the lcm of h_ii's coefficient denominators, so that its
    products with integer basis values multiply ints.  Scaling the h_ii
    half by D > 0 keeps the rank, and maps a kernel (a, b) of the scaled
    family to the kernel (a, D b) of the true one; the first dependence's
    kernel is one-dimensional, so ``linalg._coprime`` of (a, D b) is the
    certificate, and it equals the kernel vector of the tests' dense
    Bareiss reference on the family :func:`monomial_values` returns.
    """
    receivers = range(1, matrix.K + 1) if receivers is None else receivers
    for i in receivers:
        require_receiver(matrix, i)
    entries = off_diagonal(matrix)
    off = [_gradient(entry) for entry in entries]
    certified = [jacobian_certifies(matrix, i, off) for i in receivers]
    phi = monomial_count(matrix.K * (matrix.K - 1), d)
    basis = None
    if not all(certified):
        if any(len(entry._terms) != 1 for entry in entries):
            linalg.check_columns(2 * phi)
        basis = _basis_terms(matrix, d)
    verdicts = []
    for i, ok in zip(receivers, certified):
        if ok:
            verdicts.append(ReceiverVerdict(i, d, True, 2 * phi, 2 * phi))
            continue
        h_ii, scale = linalg.integer_column(matrix.diagonal(i)._terms)
        rank, kernel = linalg.eliminate_columns(_receiver_family(h_ii, basis))
        if kernel is not None and scale != 1:
            kernel = linalg._coprime(
                kernel[:phi] + [scale * b for b in kernel[phi:]])
        certificate = None if kernel is None else DependenceCertificate(
            i, d, tuple(kernel[:phi]), tuple(kernel[phi:])
        )
        verdicts.append(
            ReceiverVerdict(i, d, kernel is None, rank, 2 * phi, certificate)
        )
    return ConditionReport(d, tuple(verdicts))


def require_independent(matrix: ChannelMatrix, degree: int) -> None:
    """The condition gate: raise unless every receiver family is independent.

    Raises :class:`ConditionNotSatisfiedError` carrying the
    :func:`check_all` report over every receiver (and so the certificate)
    at ``degree``.  A channel whose every receiver :func:`jacobian_certifies`
    passes with no family built, at any degree; any other is checked at
    ``degree``.  The degree-D family contains every lower degree's, so a
    pass at D is a pass at every degree up to D.

    ``build`` gates at d: the letters of W_N are integer combinations of the
    degree-<=d basis values, and their representation is unique (|W_N| =
    N^phi(d)) as soon as those values are independent, which the degree-d
    family contains.  ``bound`` and ``sweep`` gate at d+1: at receiver i the
    interference sum_{j != i} h_ij W_j lies in the span of the degree-<=(d+1)
    monomials and the desired signal h_ii W_i in h_ii times that span, so
    separating the two needs the degree-(d+1) family to be independent.
    The degree-(d+1) family contains the degree-d one, so passing the
    bound's gate implies passing the build's.
    """
    report = check_all(matrix, degree)
    if not report.independent:
        raise ConditionNotSatisfiedError(
            f"rational independence fails at degree {degree}; "
            "waive the condition (--waive-condition) to proceed anyway",
            report,
        )
