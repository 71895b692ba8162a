"""Rational-independence checker for the per-receiver monomial family.

For receiver i and degree cutoff d the checked family is

    [f_1(h), ..., f_phi(h),  h_ii f_1(h), ..., h_ii f_phi(h)]

where f_1, f_2, ... enumerate the monomials of degree <= d in the K(K-1)
off-diagonal entries and phi = C(K(K-1) + d, d).

A receiver that :func:`jacobian_certifies` is independent at every degree,
and its family is never built.  Any other is checked at the given degree:
the family is expanded into exact polynomials in the channel generators,
and independence over the rationals is a rank question over their sparse
coefficient columns, decided by ``linalg.eliminate_columns``, which also
owns the on-sight rule for distinct single terms and the elimination cap.
A product of multi-term entries is not expanded for a family past that
cap.  A failed check returns an explicit integer certificate that
substitutes back to the exact zero polynomial; an "independent" verdict
from it is certified only up to the tested degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, List, Tuple

from .algebra import AlgebraElement, Rational, enumerate_monomials, monomial_count
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
    generic channel's columns are independent on sight).

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


def basis_values(matrix: ChannelMatrix, d: int):
    """The values f_1(h), ..., f_phi(h) as exact polynomials in the generators.

    Unless every entry is a single term, the values will need elimination,
    so the elimination cap is checked before any product is expanded.

    Each value is one product: its graded predecessor (the monomial with its
    last nonzero exponent lowered by one, which has degree one less and so
    comes earlier in graded order) times that entry.  Arithmetic is exact,
    so this equals the product of powers.
    """
    nvars = matrix.K * (matrix.K - 1)
    check_h = off_diagonal(matrix)
    if any(entry.single_term() is None for entry in check_h):
        linalg.check_columns(2 * monomial_count(nvars, d))
    monomials = enumerate_monomials(nvars, d)
    position = {mono: k for k, mono in enumerate(monomials)}
    values = [AlgebraElement.constant(len(matrix.generators), 1)]
    for mono in monomials[1:]:
        last = max(v for v, exp in enumerate(mono) if exp)
        predecessor = mono[:last] + (mono[last] - 1,) + mono[last + 1:]
        values.append(values[position[predecessor]] * check_h[last])
    return values


def monomial_values(
    matrix: ChannelMatrix, d: int, receiver: int
) -> List[AlgebraElement]:
    """The length-2*phi(d) family for one receiver (1-based index)."""
    _require_receiver(matrix, receiver)
    return _receiver_family(matrix, receiver, basis_values(matrix, d))


def _require_receiver(matrix: ChannelMatrix, receiver: int) -> None:
    if not 1 <= receiver <= matrix.K:
        raise ValueError(f"receiver {receiver} out of range 1..{matrix.K}")


def _receiver_family(
    matrix: ChannelMatrix, receiver: int, basis: List[AlgebraElement]
) -> List[AlgebraElement]:
    h_ii = matrix.diagonal(receiver)
    return list(basis) + [h_ii * v for v in basis]


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
        values = monomial_values(matrix, self.degree, self.receiver)
        total = AlgebraElement.zero(len(matrix.generators))
        for coeff, value in zip(self.a + self.b, values):
            if coeff:
                total = total + value.scale(coeff)
        return total

    def is_valid(self, matrix: ChannelMatrix) -> bool:
        if not any(self.a) and not any(self.b):
            return False
        return self.substitute(matrix).is_zero()


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


def check_condition_star(
    matrix: ChannelMatrix, d: int, receiver: int
) -> ReceiverVerdict:
    """Decide independence of the receiver family up to degree ``d``.

    An out-of-range receiver is refused before any work.  A receiver that
    :func:`jacobian_certifies` is independent at every degree: its verdict
    counts phi(d), at any degree, with no family built.  Any other gets the
    per-degree check over ``basis_values(matrix, d)``.  The values' term
    maps go to ``linalg.eliminate_columns``; its kernel of the first
    dependent value is the certificate, and it equals the kernel vector of
    the tests' dense Bareiss reference on the same family.
    """
    _require_receiver(matrix, receiver)
    if jacobian_certifies(matrix, receiver):
        return _certified_verdict(matrix, d, receiver)
    return _eliminated_verdict(matrix, d, receiver, basis_values(matrix, d))


def _eliminated_verdict(
    matrix: ChannelMatrix, d: int, receiver: int, basis: List[AlgebraElement]
) -> ReceiverVerdict:
    values = _receiver_family(matrix, receiver, basis)
    phi = len(values) // 2
    matrix_rank, kernel = linalg.eliminate_columns([v.terms for v in values])
    if kernel is None:
        return ReceiverVerdict(receiver, d, True, matrix_rank, 2 * phi)
    certificate = DependenceCertificate(
        receiver, d, tuple(kernel[:phi]), tuple(kernel[phi:])
    )
    return ReceiverVerdict(receiver, d, False, matrix_rank, 2 * phi, certificate)


def _certified_verdict(matrix: ChannelMatrix, d: int, receiver: int):
    size = 2 * monomial_count(matrix.K * (matrix.K - 1), d)
    return ReceiverVerdict(receiver, d, True, size, size)


def check_all(matrix: ChannelMatrix, d: int) -> ConditionReport:
    """Aggregate :func:`check_condition_star` over all receivers.

    The off-diagonal gradients are taken once and each receiver's Jacobian
    is decided once.  The basis values are built once, and only when some
    receiver is left uncertified; then their refusals are the per-degree
    check's.
    """
    receivers = range(1, matrix.K + 1)
    off = [_gradient(entry) for entry in off_diagonal(matrix)]
    certified = [jacobian_certifies(matrix, i, off) for i in receivers]
    basis = None if all(certified) else basis_values(matrix, d)
    verdicts = tuple(
        _certified_verdict(matrix, d, i) if ok
        else _eliminated_verdict(matrix, d, i, basis)
        for i, ok in zip(receivers, certified)
    )
    return ConditionReport(d, verdicts)


def require_independent(matrix: ChannelMatrix, degree: int) -> None:
    """The condition gate: raise unless every receiver family is independent.

    Raises :class:`ConditionNotSatisfiedError` carrying the
    :func:`check_all` report (and so the certificate) at ``degree``.  A
    channel whose every receiver :func:`jacobian_certifies` passes with no
    family built, at any degree; any other is checked at ``degree`` alone.

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
