"""Rational-independence checker for the per-receiver monomial family.

For receiver i and degree cutoff d the checked family is

    [f_1(h), ..., f_phi(h),  h_ii f_1(h), ..., h_ii f_phi(h)]

where f_1, f_2, ... enumerate the monomials of degree <= d in the K(K-1)
off-diagonal entries and phi = C(K(K-1) + d, d).  The family is expanded
into exact polynomials in the channel generators; independence over the
rationals is then an integer rank question, decided by fraction-free
elimination.  A family of single terms with pairwise distinct monomials
(every entry its own generator, the generic case) is independent on sight,
since distinct monomials are linearly independent over Q, and skips the
elimination.  A failed check returns an explicit integer certificate that
substitutes back to the exact zero polynomial.

An "independent" verdict is certified only up to the tested degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Tuple

from .algebra import (
    AlgebraElement,
    distinct_single_terms,
    enumerate_monomials,
    monomial_count,
    monomial_key,
)
from .channel import ChannelMatrix, off_diagonal
from .errors import CapExceededError
from . import linalg

#: Cap on phi(d), the per-receiver family is twice this long.
DEFAULT_PHI_CAP = 2000


def basis_values(matrix: ChannelMatrix, d: int, phi_cap: int = DEFAULT_PHI_CAP):
    """The values f_1(h), ..., f_phi(h) as exact polynomials in the generators."""
    nvars = matrix.K * (matrix.K - 1)
    phi = monomial_count(nvars, d)
    if phi > phi_cap:
        raise CapExceededError("monomial family phi(d)", phi, phi_cap)
    check_h = off_diagonal(matrix)
    values = []
    for mono in enumerate_monomials(nvars, d):
        value = AlgebraElement.constant(len(matrix.generators), 1)
        for entry, exp in zip(check_h, mono):
            if exp:
                value = value * entry**exp
        values.append(value)
    return values


def monomial_values(
    matrix: ChannelMatrix, d: int, receiver: int, phi_cap: int = DEFAULT_PHI_CAP
) -> List[AlgebraElement]:
    """The length-2*phi(d) family for one receiver (1-based index)."""
    return _receiver_family(matrix, receiver, basis_values(matrix, d, phi_cap))


def _receiver_family(
    matrix: ChannelMatrix, receiver: int, basis: List[AlgebraElement]
) -> List[AlgebraElement]:
    if not 1 <= receiver <= matrix.K:
        raise ValueError(f"receiver {receiver} out of range 1..{matrix.K}")
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


def _integer_columns(values: List[AlgebraElement]) -> List[List[int]]:
    """Coefficient matrix with one column per value, one row per monomial.

    Rows are scaled to integers by their denominator lcm; row scaling leaves
    the null space (the certificate space) unchanged.
    """
    monomials = sorted(
        {m for v in values for m in v.terms}, key=monomial_key
    )
    rows: List[List[int]] = []
    for mono in monomials:
        coeffs = [v.terms.get(mono, Fraction(0)) for v in values]
        denom = 1
        for c in coeffs:
            denom = lcm(denom, c.denominator)
        rows.append([int(c * denom) for c in coeffs])
    return rows


def check_condition_star(
    matrix: ChannelMatrix,
    d: int,
    receiver: int,
    phi_cap: int = DEFAULT_PHI_CAP,
    *,
    basis: List[AlgebraElement] | None = None,
) -> ReceiverVerdict:
    """Decide independence of the receiver family up to degree ``d``.

    ``basis`` is ``basis_values(matrix, d, phi_cap)`` when the caller already
    has it.  A family of single terms with pairwise distinct monomials is
    independent with rank 2*phi without elimination: distinct monomials are
    linearly independent over Q, so the integer matrix has one nonzero per
    column, each in its own row.  Every other family goes through Bareiss.
    """
    if basis is None:
        basis = basis_values(matrix, d, phi_cap)
    values = _receiver_family(matrix, receiver, basis)
    phi = len(values) // 2
    if distinct_single_terms(values) is not None:
        return ReceiverVerdict(receiver, d, True, 2 * phi, 2 * phi)
    rows = _integer_columns(values)
    if not rows:
        # All values are the zero polynomial (degenerate all-zero matrix row).
        kernel = [1] + [0] * (2 * phi - 1)
        matrix_rank = 0
    else:
        echelon, pivots = linalg.bareiss_echelon(rows)
        matrix_rank = len(pivots)
        kernel = linalg.kernel_from_echelon(echelon, pivots, 2 * phi)
    if kernel is None:
        return ReceiverVerdict(receiver, d, True, matrix_rank, 2 * phi)
    certificate = DependenceCertificate(
        receiver, d, tuple(kernel[:phi]), tuple(kernel[phi:])
    )
    return ReceiverVerdict(receiver, d, False, matrix_rank, 2 * phi, certificate)


def check_all(
    matrix: ChannelMatrix, d: int, phi_cap: int = DEFAULT_PHI_CAP
) -> ConditionReport:
    """Aggregate :func:`check_condition_star` over all receivers.

    The basis values are shared by every receiver, so they are built once.
    """
    basis = basis_values(matrix, d, phi_cap)
    verdicts = tuple(
        check_condition_star(matrix, d, i, phi_cap, basis=basis)
        for i in range(1, matrix.K + 1)
    )
    return ConditionReport(d, verdicts)
