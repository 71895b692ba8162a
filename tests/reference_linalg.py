"""Dense exact linear algebra: the reference the tests check the package against.

:func:`bareiss_echelon` (fraction-free, Bareiss, Math. Comp. 22, 1968) and
the helpers built on it work on dense integer matrices given as lists of
row lists; :func:`integer_columns` turns a family of ``AlgebraElement``
values into such a matrix.  ``icdof.linalg.eliminate_columns`` decides
every rank question in the package; its rank and first-dependence kernel
must equal :func:`rank` and :func:`kernel_vector` here.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Tuple

from icdof.algebra import AlgebraElement, monomial_key
from icdof.linalg import _coprime, check_columns


def bareiss_echelon(matrix: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Row echelon form via fraction-free (Bareiss) elimination.

    Returns ``(echelon, pivot_cols)``; all intermediate entries stay integers.
    The input is not modified.  The reference :func:`eliminate_columns` is
    tested against; no caller in the package.
    """
    if not matrix:
        return [], []
    rows, cols = len(matrix), len(matrix[0])
    check_columns(cols)
    m = [list(row) for row in matrix]
    pivot_cols: List[int] = []
    prev_pivot = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        for i in range(r + 1, rows):
            factor = m[i][c]
            for j in range(c, cols):
                m[i][j] = (pivot * m[i][j] - factor * m[r][j]) // prev_pivot
        prev_pivot = pivot
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return m, pivot_cols


def rank(matrix: List[List[int]]) -> int:
    """Rank by :func:`bareiss_echelon`; a test reference, no caller in the package."""
    return len(bareiss_echelon(matrix)[1])


def kernel_vector(matrix: List[List[int]]) -> List[int] | None:
    """First kernel basis vector of ``matrix`` (as A x = 0), coprime integers.

    Returns ``None`` for full column rank.  A test reference for
    :func:`eliminate_columns`; no caller in the package.
    """
    if not matrix:
        return None
    echelon, pivot_cols = bareiss_echelon(matrix)
    return kernel_from_echelon(echelon, pivot_cols, len(matrix[0]))


def kernel_from_echelon(
    echelon: List[List[int]], pivot_cols: List[int], cols: int
) -> List[int] | None:
    """Kernel vector from a precomputed Bareiss echelon form.

    Deterministic: the first non-pivot column (in the fixed column order) is
    the free variable set to 1; the result is scaled to coprime integers with
    positive leading nonzero entry.  Returns ``None`` for full column rank.
    A test reference for :func:`eliminate_columns`; no caller in the package.
    """
    if len(pivot_cols) == cols:
        return None
    free_col = next(c for c in range(cols) if c not in set(pivot_cols))
    x: List[Fraction] = [Fraction(0)] * cols
    x[free_col] = Fraction(1)
    for r in range(len(pivot_cols) - 1, -1, -1):
        p = pivot_cols[r]
        if p > free_col:
            continue
        acc = sum(
            (Fraction(echelon[r][c]) * x[c] for c in range(p + 1, cols)),
            Fraction(0),
        )
        x[p] = -acc / echelon[r][p]
    return _coprime(x)


def integer_columns(values: List[AlgebraElement]) -> List[List[int]]:
    """Coefficient matrix with one column per value, one row per monomial.

    Rows are scaled to integers by their denominator lcm; row scaling leaves
    the null space (the certificate space) unchanged.  The dense Bareiss
    input that tests check ``linalg.eliminate_columns`` against; no caller
    in the package.
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
