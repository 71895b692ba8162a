"""Fraction-free integer linear algebra (Bareiss elimination).

Operates on dense integer matrices given as lists of row lists.  Row
operations only, so the null space of the matrix is preserved, which is what
the dependence-certificate extraction relies on.  Elimination is cubic in
the matrix size, so a matrix wider than ``ELIMINATION_COLUMN_CAP`` is
refused before any work; a caller that builds the matrix calls
:func:`check_columns` first, so a refused matrix is never allocated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Tuple

from .errors import CapExceededError

#: Cap on the columns of a matrix handed to :func:`bareiss_echelon`.
ELIMINATION_COLUMN_CAP = 4000


def check_columns(cols: int) -> None:
    """Refuse an elimination over more than ``ELIMINATION_COLUMN_CAP`` columns."""
    if cols > ELIMINATION_COLUMN_CAP:
        raise CapExceededError(
            "Bareiss elimination columns", cols, ELIMINATION_COLUMN_CAP
        )


def bareiss_echelon(matrix: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Row echelon form via fraction-free (Bareiss) elimination.

    Returns ``(echelon, pivot_cols)``; all intermediate entries stay integers.
    The input is not modified.
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
    return len(bareiss_echelon(matrix)[1])


def kernel_vector(matrix: List[List[int]]) -> List[int] | None:
    """First kernel basis vector of ``matrix`` (as A x = 0), coprime integers.

    Returns ``None`` for full column rank.
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
    scale = 1
    for value in x:
        scale = scale * value.denominator // gcd(scale, value.denominator)
    ints = [int(v * scale) for v in x]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    leading = next((v for v in ints if v != 0), 1)
    if leading < 0:
        ints = [-v for v in ints]
    return ints
