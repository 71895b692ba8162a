"""Exact linear algebra over Q: one sparse column eliminator.

:func:`eliminate_columns` decides every rational-independence question the
package asks: condition (*), the size of W_N and the containment basis.
It takes columns as sparse ``{row_key: value}`` maps of ``int`` and
``Fraction`` values (an ``AlgebraElement``'s ``terms``), so no dense
matrix is built; integer entries stay Python ints, and a ``Fraction`` is
made only where a division by a pivot is not exact.  A family of columns
that are each one nonzero entry (the single-term channels' monomials) is
decided from its keys with no reduction: its rank is the number of distinct
keys, and when no key repeats it is independent with no cap.  Any other
family wider than ``ELIMINATION_COLUMN_CAP`` is refused before any work,
and otherwise costs what the fill-in of its reduced columns costs.

The tests compare it against a dense fraction-free Bareiss reference
(Bareiss, Math. Comp. 22, 1968), which lives with them in
``tests/reference_linalg.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import CapExceededError

#: Cap on the columns of one elimination.  The cost depends on the fill-in,
#: which the column count does not bound, so this bounds the family (and,
#: for multi-term entries, the products expanded to build it) instead.
ELIMINATION_COLUMN_CAP = 4000


def check_columns(cols: int) -> None:
    """Refuse an elimination over more than ``ELIMINATION_COLUMN_CAP`` columns."""
    if cols > ELIMINATION_COLUMN_CAP:
        raise CapExceededError(
            "elimination columns", cols, ELIMINATION_COLUMN_CAP
        )


def eliminate_columns(columns: Sequence[Mapping]) -> Tuple[int, List[int] | None]:
    """``(rank, kernel)`` of sparse columns over Q, by exact elimination.

    Each column maps ordered row keys to its nonzero entries, exact
    rationals held as ``int`` or ``Fraction``.  The columns are reduced one
    at a time against the basis of the earlier ones, kept as ``{pivot key:
    (vector, combination)}`` with each vector scaled to 1 on its pivot, the
    largest key it has.  A column whose largest key is a pivot subtracts
    that basis vector, which clears the key and brings in only keys below
    it, so its largest key strictly decreases and the reduction ends: at
    zero (the column is dependent on the earlier ones) or on a key that is
    no pivot, which becomes the column's own pivot.
    The arithmetic is Q's whichever type holds a value: ints stay ints
    under products and differences, a quotient by a pivot is a ``Fraction``
    only where the division is not exact, and equal values compare equal
    across the types.  So the pivots, the rank and every combination are,
    value for value, those of an all-``Fraction`` reduction.

    ``kernel`` is ``None`` when the columns are independent.  Otherwise it
    is the combination that reduced the first dependent column, c, to zero,
    scaled to coprime integers with a positive leading entry, as a vector
    over all columns.  It is 1 on c and 0 after c; the columns before c are
    independent, so the kernel of the first c+1 columns is one-dimensional
    and this vector is unique.  It is therefore the vector a dense echelon
    form gives for the matrix with these columns, when its free variable is
    the first non-pivot column, c, set to 1.

    Columns that are each one nonzero entry, column j being v_j on key k_j,
    are decided from their keys (the single-entry rule), with the result the
    reduction would give.  The reduction keeps, for each key, the first
    column p that has it as the basis vector 1 on k_p with combination
    1/v_p on p: a column whose key is new has no pivot to subtract and
    becomes one, and a column c whose key k is already a pivot, of column
    p, subtracts v_c times that vector and is zero at once, with
    combination 1 on c and -v_c/v_p on p.  No other key ever enters a
    vector, so the rank is the number of distinct keys, the first dependent
    column is the first c whose key an earlier column p holds, and the
    kernel is ``_coprime`` of (-v_c/v_p on p, 1 on c), value for value.
    When no key repeats, the family is independent whatever its number of
    columns.  A family with a repeated key passes the cap first, like every
    family but a distinct-key one, so the rule refuses exactly the families
    the reduction refuses.  Any other family is capped, then reduced.
    """
    single = _single_entry_result(columns)
    if single is not None and single[1] is None:
        return single
    check_columns(len(columns))
    if single is not None:
        return single
    basis: Dict = {}
    kernel = None
    for index, column in enumerate(columns):
        vector = {key: v for key, v in column.items() if v}
        # Only the first dependence is reported, so once it is found the
        # combinations are no longer tracked.
        combo = {index: 1} if kernel is None else None
        while vector:
            pivot = max(vector)
            if pivot not in basis:
                break
            factor = vector[pivot]
            reducer, reducer_combo = basis[pivot]
            _subtract(vector, factor, reducer)
            if combo is not None:
                _subtract(combo, factor, reducer_combo)
        if vector:
            scale = vector[pivot]
            basis[pivot] = (
                _divided(vector, scale),
                None if combo is None else _divided(combo, scale),
            )
        elif kernel is None:
            kernel = _coprime([combo.get(k, 0) for k in range(len(columns))])
    return len(basis), kernel


def _single_entry_result(
    columns: Sequence[Mapping],
) -> Tuple[int, List[int] | None] | None:
    """``(rank, kernel)`` of columns that are each one nonzero entry, read
    off their keys, or None at the first column that is not (see
    :func:`eliminate_columns`)."""
    first: Dict = {}
    kernel = None
    for c, column in enumerate(columns):
        if len(column) != 1:
            return None
        ((key, value),) = column.items()
        if not value:
            return None
        if key not in first:
            first[key] = (c, value)
        elif kernel is None:
            p, pivot_value = first[key]
            kernel = [0] * len(columns)
            kernel[p] = -Fraction(value, pivot_value)
            kernel[c] = 1
    return len(first), None if kernel is None else _coprime(kernel)


def _divided(vector: Dict, scale) -> Dict:
    """``vector / scale``, each quotient an ``int`` where it is integral."""
    if scale == 1:
        return vector
    out = {}
    for key, v in vector.items():
        q = Fraction(v, scale)
        out[key] = q.numerator if q.denominator == 1 else q
    return out


def _subtract(target: Dict, factor, source: Mapping) -> None:
    """``target -= factor * source`` in place, dropping entries that cancel."""
    for key, value in source.items():
        value = target.get(key, 0) - factor * value
        if value:
            target[key] = value
        else:
            target.pop(key, None)


def _coprime(x: List) -> List[int]:
    """A nonzero rational vector scaled to coprime integers, leading entry > 0."""
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
