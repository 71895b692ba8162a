"""Exact linear algebra over Q: one sparse column eliminator.

:func:`eliminate_columns` decides every rational-independence question the
package asks: condition (*), the size of W_N and the containment basis.
It takes columns as sparse ``{row_key: value}`` maps of ``int`` and
``Fraction`` values (an ``AlgebraElement``'s ``terms``), so no dense
matrix is built.  The reduction runs in Python ints: each column is first
scaled by the lcm of its denominators (:func:`integer_column`), and it is
then reduced fraction-free, as in Bareiss's elimination (Math. Comp. 22,
1968), by cross-multiplying with each basis vector's pivot instead of
dividing by it.  Every vector it keeps is a nonzero rational multiple of
the one a reduction over Q keeps, so the pivots, the rank and the kernel
are Q's.  A family of columns that are each one nonzero entry (the
single-term channels' monomials) is decided from its keys with no
reduction: its rank is the number of distinct keys, and when no key
repeats it is independent with no cap.  Any other family wider than
``ELIMINATION_COLUMN_CAP`` is refused before any work, and otherwise costs
what the fill-in of its reduced columns costs.

The tests compare it against a dense Bareiss reference, which lives with
them in ``tests/reference_linalg.py``.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import attrgetter
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import CapExceededError

#: Cap on the columns of one elimination.  The cost depends on the fill-in,
#: which the column count does not bound, so this bounds the family (and,
#: for multi-term entries, the products expanded to build it) instead.
ELIMINATION_COLUMN_CAP = 4000

_denominator = attrgetter("denominator")


def check_columns(cols: int) -> None:
    """Refuse an elimination over more than ``ELIMINATION_COLUMN_CAP`` columns."""
    if cols > ELIMINATION_COLUMN_CAP:
        raise CapExceededError(
            "elimination columns", cols, ELIMINATION_COLUMN_CAP
        )


def integer_column(column: Mapping) -> Tuple[Dict, int]:
    """``(L * column, L)`` for L the lcm of the entries' denominators: the
    nonzero entries as ints, each numerator times L over its denominator,
    so no ``Fraction`` is built.  A column of nonzero ints is copied as it
    is, with L = 1."""
    values = column.values()
    if all(values) and set(map(type, values)) <= {int}:
        return dict(column), 1
    scale = lcm(*map(_denominator, values))
    return {
        key: v.numerator * (scale // v.denominator)
        for key, v in column.items() if v
    }, scale


def eliminate_columns(columns: Sequence[Mapping]) -> Tuple[int, List[int] | None]:
    """``(rank, kernel)`` of sparse columns over Q, by exact elimination.

    Each column maps ordered row keys to its nonzero entries, exact
    rationals held as ``int`` or ``Fraction``.  The columns are reduced one
    at a time against the basis of the earlier ones, kept as ``{pivot key:
    (vector, combination)}``, the pivot being the vector's largest key.  A
    column whose largest key is a pivot is reduced by that basis vector,
    which clears the key and brings in only keys below it, so its largest
    key strictly decreases and the reduction ends: at zero (the column is
    dependent on the earlier ones) or on a key that is no pivot, which
    becomes the column's own pivot.

    The reduction is in Python ints.  A column enters as
    :func:`integer_column` of itself, L times the column, with combination
    L on its own index.  A step with basis vector u, pivot value a = u[p],
    on a vector v with b = v[p] sets v to a v - b u, with a and b first
    divided by their gcd, and the combination likewise.  Over Q that step
    is a (v - (b/a) u): a nonzero a times the step of a reduction that
    keeps u scaled to 1 on its pivot.  So every vector here is a nonzero
    multiple of the one a reduction over Q holds at the same step: it has
    the same keys, the same largest key, and vanishes at the same step.
    A new basis vector is stored primitive, the vector and its combination
    divided by their joint gcd, which keeps the entries small and leaves
    its keys as they are.  The pivots and the rank are therefore Q's, and
    the combination that reduces the first dependent column to zero is a
    nonzero multiple of Q's.

    ``kernel`` is ``None`` when the columns are independent.  Otherwise it
    is that combination of the first dependent column, c, scaled to
    coprime integers with a positive leading entry, as a vector over all
    columns.  It is nonzero on c and 0 after c; the columns before c are
    independent, so the kernel of the first c+1 columns is one-dimensional
    and any nonzero multiple gives this same vector.  It is therefore the
    vector a dense echelon form gives for the matrix with these columns,
    when its free variable is the first non-pivot column, c, set to 1.

    Columns that are each one nonzero entry, column j being v_j on key k_j,
    are decided from their keys (the single-entry rule), with the result the
    reduction would give.  The reduction keeps, for each key, the first
    column p that has it, as a multiple of v_p on k_p: a column whose key
    is new has no pivot to reduce by and becomes one, and a column c whose
    key k is already a pivot, of column p, is zero after one step, with
    combination a multiple of (-v_c/v_p on p, 1 on c).  No other key ever
    enters a vector, so the rank is the number of distinct keys, the first
    dependent column is the first c whose key an earlier column p holds,
    and the kernel is ``_coprime`` of that combination.
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
        vector, scale = integer_column(column)
        # Only the first dependence is reported, so once it is found the
        # combinations are no longer tracked.
        combo = {index: scale} if kernel is None else None
        while vector:
            pivot = max(vector)
            if pivot not in basis:
                break
            reducer, reducer_combo = basis[pivot]
            a, b = reducer[pivot], vector[pivot]
            g = gcd(a, b)
            a, b = a // g, b // g
            _reduce(vector, a, b, reducer)
            if combo is not None:
                _reduce(combo, a, b, reducer_combo)
        if vector:
            basis[pivot] = _primitive(vector, combo)
        elif kernel is None:
            x = [0] * len(columns)
            for k, v in combo.items():
                x[k] = v
            kernel = _coprime(x)
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
            # (-v_c/v_p, 1) times the nonzero integer that clears both.
            kernel = [0] * len(columns)
            kernel[p] = -value.numerator * pivot_value.denominator
            kernel[c] = value.denominator * pivot_value.numerator
    return len(first), None if kernel is None else _coprime(kernel)


def _reduce(target: Dict, a: int, b: int, source: Mapping) -> None:
    """``target = a * target - b * source`` in place, dropping entries that
    cancel."""
    if a != 1:
        for key in target:
            target[key] *= a
    for key, value in source.items():
        value = target.get(key, 0) - b * value
        if value:
            target[key] = value
        else:
            target.pop(key, None)


def _primitive(vector: Dict, combo: Dict | None) -> Tuple:
    """``(vector, combo)`` divided by the gcd of all their entries."""
    g = gcd(*vector.values(), *(combo.values() if combo is not None else ()))
    if g != 1:
        vector = {key: v // g for key, v in vector.items()}
        if combo is not None:
            combo = {key: v // g for key, v in combo.items()}
    return vector, combo


def _coprime(x: List) -> List[int]:
    """A nonzero rational vector scaled to coprime integers, leading entry > 0.

    Only the nonzero entries are read, and no ``Fraction`` is built.
    """
    support = [k for k, v in enumerate(x) if v]
    scale = lcm(*[x[k].denominator for k in support])
    ints = [x[k].numerator * (scale // x[k].denominator) for k in support]
    g = gcd(*ints)
    if ints and ints[0] < 0:
        g = -g
    out = [0] * len(x)
    for k, v in zip(support, ints):
        out[k] = v // g
    return out
