"""Exact construction of the self-similar input alphabet and the DoF bound.

The pipeline: build the alphabet W_N of integer-combination values of the
degree-<=d monomials in the off-diagonal entries, form the exact laws of
the received sums (full and interference-only) of independent uniform
letters, and turn their entropies into the per-receiver dimension terms and
the total DoF lower bound at contraction parameter r_N = |W_N|^(-2).

W_N is enumerated only when its letters are needed.  When the basis values
are single terms with pairwise distinct monomials (every entry its own
generator, the generic case), |W_N| = N^phi is read off the basis and the
letters stay unenumerated until something iterates over them; the
coordinate decomposition below never does.

Entropies are computed either by exact convolution keyed on canonical
polynomial values, or (for channels whose entries are single-term, e.g. the
all-distinct-generator matrices) by an exact coordinate decomposition: each
monomial coordinate of the received sum is a sum of independent scaled
uniforms drawn from disjoint letter coefficients, so the coordinates are
independent and the entropy is the sum of small one-dimensional convolution
entropies.  The two routes agree exactly and are cross-checked in the tests;
the decomposition is what makes desk-scale sweeps feasible, since full-sum
supports grow beyond any materializable size already at d=1, N=3.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .algebra import (
    AlgebraElement,
    distinct_single_terms,
    monomial_count,
    monomial_key,
    monomial_mul,
)
from .channel import ChannelMatrix, fully_connected
from .errors import CapExceededError, ConditionNotSatisfiedError
from . import condition as condition_mod
from .ifs import IFSSpec

#: Default cap on materialized support sizes (alphabets and sum supports).
DEFAULT_SUPPORT_CAP = 10**7

#: Per-run caveat attached to reports: the dimension formula is evaluated at
#: r_N itself, assuming the parameter is not in the exceptional set.
NON_EXCEPTIONAL_NOTE = (
    "dimension formula evaluated at r_N assuming a non-exceptional "
    "contraction parameter"
)


def entropy_from_counts(counts, total) -> float:
    """Shannon entropy in bits of a distribution given by integer counts.

    Counts are grouped by value so uniform-heavy distributions lose no
    precision to long floating sums; iteration order is fixed.
    """
    groups = Counter(counts)
    acc = 0.0
    for value in sorted(groups):
        if value > 0:
            acc += groups[value] * value * math.log2(value)
    return math.log2(total) - acc / total


# -- alphabet construction -------------------------------------------------


class Letters:
    """The letters of W_N: sized at once, enumerated on first iteration.

    ``len`` is the cardinality and costs nothing.  The first iteration runs
    the enumeration once and caches it, so every iteration sees the letters
    in the same order as an eager enumeration of the same basis.
    """

    __slots__ = ("_size", "_enumerate", "_items")

    def __init__(
        self, size: int, enumerate_letters: Callable[[], Tuple[AlgebraElement, ...]]
    ):
        self._size = size
        self._enumerate = enumerate_letters
        self._items: Tuple[AlgebraElement, ...] | None = None

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[AlgebraElement]:
        if self._items is None:
            self._items = self._enumerate()
        return iter(self._items)


@dataclass(frozen=True)
class InputConstruction:
    """The alphabet W_N together with its construction metadata."""

    degree: int
    coeff_range: int
    basis: Tuple[AlgebraElement, ...]
    elements: Letters
    cardinality: int
    contraction: Fraction
    unique_representation: bool

    @property
    def log_inv_r(self) -> float:
        """log2(1/r_N) = 2 log2 |W_N| in bits."""
        return 2.0 * math.log2(self.cardinality)


def _enumerate_letters(
    basis: Sequence[AlgebraElement], N: int, ngens: int
) -> Tuple[AlgebraElement, ...]:
    """Every sum_i a_i f_i(h) with a_i in {1..N}, deduplicated exactly."""
    elements = {AlgebraElement.zero(ngens)}
    for f in basis:
        scaled = [f.scale(a) for a in range(1, N + 1)]
        elements = {w + s for w in elements for s in scaled}
    return tuple(elements)


def build_w_n(
    matrix: ChannelMatrix,
    d: int,
    N: int,
    cap: int = DEFAULT_SUPPORT_CAP,
    phi_cap: int = condition_mod.DEFAULT_PHI_CAP,
) -> InputConstruction:
    """W_N = { sum_i a_i f_i(h) : a_i in {1..N} } with exact dedup.

    When the basis values f_i = c_i m_i are single terms with pairwise
    distinct monomials m_i, the letter for (a_1, ..., a_phi) has coefficient
    a_i c_i on m_i, so each a_i is read back as (coefficient of m_i) / c_i.
    Distinct coefficient vectors therefore give distinct letters, |W_N| =
    N^phi and the representation is unique, with nothing enumerated.  The
    letters are enumerated on first iteration.  Any other basis is
    enumerated here and deduplicated exactly.  The nominal size N^phi is
    capped either way.
    """
    if N < 1:
        raise ValueError(f"coefficient range N must be >= 1, got {N}")
    basis = tuple(condition_mod.basis_values(matrix, d, phi_cap))
    nominal = N ** len(basis)
    if nominal > cap:
        raise CapExceededError("W_N enumeration (N^phi(d) combinations)", nominal, cap)
    enumerate_ = functools.partial(
        _enumerate_letters, basis, N, len(matrix.generators)
    )
    if distinct_single_terms(basis) is not None:
        elements = Letters(nominal, enumerate_)
    else:
        items = enumerate_()
        elements = Letters(len(items), lambda: items)
    cardinality = len(elements)
    return InputConstruction(
        degree=d,
        coeff_range=N,
        basis=basis,
        elements=elements,
        cardinality=cardinality,
        contraction=Fraction(1, cardinality**2),
        unique_representation=cardinality == nominal,
    )


def to_ifs(construction: InputConstruction, valuation: Sequence[float]) -> IFSSpec:
    """Numeric IFS spec for the alphabet: atoms are the evaluated letters."""
    atoms = tuple(w.evaluate(valuation) for w in construction.elements)
    if len(set(atoms)) != len(atoms):
        raise ValueError(
            "valuation collapses distinct letters; atoms must stay distinct"
        )
    return IFSSpec(construction.contraction, atoms)


# -- exact sum distributions ----------------------------------------------


@dataclass
class SumsetDistribution:
    """Exact finite law over polynomial values, stored as integer counts."""

    counts: Dict[AlgebraElement, int]
    total: int
    _entropy: float | None = field(default=None, repr=False)

    @property
    def support_size(self) -> int:
        return len(self.counts)

    def probability(self, element: AlgebraElement) -> Fraction:
        return Fraction(self.counts.get(element, 0), self.total)

    def probabilities(self) -> Dict[AlgebraElement, Fraction]:
        return {e: Fraction(c, self.total) for e, c in self.counts.items()}

    @property
    def entropy_bits(self) -> float:
        if self._entropy is None:
            self._entropy = entropy_from_counts(self.counts.values(), self.total)
        return self._entropy


def _participants(matrix: ChannelMatrix, receiver: int, include_diagonal: bool):
    if not 1 <= receiver <= matrix.K:
        raise ValueError(f"receiver {receiver} out of range 1..{matrix.K}")
    return [
        j
        for j in range(1, matrix.K + 1)
        if include_diagonal or j != receiver
    ]


def sumset_distribution(
    matrix: ChannelMatrix,
    receiver: int,
    include_diagonal: bool,
    construction: InputConstruction,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> SumsetDistribution:
    """Law of sum_j h_ij W_j over independent uniform letters, by convolution."""
    ngens = len(matrix.generators)
    counts: Dict[AlgebraElement, int] = {AlgebraElement.zero(ngens): 1}
    total = 1
    for j in _participants(matrix, receiver, include_diagonal):
        h = matrix.entry(receiver, j)
        addends = [h * w for w in construction.elements]
        new: Dict[AlgebraElement, int] = {}
        for x, cx in counts.items():
            for y in addends:
                key = x + y
                new[key] = new.get(key, 0) + cx
            if len(new) > cap:
                raise CapExceededError("sumset support", len(new), cap)
        counts = new
        total *= construction.cardinality
    return SumsetDistribution(counts, total)


# -- coordinate-decomposition fast path ------------------------------------


def _coordinate_layout(
    matrix: ChannelMatrix,
    receiver: int,
    include_diagonal: bool,
    construction: InputConstruction,
):
    """Monomial -> list of scaling coefficients, or None if ineligible.

    Eligible when every participating entry and every basis value is a
    single term, basis monomials are pairwise distinct (so letters are in
    bijection with coefficient vectors), in which case each monomial
    coordinate of the received sum is an independent sum of scaled uniforms.
    """
    basis_terms = distinct_single_terms(construction.basis)
    if basis_terms is None:
        return None
    layout: Dict[tuple, List[Fraction]] = {}
    for j in _participants(matrix, receiver, include_diagonal):
        entry_term = matrix.entry(receiver, j).single_term()
        if entry_term is None:
            return None
        h_mono, h_coeff = entry_term
        for f_mono, f_coeff in basis_terms:
            mono = monomial_mul(h_mono, f_mono)
            layout.setdefault(mono, []).append(h_coeff * f_coeff)
    return layout


def _scaled_uniform_sum_counts(coeffs: Sequence[Fraction], N: int):
    """Counts of sum_t c_t * U_t with U_t i.i.d. uniform on {1..N}."""
    counts: Dict[Fraction, int] = {Fraction(0): 1}
    for c in coeffs:
        new: Dict[Fraction, int] = {}
        for v, cv in counts.items():
            for a in range(1, N + 1):
                key = v + c * a
                new[key] = new.get(key, 0) + cv
        counts = new
    return counts


def sum_entropy_stats(
    matrix: ChannelMatrix,
    receiver: int,
    include_diagonal: bool,
    construction: InputConstruction,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> Tuple[float, int]:
    """(entropy in bits, exact support cardinality) of the received sum.

    Uses the coordinate decomposition when eligible, else materializes the
    exact convolution (subject to ``cap``).
    """
    layout = _coordinate_layout(matrix, receiver, include_diagonal, construction)
    if layout is None:
        dist = sumset_distribution(matrix, receiver, include_diagonal, construction, cap)
        return dist.entropy_bits, dist.support_size
    N = construction.coeff_range
    entropy = 0.0
    support = 1
    for mono in sorted(layout, key=monomial_key):
        coeffs = layout[mono]
        counts = _scaled_uniform_sum_counts(coeffs, N)
        entropy += entropy_from_counts(counts.values(), N ** len(coeffs))
        support *= len(counts)
    return entropy, support


def separability_check(
    matrix: ChannelMatrix,
    receiver: int,
    construction: InputConstruction,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> bool:
    """True iff (u, v) -> u + v is injective on desired-signal x interference.

    Exact collision counting: the full-sum support size must equal the
    product of the factor support sizes.  The desired-signal factor
    h_ii * W_N always has |W_N| distinct values (multiplication by a nonzero
    polynomial is injective).
    """
    _, full_support = sum_entropy_stats(
        matrix, receiver, True, construction, cap
    )
    _, interference_support = sum_entropy_stats(
        matrix, receiver, False, construction, cap
    )
    return full_support == construction.cardinality * interference_support


# -- containment diagnostic ------------------------------------------------


@dataclass(frozen=True)
class ContainmentResult:
    contained: bool
    container_cardinality: int
    support_size: int


def _representation_reader(basis: Sequence[AlgebraElement]):
    """Function mapping an element to its coefficient vector over ``basis``.

    Requires the basis values to be linearly independent; returns None for a
    vector that is not in their span.
    """
    single = distinct_single_terms(basis)
    if single is not None:
        index = {mono: (k, coeff) for k, (mono, coeff) in enumerate(single)}

        def read(element: AlgebraElement):
            vec = [Fraction(0)] * len(basis)
            for mono, coeff in element.terms.items():
                hit = index.get(mono)
                if hit is None:
                    return None
                k, base_coeff = hit
                vec[k] = coeff / base_coeff
            return vec

        return read

    monomials = sorted({m for f in basis for m in f.terms}, key=monomial_key)
    rows = [[f.terms.get(m, Fraction(0)) for f in basis] for m in monomials]
    # Reduced row echelon over the rationals, done once.
    pivots: List[Tuple[int, int]] = []
    work = [list(r) + [Fraction(0)] for r in rows]  # last column holds the rhs
    ncols = len(basis)
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivots.append((r, c))
        r += 1
    if len(pivots) < ncols:
        raise ValueError(
            "basis values are rationally dependent; representation extraction "
            "is ambiguous for this channel"
        )
    row_map = {m: i for i, m in enumerate(monomials)}

    def read_general(element: AlgebraElement):
        rhs = [Fraction(0)] * len(monomials)
        for mono, coeff in element.terms.items():
            if mono not in row_map:
                return None
        for mono, coeff in element.terms.items():
            rhs[row_map[mono]] = coeff
        # Solve rows * a = rhs by elimination on a fresh copy (small systems).
        m = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
        rr = 0
        piv_cols = []
        for c in range(ncols):
            pr = next((i for i in range(rr, len(m)) if m[i][c]), None)
            if pr is None:
                continue
            m[rr], m[pr] = m[pr], m[rr]
            pivot = m[rr][c]
            for i in range(len(m)):
                if i != rr and m[i][c]:
                    factor = m[i][c] / pivot
                    for jj in range(c, ncols + 1):
                        m[i][jj] -= factor * m[rr][jj]
            piv_cols.append(c)
            rr += 1
        vec = [Fraction(0)] * ncols
        for (row_i, col_i) in zip(range(rr), piv_cols):
            vec[col_i] = m[row_i][ncols] / m[row_i][col_i]
        for i in range(rr, len(m)):
            if m[i][ncols]:
                return None
        return vec

    return read_general


def containment_check(
    matrix: ChannelMatrix,
    receiver: int,
    d: int,
    N: int,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> ContainmentResult:
    """Verify the interference support embeds in the degree-(d+1) lattice box.

    Every support element must have a representation sum_l a_l f_l(h) over
    the degree-<=(d+1) monomial values with integer coefficients
    0 <= a_l <= (K-1)N.  (Elements need not use every monomial, so zero
    coefficients are admitted; the reported container cardinality is the
    representation-count bound ((K-1)N)^phi(d+1).)
    """
    if not fully_connected(matrix):
        raise ValueError("containment check refused: channel is not fully connected")
    construction = build_w_n(matrix, d, N, cap)
    dist = sumset_distribution(matrix, receiver, False, construction, cap)
    basis_next = condition_mod.basis_values(matrix, d + 1)
    read = _representation_reader(basis_next)
    bound = (matrix.K - 1) * N
    contained = True
    for element in dist.counts:
        vec = read(element)
        if vec is None or any(
            a.denominator != 1 or not 0 <= a <= bound for a in vec
        ):
            contained = False
            break
    phi_next = monomial_count(matrix.K * (matrix.K - 1), d + 1)
    return ContainmentResult(contained, bound**phi_next, dist.support_size)


# -- the DoF lower bound ---------------------------------------------------


@dataclass(frozen=True)
class ReceiverTerms:
    receiver: int
    entropy_full_bits: float
    entropy_interference_bits: float
    term_full: float
    term_interference: float

    @property
    def contribution(self) -> float:
        return self.term_full - self.term_interference


@dataclass(frozen=True)
class DofReport:
    K: int
    degree: int | None
    coeff_range: int
    cardinality: int
    log_inv_r: float
    receivers: Tuple[ReceiverTerms, ...]
    total: float
    interference_ratio_bound: float | None
    notes: Tuple[str, ...] = (NON_EXCEPTIONAL_NOTE,)


def interference_ratio_bound(K: int, d: int, N: int) -> float | None:
    """phi(d+1) log2((K-1)N) / (2 phi(d) log2 N); None for degenerate N=1."""
    if N < 2:
        return None
    nvars = K * (K - 1)
    return (
        monomial_count(nvars, d + 1)
        * math.log2((K - 1) * N)
        / (2 * monomial_count(nvars, d) * math.log2(N))
    )


def ratio_limit(K: int, d: int) -> float:
    """phi(d+1)/phi(d) = (K(K-1) + d + 1)/(d + 1)."""
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    return (K * (K - 1) + d + 1) / (d + 1)


def _terms_for_receiver(
    matrix, receiver, construction, cap
) -> ReceiverTerms:
    h_full, _ = sum_entropy_stats(matrix, receiver, True, construction, cap)
    h_int, _ = sum_entropy_stats(matrix, receiver, False, construction, cap)
    log_inv_r = construction.log_inv_r
    if log_inv_r == 0.0:
        term_full = term_int = 0.0
    else:
        term_full = min(h_full / log_inv_r, 1.0)
        term_int = min(h_int / log_inv_r, 1.0)
    return ReceiverTerms(receiver, h_full, h_int, term_full, term_int)


def dof_lower_bound(
    matrix: ChannelMatrix,
    d: int,
    N: int,
    waive_condition: bool = False,
    cap: int = DEFAULT_SUPPORT_CAP,
    phi_cap: int = condition_mod.DEFAULT_PHI_CAP,
) -> DofReport:
    """Per-receiver dimension terms and the total DoF lower bound at (d, N).

    Unless waived, rational independence is first checked at degree d+1 (the
    degree actually used by the separation argument); a dependent channel
    raises :class:`ConditionNotSatisfiedError` carrying the certificate.
    """
    if not fully_connected(matrix):
        raise ValueError("DoF bound refused: channel is not fully connected")
    if not waive_condition:
        report = condition_mod.check_all(matrix, d + 1, phi_cap)
        if not report.independent:
            raise ConditionNotSatisfiedError(
                f"rational independence fails at degree {d + 1}; "
                "pass waive_condition to proceed anyway",
                report,
            )
    construction = build_w_n(matrix, d, N, cap, phi_cap)
    receivers = tuple(
        _terms_for_receiver(matrix, i, construction, cap)
        for i in range(1, matrix.K + 1)
    )
    total = sum(t.contribution for t in receivers)
    return DofReport(
        K=matrix.K,
        degree=d,
        coeff_range=N,
        cardinality=construction.cardinality,
        log_inv_r=construction.log_inv_r,
        receivers=receivers,
        total=total,
        interference_ratio_bound=interference_ratio_bound(matrix.K, d, N),
    )


# -- sweeps ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    degree: int
    coeff_range: int
    cardinality: int
    log_inv_r: float
    total: float
    interference_ratio_bound: float | None
    seconds: float


def sweep(
    matrix: ChannelMatrix,
    degrees: Sequence[int],
    ranges: Sequence[int],
    waive_condition: bool = False,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> List[SweepCell]:
    """Grid of dof_lower_bound cells; the condition is checked once per degree.

    At a fixed degree the total is not promised to increase in N: at d=0 it
    is N-invariant (0 for K >= 3), and the approach to K/2 comes from raising d.
    """
    import time

    cells = []
    for d in degrees:
        if not waive_condition:
            report = condition_mod.check_all(matrix, d + 1)
            if not report.independent:
                raise ConditionNotSatisfiedError(
                    f"rational independence fails at degree {d + 1}", report
                )
        for N in ranges:
            start = time.perf_counter()
            cell = dof_lower_bound(matrix, d, N, waive_condition=True, cap=cap)
            cells.append(
                SweepCell(
                    degree=d,
                    coeff_range=N,
                    cardinality=cell.cardinality,
                    log_inv_r=cell.log_inv_r,
                    total=cell.total,
                    interference_ratio_bound=cell.interference_ratio_bound,
                    seconds=time.perf_counter() - start,
                )
            )
    return cells


# -- the rational example class --------------------------------------------


def _window_sum(arr: np.ndarray, width: int) -> np.ndarray:
    """Sliding sums of ``width`` consecutive entries, full overlap-extended."""
    c = np.concatenate([[0], np.cumsum(arr)])
    t = np.arange(len(arr) + width - 1)
    hi = np.minimum(t, len(arr) - 1)
    lo = np.maximum(t - width + 1, 0)
    return c[hi + 1] - c[lo]


def _convolve_scaled_uniform(counts: np.ndarray, offset: int, h: int, N: int):
    """Convolve integer counts with the law of h * U, U uniform on {0..N-1}."""
    if N == 1:
        return counts, offset
    s = abs(h)
    length = len(counts) + s * (N - 1)
    out = np.zeros(length, dtype=np.int64)
    for q in range(min(s, len(counts))):
        sub = counts[q::s]
        w = _window_sum(sub, N)
        out[q + s * np.arange(len(w))] = w
    if h < 0:
        offset += h * (N - 1)
    return out, offset


@dataclass(frozen=True)
class RationalExampleReport:
    report: DofReport
    h_max: int
    contraction: Fraction
    closed_form_bound: float
    interference_min: int
    interference_max: int


def rational_example(
    K: int, offdiag: Sequence[Sequence[int]], N: int
) -> RationalExampleReport:
    """DoF bound for integer off-diagonals with irrational diagonal entries.

    The alphabet is W = {0..N-1} and the contraction parameter is
    (2 h_max K N)^(-2).  The interference sum is integer-valued while the
    desired signal is an integer multiple of the irrational diagonal entry,
    so the two separate exactly and the full-sum entropy is the sum of the
    factor entropies.  The closed-form bound K log2 N / (2 log2(2 h_max K N))
    is reported alongside the exactly computed total.
    """
    if K < 2:
        raise ValueError(f"need K >= 2 users, got K={K}")
    if N < 1:
        raise ValueError(f"alphabet size N must be >= 1, got {N}")
    if len(offdiag) != K or any(len(row) != K for row in offdiag):
        raise ValueError(f"off-diagonal entries must form a {K}x{K} grid")
    entries = [[int(v) for v in row] for row in offdiag]
    h_max = 0
    for i in range(K):
        for j in range(K):
            if i != j:
                if entries[i][j] == 0:
                    raise ValueError(
                        f"off-diagonal entry h{i + 1}{j + 1} must be nonzero"
                    )
                h_max = max(h_max, abs(entries[i][j]))
    if N ** (K - 1) > 2**62:
        raise CapExceededError(
            "interference convolution counts", N ** (K - 1), 2**62
        )
    base = 2 * h_max * K * N
    contraction = Fraction(1, base**2)
    log_inv_r = 2.0 * math.log2(base)
    h_diag = math.log2(N)
    receivers = []
    lo = hi = 0
    for i in range(K):
        counts = np.ones(1, dtype=np.int64)
        offset = 0
        for j in range(K):
            if j != i:
                counts, offset = _convolve_scaled_uniform(
                    counts, offset, entries[i][j], N
                )
        nz = counts[counts > 0]
        h_int = entropy_from_counts(nz.tolist(), int(N ** (K - 1)))
        lo = min(lo, offset)
        hi = max(hi, offset + len(counts) - 1)
        receivers.append(
            ReceiverTerms(
                receiver=i + 1,
                entropy_full_bits=h_diag + h_int,
                entropy_interference_bits=h_int,
                term_full=min((h_diag + h_int) / log_inv_r, 1.0),
                term_interference=min(h_int / log_inv_r, 1.0),
            )
        )
    total = sum(t.contribution for t in receivers)
    report = DofReport(
        K=K,
        degree=None,
        coeff_range=N,
        cardinality=N,
        log_inv_r=log_inv_r,
        receivers=tuple(receivers),
        total=total,
        interference_ratio_bound=None,
    )
    closed_form = K * math.log2(N) / log_inv_r if N > 1 else 0.0
    return RationalExampleReport(
        report=report,
        h_max=h_max,
        contraction=contraction,
        closed_form_bound=closed_form,
        interference_min=lo,
        interference_max=hi,
    )


# -- cardinality-doubling illustration -------------------------------------


@dataclass(frozen=True)
class Fig1Result:
    set_size: int
    common_structure_cardinality: int
    different_structure_cardinality: int


def fig1_demo() -> Fig1Result:
    """Sumset cardinalities of a 7-point hexagonal set with itself vs a
    structurally distinct scaled copy, by exact enumeration."""
    g1 = AlgebraElement.generator(3, 0)
    g2 = AlgebraElement.generator(3, 1)
    g3 = AlgebraElement.generator(3, 2)
    zero = AlgebraElement.zero(3)
    hexagon = [zero, g1, -g1, g2, -g2, g1 + g2, -(g1 + g2)]
    scaled = [g3 * s for s in hexagon]
    common = {a + b for a in hexagon for b in hexagon}
    different = {a + b for a in hexagon for b in scaled}
    return Fig1Result(len(hexagon), len(common), len(different))
