"""Exact construction of the self-similar input alphabet and the DoF bound.

The pipeline: build the alphabet W_N of integer-combination values of the
degree-<=d monomials in the off-diagonal entries, form the exact laws of
the received sums (full and interference-only) of independent uniform
letters, and turn their entropies into the per-receiver dimension terms and
the total DoF lower bound at contraction parameter r_N = |W_N|^(-2).

W_N is a value of (channel, d, N, size); its basis values and letters
are built on first read, by the waived sum laws (letters only when W_N
collides), ``to_ifs`` and the rank test of a basis the Jacobian leaves
uncertified.  A certified channel reads none, so its |W_N| = N^phi is
sized at any d.  The support cap ``DEFAULT_SUPPORT_CAP`` is checked where
a support is materialized (the N^phi letters, a sumset, a dense
scaled-uniform law).

A gated call (condition (*) passed at degree d+1) takes its bound from
the multiplicity profile of (K, d) alone, by :func:`profile_bound`.  It is
sound because h_ij f_alpha = f_{alpha + e_ij}: independence at degree d+1
makes the integer coordinates of the interference a bijective image of its
value, the coordinates use disjoint letter coefficients, and the phi(d)
desired coordinates are separate.  A waived call runs the exact
per-channel path below, the only path for a dependent channel and the
oracle the tests hold the profile to.

The exact path splits the received sum into independent components
(:func:`sum_entropy_stats`), each a sum of scaled uniforms or convolved in
integer codes (:func:`_sum_law`), as a colliding W_N's whole sum is.  Every
sum of scaled uniforms (the profile, the exact path, the rational example)
is read by ``_scaled_uniform_law`` from one integer kernel, which refuses a
law past the support cap before allocating it.  The law is a palindrome, so
the kernel writes only its first half, taking each cumulative sum in place
on the previous law: the previous law and the half-law are what is held.
The sorted half is folded ``_BLOCK`` entries at a time, libm logs of whole
runs with the left fold's sum carried from block to block, so every bit is
the whole law's.

The condition gate is :func:`condition.require_independent`, at degree d+1
for the bound and the sweep; the sweep asks it once, at its largest degree,
and its cells are the bound's reports.  Containment is W_N's independence
test, of the degree-(d+1) basis values; once they are independent, the
argument of :func:`profile_bound` places the support in the degree-(d+1)
lattice box and gives its size from the multiplicity profile.  It reads no
support element, builds no W_N and computes no sum law.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .algebra import (
    AlgebraElement,
    capped_monomial_count,
    monomial_count,
    monomial_key,
)
from .channel import ChannelMatrix, fully_connected, integer_offdiag_channel
from .errors import CapExceededError, ConditionNotSatisfiedError
from . import condition as condition_mod, linalg
from .ifs import IFSSpec

#: Cap on materialized support sizes (alphabets and sum supports).
DEFAULT_SUPPORT_CAP = 10**7

#: Codes and counts below this are int64; past it they are Python ints.
_INT64_LIMIT = 2**62

#: Distinct counts made Python ints at once for their logs.
_BLOCK = 1 << 16

#: Per-run caveat attached to reports: the dimension formula is evaluated at
#: r_N itself, assuming the parameter is not in the exceptional set.
NON_EXCEPTIONAL_NOTE = (
    "dimension formula evaluated at r_N assuming a non-exceptional "
    "contraction parameter"
)


def _entropy_of_sorted(ordered, total, factor=1, middle=0) -> float:
    """Entropy in bits of a sorted array's positive values, each run's
    multiplicity times ``factor``, less one for the value ``middle``.  The
    same bits as the loop ``acc += g * v * math.log2(v)`` over the
    increasing (value v, multiplicity g) pairs:

    - the pairs, g v, their logs and the terms are made ``_BLOCK`` sorted
      entries at a time.  A block's last run is read to its end by one
      ``searchsorted`` and the next block starts after it, so no run is
      split between two blocks;
    - g v is an exact integer (int64 where no product overflows, else
      Python ints), rounded once to float64 as int-times-float rounds it;
    - each log is ``math.log2`` of the Python int, not ``np.log2``, which
      differs from libm's in the last bit on some integers.  A block's ints
      are made while only its values and run edges are held;
    - each term is the log times float(g v) (a product of two floats is the
      same either way round), and ``np.add.accumulate`` folds each block
      from the left, its first term carrying the sum so far, so the blocks
      fold as one left fold.
    """
    i = ordered.searchsorted(0, side="right")
    acc = 0.0
    while i < len(ordered):
        block = ordered[i:i + _BLOCK]
        edge = np.ones(len(block) + 1, bool)
        np.not_equal(block[1:], block[:-1], out=edge[1:-1])
        edges = edge.nonzero()[0]
        edges[-1] = ordered.searchsorted(block[-1], side="right") - i
        i += edges[-1]
        values = block[edges[:-1]]
        logs = np.fromiter(map(math.log2, values.tolist()), float, len(values))
        groups = (edges[1:] - edges[:-1]) * factor - (values == middle)
        if values.dtype != np.int64 or groups.max() > (2**63 - 1) // values[-1]:
            values = values.astype(object)
        logs *= (groups * values).astype(np.float64)
        logs[0] += acc
        acc = float(np.add.accumulate(logs, out=logs)[-1])
        del logs, groups
    return math.log2(total) - acc / total


def entropy_from_counts(counts, total) -> float:
    """Shannon entropy in bits of a distribution given by integer counts.

    Counts are grouped by value, so uniform-heavy laws lose no precision to
    long float sums: runs of a sorted copy, of an ndarray as it is, else (a
    list, ``dict_values``) of an object array of its ints, as numpy reads
    ints below and above 2^63 together as float64.  Counts below 1 are
    skipped.
    """
    if not isinstance(counts, np.ndarray):
        counts = np.array(list(counts), dtype=object)
    return _entropy_of_sorted(np.sort(counts), total)


# -- alphabet construction -------------------------------------------------


class Power(NamedTuple):
    """An alphabet size base^exponent, kept factored: |W_N| is (N, phi) when
    its representation is unique, and (|W_N|, 1) when it was enumerated."""

    base: int
    exponent: int

    @property
    def log_inv_r(self) -> float:
        """log2(1/r) = 2 exponent log2(base) bits at r = (base^exponent)^-2."""
        return 2.0 * self.exponent * math.log2(self.base)


@dataclass(frozen=True)
class InputConstruction:
    """The alphabet W_N of a channel at (d, N), a value of its four fields,
    so equal builds compare equal.  The basis values and the letters are
    not fields: each is made on first read and kept (``cached_property``
    writes past the frozen ``__setattr__``)."""

    matrix: ChannelMatrix
    degree: int
    coeff_range: int
    size: Power

    @functools.cached_property
    def basis(self) -> Tuple[AlgebraElement, ...]:
        return tuple(condition_mod.basis_values(self.matrix, self.degree))

    @functools.cached_property
    def elements(self) -> Tuple[AlgebraElement, ...]:
        return _enumerate_letters(self.basis, self.coeff_range,
                                  len(self.matrix.generators))

    @property
    def phi(self) -> int:
        """phi(d), the number of basis values, counted without building them."""
        return monomial_count(self.matrix.K * (self.matrix.K - 1), self.degree)

    @property
    def cardinality(self) -> int:
        """|W_N| multiplied out, for what enumerates letters or counts tuples."""
        return self.size.base ** self.size.exponent

    @property
    def contraction(self) -> Fraction:
        """r_N = |W_N|^(-2)."""
        return Fraction(1, self.cardinality**2)

    @property
    def unique_representation(self) -> bool:
        """Distinct coefficient vectors give distinct letters."""
        return self.size == (self.coeff_range, self.phi)

    @property
    def log_inv_r(self) -> float:
        return self.size.log_inv_r


def _enumerate_letters(
    basis: Sequence[AlgebraElement], N: int, ngens: int
) -> Tuple[AlgebraElement, ...]:
    """Every sum_i a_i f_i(h) with a_i in {1..N}, deduplicated exactly.

    The N^phi combinations are checked against the support cap first.
    """
    nominal = N ** len(basis)
    if nominal > DEFAULT_SUPPORT_CAP:
        raise CapExceededError(
            "W_N enumeration (N^phi(d) combinations)", nominal, DEFAULT_SUPPORT_CAP
        )
    elements = {AlgebraElement.zero(ngens)}
    for f in basis:
        scaled = [f.scale(a) for a in range(1, N + 1)]
        elements = {w + s for w in elements for s in scaled}
    return tuple(elements)


def build_w_n(matrix: ChannelMatrix, d: int, N: int) -> InputConstruction:
    """W_N = { sum_i a_i f_i(h) : a_i in {1..N} } with exact dedup.

    Independent basis values (:func:`condition.basis_independent`: the
    Jacobian certificate, tried before any value is built, else their rank)
    give distinct letters for distinct coefficient vectors, so |W_N| =
    N^phi, phi counted uncapped, and a certified channel builds nothing.
    N = 1 needs no test: W_N is one letter.  An uncertified basis is built
    once, for its rank test and its letters alike; a dependent one is
    enumerated here, its N^phi capped at once, and its size is (|W_N|, 1)
    when letters collide.
    """
    if N < 1:
        raise ValueError(f"coefficient range N must be >= 1, got {N}")
    phi = monomial_count(matrix.K * (matrix.K - 1), d)
    construction = InputConstruction(matrix, d, N, Power(N, phi))
    if N > 1 and not condition_mod.basis_independent(
        matrix, d, lambda: construction.basis
    ):
        count = len(construction.elements)
        if count < N ** phi:
            # Set before it is returned, so the letters read stay held.
            object.__setattr__(construction, "size", Power(count, 1))
    return construction


def to_ifs(construction: InputConstruction, valuation: Sequence[float]) -> IFSSpec:
    """Numeric IFS spec for the alphabet: atoms are the evaluated letters."""
    atoms = tuple(w.evaluate(valuation) for w in construction.elements)
    if len(set(atoms)) != len(atoms):
        raise ValueError(
            "valuation collapses distinct letters; atoms must stay distinct"
        )
    return IFSSpec(construction.contraction, atoms)


# -- exact sum distributions ----------------------------------------------


class SumsetDistribution:
    """Exact finite law over polynomial values, stored as integer codes.

    ``_codes`` are the distinct packed values of the sum (see
    :func:`_sum_law`) and ``_weights[k]`` counts the tuples
    whose sum packs to ``_codes[k]``.  ``counts``, keyed by the polynomial
    value itself, is decoded from the codes on first read; the entropy and
    the support size never decode.
    """

    def __init__(self, codes: np.ndarray, weights: np.ndarray, total: int,
                 decode: Callable[[int], AlgebraElement]):
        self._codes = codes
        self._weights = weights
        self.total = total
        self._decode = decode

    @functools.cached_property
    def counts(self) -> Dict[AlgebraElement, int]:
        return {
            self._decode(code): weight
            for code, weight in zip(self._codes.tolist(), self._weights.tolist())
        }

    @property
    def support_size(self) -> int:
        return len(self._codes)

    def probability(self, element: AlgebraElement) -> Fraction:
        return Fraction(self.counts.get(element, 0), self.total)

    def probabilities(self) -> Dict[AlgebraElement, Fraction]:
        return {e: Fraction(c, self.total) for e, c in self.counts.items()}

    @functools.cached_property
    def entropy_bits(self) -> float:
        return entropy_from_counts(self._weights, self.total)


def _entries(matrix: ChannelMatrix, receiver: int, include_diagonal: bool):
    condition_mod.require_receiver(matrix, receiver)
    return [matrix.entry(receiver, j) for j in range(1, matrix.K + 1)
            if include_diagonal or j != receiver]


def _pack(addends: List[List[AlgebraElement]], ngens: int):
    """Integer codes of every addend, the code span, and the code decoder.

    Monomial k's coordinates are scaled by the lcm of their denominators, so
    every coordinate is an integer and the scaling is a bijection.  The
    addends of row j have coordinate k in [lo_jk, hi_jk], so every partial
    sum (the empty one included) has its coordinate k in
    [L_k, H_k] = [sum_j min(lo_jk, 0), sum_j max(hi_jk, 0)].
    The code sum_k v_k R_k, with R_k the product of the radices
    H_k' - L_k' + 1 for k' < k, is mixed radix with digits v_k - L_k on that
    box (shifted by the constant sum_k L_k R_k), so it is injective on every
    partial sum; it is linear, so the code of a sum is the sum of the codes.
    Returns ``(codes, span, decode)``: ``codes[j][a]`` codes the a-th addend
    of row j and every code of a partial sum lies in (-span, span).
    """
    term_maps = [[y.terms for y in row] for row in addends]
    monomials = sorted({m for row in term_maps for t in row for m in t},
                       key=monomial_key)
    index = {m: k for k, m in enumerate(monomials)}
    scales = [1] * len(monomials)
    for row in term_maps:
        for t in row:
            for m, c in t.items():
                scales[index[m]] = math.lcm(scales[index[m]], c.denominator)
    vectors = [
        [{index[m]: int(c * scales[index[m]]) for m, c in t.items()} for t in row]
        for row in term_maps
    ]
    lows = [0] * len(monomials)
    highs = [0] * len(monomials)
    for row in vectors:
        lo = [0] * len(monomials)
        hi = [0] * len(monomials)
        for v in row:
            for k, x in v.items():
                lo[k] = min(lo[k], x)
                hi[k] = max(hi[k], x)
        lows = [a + b for a, b in zip(lows, lo)]
        highs = [a + b for a, b in zip(highs, hi)]
    radices = [h - l + 1 for l, h in zip(lows, highs)]
    places = [1]
    for radix in radices:
        places.append(places[-1] * radix)
    span = places.pop()
    base = sum(l * r for l, r in zip(lows, places))
    codes = [[sum(x * places[k] for k, x in v.items()) for v in row]
             for row in vectors]

    def decode(code: int) -> AlgebraElement:
        rest = code - base
        terms = {}
        for mono, scale, low, radix in zip(monomials, scales, lows, radices):
            rest, digit = divmod(rest, radix)
            if digit + low:
                terms[mono] = Fraction(digit + low, scale)
        return AlgebraElement(ngens, terms)

    return codes, span, decode


def _add_step(codes: np.ndarray, weights: np.ndarray, step: np.ndarray):
    """Distinct codes of codes[a] + step[b] with summed weights.

    Weights are exact integers, so grouping equal codes and adding their
    weights is the exact convolution.  The outer sum runs in blocks of rows
    with at most ``DEFAULT_SUPPORT_CAP`` entries each; the distinct support
    is checked against the cap after every block.
    """
    rows = max(1, DEFAULT_SUPPORT_CAP // len(step))
    out_codes, out_weights = codes[:0], weights[:0]
    for start in range(0, len(codes), rows):
        block = np.add.outer(codes[start:start + rows], step).ravel()
        block_weights = np.repeat(weights[start:start + rows], len(step))
        out_codes, inverse = np.unique(
            np.concatenate([out_codes, block]), return_inverse=True
        )
        merged = np.zeros(len(out_codes), dtype=weights.dtype)
        np.add.at(merged, inverse, np.concatenate([out_weights, block_weights]))
        out_weights = merged
        if len(out_codes) > DEFAULT_SUPPORT_CAP:
            raise CapExceededError(
                "sumset support", len(out_codes), DEFAULT_SUPPORT_CAP
            )
    return out_codes, out_weights


def _sum_law(addends: List[List[AlgebraElement]], ngens: int) -> SumsetDistribution:
    """Law of the sum of one uniform pick per row, by adding and merging
    :func:`_pack`'s codes: int64, as are the counts, while the code span and
    the tuple count are below 2^62 (no sum overflows), else Python ints."""
    steps, span, decode = _pack(addends, ngens)
    total = math.prod(map(len, addends))
    code_type = np.int64 if span < _INT64_LIMIT else object
    count_type = np.int64 if total < _INT64_LIMIT else object
    codes = np.zeros(1, dtype=code_type)
    weights = np.ones(1, dtype=count_type)
    for step in steps:
        codes, weights = _add_step(codes, weights, np.array(step, dtype=code_type))
    return SumsetDistribution(codes, weights, total, decode)


def sumset_distribution(
    matrix: ChannelMatrix,
    receiver: int,
    include_diagonal: bool,
    construction: InputConstruction,
) -> SumsetDistribution:
    """Law of sum_j h_ij W_j over independent uniform letters."""
    return _sum_law(
        [[h * w for w in construction.elements]
         for h in _entries(matrix, receiver, include_diagonal)],
        len(matrix.generators),
    )


def _components(addends: Sequence[AlgebraElement]):
    """(monomials, addends) of each class of nonzero addends linked by
    shared monomials, by least monomial."""
    parent = {}

    def root(mono):
        while parent.setdefault(mono, mono) != mono:
            parent[mono] = parent[parent[mono]]
            mono = parent[mono]
        return mono

    addends = [y for y in addends if not y.is_zero()]
    for y in addends:
        first, *rest = y.terms
        for mono in rest:
            parent[root(mono)] = root(first)
    groups = {}
    for y in addends:
        monomials, members = groups.setdefault(root(next(iter(y.terms))), (set(), []))
        monomials.update(y.terms)
        members.append(y)
    return sorted(groups.values(), key=lambda g: min(map(monomial_key, g[0])))


def _convolve_scaled_uniform(coeffs: Sequence[int], N: int, stop=None) -> np.ndarray:
    """Counts of sum_t c_t U_t, U_t i.i.d. uniform on {0..N-1}, c_t integers.

    ``counts[k]`` tallies the tuples summing to k, for k below ``stop`` (all
    of them by default).  A c_t or N below 1, a width 1 + (N-1) sum_t c_t
    past the support cap and N^T past int64 are refused before any
    allocation.  Adding c U is, on each class q mod c, a window sum of N
    entries written into ``out[q::c]``: the class's cumulative sums cs,
    taken in place on the previous law, then cs[-1], less cs[:-1] from entry
    N on.  A count reads only counts at or below its own index, so every
    law is cut at ``stop``, and only the previous law and ``out`` are held.
    Counts are ints of at most 2^62, so exact.
    """
    if min(coeffs, default=1) < 1:
        raise ValueError(f"scaled-uniform coefficients must be >= 1, got {min(coeffs)}")
    if N < 1:
        raise ValueError(f"coefficient range N must be >= 1, got {N}")
    width = 1 + (N - 1) * sum(coeffs)
    if width > DEFAULT_SUPPORT_CAP:
        raise CapExceededError("scaled-uniform sum width", width, DEFAULT_SUPPORT_CAP)
    if N ** len(coeffs) > _INT64_LIMIT:
        raise CapExceededError(
            "scaled-uniform sum counts", N ** len(coeffs), _INT64_LIMIT
        )
    counts = np.ones(1, dtype=np.int64)
    for s in coeffs:
        out = np.zeros(min(len(counts) + s * (N - 1), stop or width), dtype=np.int64)
        for q in range(min(s, len(counts))):
            cs = counts[q::s]
            np.add.accumulate(cs, out=cs)
            dst = out[q::s]
            dst[:len(cs)] = cs
            dst[len(cs):] = cs[-1]
            dst[N:] -= cs[:max(len(dst) - N, 0)]
        del cs  # a view of the law this step replaces
        counts = out
    return counts


def _signature(coeffs: Sequence[Fraction]) -> Tuple[int, ...]:
    """Sorted |c_t| of the coefficients rescaled to coprime integers.

    The law of sum_t c_t U_t, U_t i.i.d. uniform on N consecutive integers,
    depends on the c_t only up to this: rescaling by lcm(denominators) /
    gcd(numerators) is a bijection of the values, U_t -> (N-1) - U_t flips a
    sign up to a shift, and the addends commute.  So the multiset of counts,
    hence the entropy and the support size, is the signature's.
    """
    return tuple(sorted(abs(c) for c in linalg._coprime(list(coeffs))))


def _scaled_uniform_law(signature: Tuple[int, ...], N: int) -> Tuple[float, int]:
    """(entropy in bits, support size) of sum_t c_t U_t for a signature.

    The law is a palindrome (U_t -> N-1-U_t maps k to width-1-k), so the
    kernel writes only its first half, which is sorted in place and folded
    with each multiplicity doubled, an odd width's middle count once: the
    whole law's pairs, so the bits are ``entropy_from_counts``'s.  The
    half-law and the fold's block-sized arrays are all that is held.
    """
    width = 1 + (N - 1) * sum(signature)
    half = _convolve_scaled_uniform(signature, N, (width + 1) // 2)
    middle = half[-1] if width % 2 else 0
    half.sort()
    return (_entropy_of_sorted(half, N ** len(signature), 2, middle),
            int(2 * np.count_nonzero(half) - (middle > 0)))


def sum_entropy_stats(
    matrix: ChannelMatrix,
    receiver: int,
    include_diagonal: bool,
    construction: InputConstruction,
) -> Tuple[float, int]:
    """(entropy in bits, exact support cardinality) of the received sum.

    With W_N's representation unique, a uniform letter W_j has i.i.d.
    uniform coefficients a_{j,l} on {1..N}: the sum is
    sum_{j,l} a_{j,l} h_ij f_l, and addends sharing a monomial are linked
    (:func:`_components`).  Components use disjoint a's, so are independent,
    and disjoint monomials, so the sum fixes each: entropies add (from the
    left, by least monomial), supports multiply.  A one-monomial component
    the kernel's width admits is read once per :func:`_signature`; any other
    is convolved on its own a's, rows [a y for a in 1..N], unless N^rank
    (r independent addends alone take N^r values) passes the support cap.
    A colliding W_N's letters are not coefficient vectors: its sum is
    convolved whole.
    """
    if not construction.unique_representation:
        dist = sumset_distribution(matrix, receiver, include_diagonal, construction)
        return dist.entropy_bits, dist.support_size
    N = construction.coeff_range
    law = functools.cache(lambda signature: _scaled_uniform_law(signature, N))
    addends = [h * f for h in _entries(matrix, receiver, include_diagonal)
               for f in construction.basis]
    entropy = 0.0
    support = 1
    for monomials, members in _components(addends):
        signature = len(monomials) == 1 and _signature(
            [c for y in members for c in y.terms.values()])
        if signature and (N - 1) * sum(signature) < DEFAULT_SUPPORT_CAP:
            bits, size = law(signature)
        else:
            size = N ** len(members)
            if size > DEFAULT_SUPPORT_CAP:
                size = N ** linalg.eliminate_columns([y.terms for y in members])[0]
            if size > DEFAULT_SUPPORT_CAP:
                raise CapExceededError("component support (>= N^rank)",
                                       size, DEFAULT_SUPPORT_CAP)
            dist = _sum_law([[y.scale(a) for a in range(1, N + 1)] for y in members],
                            len(matrix.generators))
            bits, size = dist.entropy_bits, dist.support_size
        entropy += bits
        support *= size
    return entropy, support


def separability_check(
    matrix: ChannelMatrix, receiver: int, construction: InputConstruction
) -> bool:
    """True iff (u, v) -> u + v is injective on desired-signal x interference.

    Exact collision counting: the full-sum support size must equal the
    product of the factor support sizes.  The desired-signal factor
    h_ii * W_N always has |W_N| distinct values (multiplication by a nonzero
    polynomial is injective).
    """
    _, full_support = sum_entropy_stats(matrix, receiver, True, construction)
    _, interference_support = sum_entropy_stats(matrix, receiver, False, construction)
    return full_support == construction.cardinality * interference_support


# -- containment diagnostic ------------------------------------------------


@dataclass(frozen=True)
class ContainmentResult:
    contained: bool
    container_cardinality: int
    support_size: int


def containment_check(
    matrix: ChannelMatrix, receiver: int, d: int, N: int
) -> ContainmentResult:
    """Certify the interference support embeds in the degree-(d+1) lattice box.

    Every support element must have a representation sum_l a_l f_l(h) over
    the degree-<=(d+1) monomial values with integer coefficients
    0 <= a_l <= (K-1)N.  (Elements need not use every monomial, so zero
    coefficients are admitted; the reported container cardinality is the
    representation-count bound ((K-1)N)^phi(d+1).)

    The one check is :func:`condition.basis_independent` at d+1, the test
    :func:`build_w_n` runs at d: the Jacobian certificate of the
    off-diagonal entries, and only when that fails the rank of the values
    themselves (a dependent basis raises ``ValueError``).  A certified
    channel builds no value, yet phi(d+1) still meets the monomial cap:
    both sizes are returned as ints (the benchmark compares
    ``support_size`` to one), and the cap bounds the ((K-1)N)^phi(d+1)
    written out.  Once the values are independent, the argument in
    :func:`profile_bound` shows each support element is sum_beta c_beta
    f_beta, c_beta the sum of the a's of the t_beta interferers reaching
    beta, so an integer in [0, (K-1)N], and that this is its only
    representation: ``contained`` is True whenever this answers.  The
    same argument gives the support size, prod_t (t(N-1) + 1)^n_t over
    :func:`multiplicity_profile`, so no W_N and no sum law is built.
    """
    if not fully_connected(matrix):
        raise ValueError("containment check refused: channel is not fully connected")
    if N < 1:
        raise ValueError(f"coefficient range N must be >= 1, got {N}")
    profile = multiplicity_profile(matrix.K, d)  # refuses d < 0
    condition_mod.require_receiver(matrix, receiver)
    if not condition_mod.basis_independent(matrix, d + 1):
        raise ValueError(
            "basis values are rationally dependent; representation "
            "extraction is ambiguous for this channel"
        )
    phi_next = capped_monomial_count(matrix.K * (matrix.K - 1), d + 1)
    support = math.prod((t * (N - 1) + 1) ** n for t, n in profile.items())
    return ContainmentResult(True, ((matrix.K - 1) * N) ** phi_next, support)


# -- the DoF lower bound ---------------------------------------------------


def _left_sum(values) -> float:
    """Floats added in order from the left, starting from 0.

    The builtin ``sum`` does this up to Python 3.11; from 3.12 it adds floats
    with compensation, which changes last bits, so totals fold explicitly.
    """
    return functools.reduce(operator.add, values, 0)


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
    cardinality: Power
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


def _dof_report(K, d, N, size, log_inv_r, entropies, ratio_bound):
    """The report of per-receiver (H_full, H_int) pairs: each receiver's
    terms min(H / log2(1/r), 1) (0 when r = 1) and their left-folded total."""
    receivers = []
    for i, (h_full, h_int) in enumerate(entropies, 1):
        if log_inv_r == 0.0:
            term_full = term_int = 0.0
        else:
            term_full = min(h_full / log_inv_r, 1.0)
            term_int = min(h_int / log_inv_r, 1.0)
        receivers.append(ReceiverTerms(i, h_full, h_int, term_full, term_int))
    return DofReport(
        K=K,
        degree=d,
        coeff_range=N,
        cardinality=size,
        log_inv_r=log_inv_r,
        receivers=tuple(receivers),
        total=_left_sum(t.contribution for t in receivers),
        interference_ratio_bound=ratio_bound,
    )


def multiplicity_profile(K: int, d: int) -> Dict[int, int]:
    """{t: n_t(d)}, t = 1..min(K-1, d+1): the interference coordinates t
    interferers share.

    The coordinates are the monomials alpha + e_ij, |alpha| <= d, j an
    interferer.  Those divisible by the variables of s given interferers
    number phi(d+1-s), 0 past s = d+1, so by inclusion-exclusion
    n_t = sum_{s>=t} (-1)^(s-t) C(s, t) C(K-1, s) phi(d+1-s).  No
    coordinate has more than d+1 variables, so t stops at d+1.  A negative
    d is refused: it has no monomials, not an empty profile.
    """
    if d < 0:
        raise ValueError(f"degree bound must be non-negative, got d={d}")
    top = min(K - 1, d + 1)
    phi = [monomial_count(K * (K - 1), d + 1 - s) for s in range(top + 1)]
    return {
        t: sum((-1) ** (s - t) * math.comb(s, t) * math.comb(K - 1, s) * phi[s]
               for s in range(t, top + 1))
        for t in range(1, top + 1)
    }


def profile_bound(K: int, d: int, N: int) -> DofReport:
    """The DoF lower bound at (d, N) of every channel that passes the gate.

    The caller runs the gate at degree d+1.  Receiver i's interference is
    sum_{j != i, alpha} a_{j,alpha} h_ij f_alpha, the a i.i.d. uniform on
    {1..N}, alpha over the degree-<=d monomials.  ``basis_values`` builds
    each f as a product of entries, so h_ij f_alpha = f_{alpha + e_ij} and
    the interference is sum_beta c_beta f_beta, c_beta summing the
    a_{j, beta - e_ij} of the t_beta interferers reaching beta.  The
    degree-(d+1) values are independent, so the value and the integer
    vector c determine each other; alpha -> alpha + e_ij is injective, so
    the coordinates use disjoint a's and are independent.  Hence H_int =
    sum_t n_t H_t(N) (:func:`multiplicity_profile`), H_t the entropy of a
    sum of t uniforms.  The phi(d) desired coordinates h_ii f_alpha are
    separate, each uniform: H_full = phi(d) log2 N + H_int, and |W_N| =
    N^phi(d), kept as the pair (N, phi(d)), so no degree is too large to
    write.  Nothing here reads the channel, so the K receivers' terms are
    equal.  H_t comes from the scaled-uniform kernel, whose caps refuse
    loudly; n_t H_t is folded from the left in t order.  A phi or n_t past
    the float range raises ``OverflowError``.
    """
    if N < 1:
        raise ValueError(f"coefficient range N must be >= 1, got {N}")
    size = Power(N, monomial_count(K * (K - 1), d))  # refuses d < 0
    h_int = _left_sum(
        n * _scaled_uniform_law((1,) * t, N)[0]
        for t, n in multiplicity_profile(K, d).items()
    )
    h_full = size.exponent * math.log2(N) + h_int
    return _dof_report(K, d, N, size, size.log_inv_r, [(h_full, h_int)] * K,
                       interference_ratio_bound(K, d, N))


def dof_lower_bound(
    matrix: ChannelMatrix,
    d: int,
    N: int,
    waive_condition: bool = False,
) -> DofReport:
    """Per-receiver dimension terms and the total DoF lower bound at (d, N).

    Unless waived, rational independence is first checked at degree d+1 (the
    degree actually used by the separation argument); a dependent channel
    raises :class:`ConditionNotSatisfiedError` carrying the certificate.  A
    channel that passes is evaluated by :func:`profile_bound`, which
    depends only on (K, d, N).  A waived call computes the exact laws of
    this channel's received sums instead; it is the only path for a
    dependent channel, and the oracle the profile is tested against.
    """
    if not fully_connected(matrix):
        raise ValueError("DoF bound refused: channel is not fully connected")
    if not waive_condition:
        condition_mod.require_independent(matrix, d + 1)
        return profile_bound(matrix.K, d, N)
    construction = build_w_n(matrix, d, N)
    entropies = [
        (sum_entropy_stats(matrix, i, True, construction)[0],
         sum_entropy_stats(matrix, i, False, construction)[0])
        for i in range(1, matrix.K + 1)
    ]
    return _dof_report(matrix.K, d, N, construction.size,
                       construction.log_inv_r, entropies,
                       interference_ratio_bound(matrix.K, d, N))


# -- sweeps ----------------------------------------------------------------


def sweep(
    matrix: ChannelMatrix,
    degrees: Sequence[int],
    ranges: Sequence[int],
    waive_condition: bool = False,
) -> List[Tuple[DofReport, float]]:
    """(report, seconds) for each cell of the (d, N) grid, degree-major.

    The grid is gated once, by :func:`condition.require_independent` at
    max(degrees)+1: the family only grows with the degree, so that pass is
    a pass at every d+1.  Only when it raises is each degree gated at d+1,
    in the order given, so the first failing degree raises with its own
    report.  Each cell of a passed grid is a :func:`profile_bound`, the
    report ``dof_lower_bound`` returns; a waived grid runs the exact path of
    ``dof_lower_bound`` in every cell.

    At a fixed degree the total is not promised to increase in N: at d=0 it
    is N-invariant (0 for K >= 3), and the approach to K/2 comes from raising d.
    An empty ``degrees`` or ``ranges`` is refused before any gate runs.
    """
    import time

    if not degrees or not ranges:
        raise ValueError("sweep needs at least one degree and one range")
    if not waive_condition:
        try:
            condition_mod.require_independent(matrix, max(degrees) + 1)
        except (ConditionNotSatisfiedError, CapExceededError):
            for d in degrees:
                condition_mod.require_independent(matrix, d + 1)
            raise
    cells = []
    for d in degrees:
        for N in ranges:
            start = time.perf_counter()
            if waive_condition:
                report = dof_lower_bound(matrix, d, N, waive_condition=True)
            else:  # a zero h_ij would have failed the gate at degree 1
                report = profile_bound(matrix.K, d, N)
            cells.append((report, time.perf_counter() - start))
    return cells


# -- the rational example class --------------------------------------------


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
    is reported alongside the exactly computed total.  Receivers whose
    interference coefficients have the same sorted |h_ij| share one law
    (see :func:`_signature`), so the kernel runs once per distinct one.  It runs
    on the coefficients as given, not rescaled, so the width cap applies to
    the law the report describes.  The interference support of receiver i
    spans (N-1) times the sums of its negative and of its positive
    coefficients.
    """
    if K < 2:
        raise ValueError(f"need K >= 2 users, got K={K}")
    if N < 1:
        raise ValueError(f"alphabet size N must be >= 1, got {N}")
    if len(offdiag) != K or any(len(row) != K for row in offdiag):
        raise ValueError(f"off-diagonal entries must form a {K}x{K} grid")
    matrix = integer_offdiag_channel(offdiag)
    rows = [[matrix.entry(i, j).constant_value() for j in range(1, K + 1) if j != i]
            for i in range(1, K + 1)]
    h_max = max(abs(c) for coeffs in rows for c in coeffs)
    base = 2 * h_max * K * N
    contraction = Fraction(1, base**2)
    log_inv_r = 2.0 * math.log2(base)
    h_diag = math.log2(N)
    entropies = []
    law = functools.cache(lambda signature: _scaled_uniform_law(signature, N))
    lo = hi = 0
    for coeffs in rows:
        h_int, _ = law(tuple(sorted(abs(c) for c in coeffs)))
        lo = min(lo, (N - 1) * sum(c for c in coeffs if c < 0))
        hi = max(hi, (N - 1) * sum(c for c in coeffs if c > 0))
        entropies.append((h_diag + h_int, h_int))
    report = _dof_report(K, None, N, Power(N, 1), log_inv_r, entropies, None)
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
