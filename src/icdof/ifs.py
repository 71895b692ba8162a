"""Self-similar distributions with a common contraction ratio.

An :class:`IFSSpec` fixes the maps x -> r*x + w_i and the probability vector
over the offsets.  The module evaluates the entropy/log-contraction dimension
formula, the open-set separation bound, an exact-overlap search over words of
equal depth, and deterministic truncated-series sampling.

The fast paths return exactly what the plain computation returns:

* The overlap search of a rational spec compares integers: depth-L base
  points scaled by the positive constant D*q^(L-1) (D the lcm of the atom
  denominators, r = p/q), which keeps their order and equality.
* Labels are drawn as ``Generator.choice(n, p=probs)`` draws them, from the
  same uniforms against the same normalised cdf.  Each level's step
  (r^k * atom) is read from a power-of-two step table at floor(u*M), and
  only a draw in a bucket that a cdf value cuts takes ``choice``'s binary
  search; see :func:`_step_table`.
* The fixed-point check's KS statistic is exact: integer counts at the tie
  ends of a blocked merge of the sorted samples, over the sample size; see
  :func:`fixed_point_discrepancy`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import CapExceededError

#: Cap on the number of equal-length word pairs inspected by the overlap search.
DEFAULT_PAIR_CAP = 5 * 10**6

#: The label step table has 2**_TABLE_BITS buckets, or the fewest power of
#: two >= 4n for n atoms past that, and at most 2**_GUIDE_BITS (8 MB).
_TABLE_BITS = 12
_GUIDE_BITS = 20

#: ``sample`` draws each level in blocks of this many labels.
_BLOCK = 1 << 16


def _as_number(x):
    """Keep exact rationals exact; everything else becomes float."""
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    return float(x)


@dataclass(frozen=True)
class IFSSpec:
    """Contraction parameter, offset atoms, and probability vector."""

    r: object
    atoms: Tuple[object, ...]
    probs: Tuple[Fraction, ...] | None = None

    def __post_init__(self):
        r = _as_number(self.r)
        atoms = tuple(_as_number(a) for a in self.atoms)
        if not 0 < r < 1:
            raise ValueError(f"contraction parameter must be in (0,1), got {self.r}")
        if not atoms:
            raise ValueError("need at least one atom")
        if not all(math.isfinite(a) for a in atoms):
            raise ValueError("atoms must be finite")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atoms must be pairwise distinct")
        if self.probs is None:
            probs = tuple(Fraction(1, len(atoms)) for _ in atoms)
        else:
            probs = tuple(Fraction(p) for p in self.probs)
            if len(probs) != len(atoms):
                raise ValueError("probability vector length must match atoms")
            if any(p < 0 for p in probs):
                raise ValueError("probabilities must be non-negative")
            if sum(probs) != 1:
                raise ValueError("probabilities must sum to 1 exactly")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return len(self.atoms)

    def is_rational(self) -> bool:
        return isinstance(self.r, Fraction) and all(
            isinstance(a, Fraction) for a in self.atoms
        )

    def atoms_float(self) -> np.ndarray:
        return np.array([float(a) for a in self.atoms], dtype=float)


def label_entropy_bits(spec: IFSSpec) -> float:
    """Shannon entropy of the offset label distribution, in bits.

    The terms are added from the left, as the builtin ``sum`` adds floats up
    to Python 3.11 (3.12 compensates), so the bits do not depend on the
    interpreter.
    """
    terms = (float(p) * math.log2(p) for p in spec.probs if p > 0)
    return -functools.reduce(operator.add, terms, 0)


def hochman_dimension(spec: IFSSpec) -> float:
    """min{ H(label) / log2(1/r), 1 }, the generic-parameter dimension value."""
    return min(label_entropy_bits(spec) / -math.log2(float(spec.r)), 1.0)


@dataclass(frozen=True)
class SeparationResult:
    bound: float
    satisfied: bool


def separation_check(spec: IFSSpec) -> SeparationResult:
    """Open-set sufficient condition r <= m/(m+M) on pairwise atom distances.

    Exact for a rational spec, in floats otherwise.
    """
    if spec.n < 2:
        raise ValueError("separation bound needs at least two atoms")
    if spec.is_rational():
        r, atoms = spec.r, spec.atoms
    else:
        r, atoms = float(spec.r), [float(a) for a in spec.atoms]
    diffs = [abs(a - b) for a, b in itertools.combinations(atoms, 2)]
    m, M = min(diffs), max(diffs)
    bound = m / (m + M)
    return SeparationResult(float(bound), r <= bound)


@dataclass(frozen=True)
class OverlapPair:
    """Two equal-length composition words whose base points nearly coincide."""

    word_a: Tuple[int, ...]
    word_b: Tuple[int, ...]
    delta_abs: float


def exact_overlap_search(
    spec: IFSSpec, max_depth: int, tolerance=0
) -> List[OverlapPair]:
    """Pairs of distinct equal-length words (depth <= max_depth) with |Delta| <= tolerance.

    Delta is the difference of the word base points, sum_t r^(t-1) *
    (w_a[t] - w_b[t]).  With a rational spec and tolerance 0 the comparison
    is exact.  Pairs are canonical (word_a < word_b lexicographically) and
    the result is sorted by (depth, word_a, word_b).
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if not tolerance >= 0:
        raise ValueError("tolerance must be >= 0")
    n = spec.n
    total_pairs = sum(n**L * (n**L - 1) // 2 for L in range(1, max_depth + 1))
    if total_pairs > DEFAULT_PAIR_CAP:
        raise CapExceededError(
            "overlap word pairs (reduce max_depth)", total_pairs, DEFAULT_PAIR_CAP
        )
    if spec.is_rational() and tolerance == 0:
        # Base points times D*q^(L-1) are integers V_L = q*V_(L-1) + p^(L-1)*D*a.
        den = math.lcm(*(a.denominator for a in spec.atoms))
        atoms = [int(a * den) for a in spec.atoms]
        grow, ratio = spec.r.denominator, spec.r.numerator
    else:
        atoms = [float(a) for a in spec.atoms]
        grow, ratio = 1, float(spec.r)
    out: List[OverlapPair] = []
    # Base points in product (lexicographic) word order, each depth extended
    # from the last by one appended letter and one add.  A word's index is
    # its rank in that order, so pairs are found and sorted as index pairs
    # (i < j), and words are built only for a depth that has pairs.
    values = [0]
    scale = 1
    for depth in range(1, max_depth + 1):
        steps = [scale * a for a in atoms]
        values = [grow * v + step for v in values for step in steps]
        scale *= ratio
        order = sorted(range(len(values)), key=values.__getitem__)
        found = []
        # |v_a - v_b| <= tol pairs found by a sliding window over sorted values.
        for pos_a, ia in enumerate(order):
            value_a = values[ia]
            for pos_b in range(pos_a + 1, len(order)):
                ib = order[pos_b]
                delta = values[ib] - value_a
                if delta > tolerance:
                    break
                found.append((ia, ib, delta) if ia < ib else (ib, ia, delta))
        if found:
            found.sort()
            words = list(itertools.product(range(n), repeat=depth))
            out += [OverlapPair(words[ia], words[ib], abs(float(delta)))
                    for ia, ib, delta in found]
    return out


def sample(
    spec: IFSSpec,
    depth: int,
    count: int,
    seed,
    chunks: int = 1,
) -> np.ndarray:
    """``count`` draws of the depth-truncated series sum_{k<depth} r^k W_k.

    Deterministic for a fixed (seed, chunks); chunk seeds are derived by
    seed-sequence spawning so chunks can be generated independently.  Chunks
    beyond ``count`` would be empty and are not spawned: a child's seed does
    not depend on how many siblings are spawned after it.  Each chunk fills
    its slice of one output array; ``np.array_split`` makes the first
    ``count % chunks`` slices one longer.

    The draws are the bytes ``Generator.choice(spec.n, p=probs)`` gives: each
    level adds ``(scale*atoms)[label]``, the same products as
    ``scale*atoms[label]``, with each label read from a step table (see
    :func:`_step_table`) and each level drawn by :func:`_add_draws`, so its
    temporaries (uniforms, bucket indices, gathered steps) are block-sized.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    out = np.zeros(count)
    _sample_into(out, spec, depth, seed, min(chunks, count))
    return out


def _sample_into(out: np.ndarray, spec: IFSSpec, depth: int, seed,
                 chunks: int) -> None:
    """Add into ``out`` (zeros) the ``out.size`` draws :func:`sample` makes,
    in ``chunks`` <= ``out.size`` chunks."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    table, cdf = _step_table(spec)
    atoms = spec.atoms_float()
    r = float(spec.r)
    for child, acc in zip(ss.spawn(chunks), np.array_split(out, chunks)):
        rng = np.random.default_rng(child)
        scale = 1.0
        for _ in range(depth):
            _add_draws(acc, scale * atoms, scale * table, cdf, rng)
            scale *= r


def _step_table(spec: IFSSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The unit step table and the cdf ``Generator.choice`` builds.

    ``choice(spec.n, p=probs)`` (probs the normalised float label law) builds
    ``cdf = probs.cumsum(); cdf /= cdf[-1]``, draws u by ``random`` and takes
    the label of u to be the first i with cdf[i] > u, by binary search.  The
    table has M = 2^m buckets, m = max(_TABLE_BITS, ceil(log2 4n)) capped at
    _GUIDE_BITS.  M is a power of two, so the bucket b = floor(u*M) and its
    edges b/M, (b+1)/M are exact.  Every u in bucket b has a label of at
    least lo[b], the first i with cdf[i] > b/M, and exactly lo[b] when no
    cdf value lies strictly inside the bucket (then cdf[lo[b]] >= (b+1)/M
    > u).  Such a bucket holds ``atoms[lo[b]]``; every other bucket is
    marked NaN.  Atoms are finite and a level's scale is at most 1, so no
    step is NaN, and the marker can only be a marked bucket.
    """
    probs = np.array([float(p) for p in spec.probs])
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    bits = max(_TABLE_BITS, (4 * spec.n - 1).bit_length())
    buckets = 1 << min(bits, _GUIDE_BITS)
    edges = np.arange(buckets + 1) / buckets
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    table = spec.atoms_float()[lo]
    table[np.searchsorted(cdf, edges[1:], side="left") > lo] = np.nan
    return table, cdf


def _add_draws(acc: np.ndarray, step: np.ndarray, table: np.ndarray,
               cdf: np.ndarray, rng) -> None:
    """``acc += step[labels]``, the labels ``choice`` draws from ``rng``,
    taken in blocks of ``_BLOCK``.

    ``table`` is :func:`_step_table`'s scaled by the level's scale, so an
    unmarked bucket holds ``step[label]`` itself and a draw costs one
    gather ``table[floor(u*M)]``.  A draw landing in a marked (NaN) bucket,
    where a cdf value may separate it from lo[b], takes ``choice``'s own
    ``cdf.searchsorted(u, side="right")``.  u is a multiple of 2^-53 in
    [0, 1), so u*M and u*M/M are exact: the uniforms are scaled in place
    and the late ones scaled back to the same doubles.  ``rng.random`` over
    consecutive blocks consumes the stream as one call over the whole array
    does, so the bytes do not depend on the block size.
    """
    buckets = table.size
    for start in range(0, acc.size, _BLOCK):
        part = acc[start:start + _BLOCK]
        u = rng.random(part.size)
        u *= buckets
        add = table[u.astype(np.intp)]
        late = np.flatnonzero(np.isnan(add))
        add[late] = step[cdf.searchsorted(u[late] / buckets, side="right")]
        part += add
        del u, add  # so the next block's draws are not held beside these


def fixed_point_discrepancy(
    spec: IFSSpec,
    depth: int,
    count: int,
    seed,
    r_second=None,
) -> float:
    """Two-sample KS statistic between X (depth m) and r*X' + W (depth m-1).

    Small values evidence the self-similar fixed-point equation; passing a
    wrong ``r_second`` is the negative control.

    The statistic is max_v |F1(v) - F2(v)| over the sample values v,
    computed in integers: h = max_v |(#first <= v) - (#second <= v)|, and
    h/count is the exact statistic, correctly rounded.  It is the
    ``ks_2samp`` statistic of SciPy's stats module bit for bit whenever
    count <= 10,000, where its exact mode returns h/count; above that it
    subtracts two rounded cdf values, which can differ from h/count in the
    last bit.

    h is read from a blocked merge of the two sorted samples.  Each round
    takes the next ``_BLOCK`` values of each side, x the smaller of the two
    windows' last values, and the piece of each window below x.  A value
    v < x lies above every value an earlier round took and below the last
    value of each window not yet empty, so every value equal to v on either
    side is inside its window: at each tie end of a piece,
    both counts are exact, the own one from the position and the other one
    from a ``searchsorted`` into the other piece.  x itself is counted by
    ``searchsorted(x, "right")`` over the rest of each sample, so its tie
    group, which may run past a window, is never split, and the next round
    starts past it.  Each round consumes a whole window, and every value is
    counted at its tie end on each side, so h does not depend on
    ``_BLOCK``.

    Memory: the two samples, 2*count floats, and block-sized pieces.  Both
    are drawn in place (X' is scaled in place and the offsets W added to it
    in blocks, as :func:`sample` draws a level, so they are the labels
    ``choice`` would draw from the offset stream), and no index array is
    built.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if count < 1:
        raise ValueError("count must be >= 1")
    s_direct, s_scaled, s_offset = np.random.SeedSequence(seed).spawn(3)
    first, second = np.zeros(count), np.zeros(count)
    _sample_into(first, spec, depth, s_direct, 1)
    _sample_into(second, spec, depth - 1, s_scaled, 1)
    second *= float(spec.r) if r_second is None else float(r_second)
    _add_draws(second, spec.atoms_float(), *_step_table(spec),
               np.random.default_rng(s_offset))
    first.sort()
    second.sort()
    i = j = gap = 0
    while i < count or j < count:
        window_a, window_b = first[i:i + _BLOCK], second[j:j + _BLOCK]
        x = min(w[-1] for w in (window_a, window_b) if w.size)
        piece_a = window_a[:window_a.searchsorted(x, "left")]
        piece_b = window_b[:window_b.searchsorted(x, "left")]
        # window[k] >= x > piece[-1], so the piece's last value is a tie end.
        for window, piece, other, own, base in (
            (window_a, piece_a, piece_b, i, j),
            (window_b, piece_b, piece_a, j, i),
        ):
            if piece.size:
                ends = np.flatnonzero(window[1:piece.size + 1] != piece)
                diff = ends + (own + 1 - base) - other.searchsorted(piece[ends], "right")
                gap = max(gap, int(np.abs(diff).max()))
        i += int(first[i:].searchsorted(x, "right"))
        j += int(second[j:].searchsorted(x, "right"))
        gap = max(gap, abs(i - j))
    return gap / count
