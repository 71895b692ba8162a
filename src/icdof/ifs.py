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
  same uniforms against the same normalised cdf, but the first i with
  cdf[i] > u is read from a guide table and one vectorized step, and found
  by ``choice``'s binary search only where those leave it open; see
  :func:`_label_sampler`.
* The fixed-point check's KS statistic is exact: an integer walk along the
  merged samples, over the sample size; see :func:`fixed_point_discrepancy`.
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

#: The label sampler's guide table has at most 2**_GUIDE_BITS entries (8 MB).
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
    # Words in product (lexicographic) order with their base points, each
    # depth extended from the last by one appended letter and one add.
    words = [()]
    values = [0]
    scale = 1
    for depth in range(1, max_depth + 1):
        steps = [scale * a for a in atoms]
        words = [word + (idx,) for word in words for idx in range(n)]
        values = [grow * v + step for v in values for step in steps]
        scale *= ratio
        order = sorted(range(len(words)), key=lambda t: (values[t], words[t]))
        # |v_a - v_b| <= tol pairs found by a sliding window over sorted values.
        for pos_a in range(len(order)):
            ia = order[pos_a]
            for pos_b in range(pos_a + 1, len(order)):
                ib = order[pos_b]
                delta = values[ib] - values[ia]
                if delta > tolerance:
                    break
                wa, wb = sorted((words[ia], words[ib]))
                out.append(OverlapPair(wa, wb, abs(float(delta))))
    out.sort(key=lambda p: (len(p.word_a), p.word_a, p.word_b))
    return out


def _label_sampler(spec: IFSSpec):
    """``draw(rng, size)``: the labels ``Generator.choice(spec.n, size, p=probs)``
    returns for ``rng``, with probs the normalised float label law.

    It consumes the same ``rng.random(size)`` and builds the same
    ``cdf = probs.cumsum(); cdf /= cdf[-1]`` that ``choice`` does.  The label
    of u is the first i with cdf[i] > u, which ``choice`` finds by binary
    search.  Here a guide table (Chen-Asau indexed search) over M = 2^m >= 4n
    buckets finds it: M is a power of two, so the bucket b = floor(u*M) and
    its edges b/M, (b+1)/M are exact.  ``lo[b]``, the first i with
    cdf[i] > b/M, is at most the label, and falls short of it by at most the
    number of cdf values strictly inside the bucket.  One step
    ``idx += cdf[idx] <= u`` therefore settles every bucket holding at most
    one such value.  If a bucket holds more, the draws still unsettled take
    ``choice``'s own binary search.
    """
    probs = np.array([float(p) for p in spec.probs])
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    buckets = 1 << min((4 * spec.n - 1).bit_length(), _GUIDE_BITS)
    edges = np.arange(buckets + 1) / buckets
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    crowded = (np.searchsorted(cdf, edges[1:], side="left") - lo).max() > 1

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        idx = lo[(u * buckets).astype(np.intp)]
        idx += cdf[idx] <= u
        if crowded:
            late = np.flatnonzero(cdf[idx] <= u)
            idx[late] = cdf.searchsorted(u[late], side="right")
        return idx

    return draw


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
    ``count % chunks`` slices one longer.  Adding ``(scale*atoms)[idx]`` adds
    the same products as ``scale*atoms[idx]``.  Each level is drawn by
    :func:`_add_draws`, so its temporaries (uniforms, labels, gathered
    steps) are block-sized.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    chunks = min(chunks, count)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(chunks)
    atoms = spec.atoms_float()
    draw = _label_sampler(spec)
    r = float(spec.r)
    out = np.zeros(count)
    for child, acc in zip(children, np.array_split(out, chunks)):
        rng = np.random.default_rng(child)
        scale = 1.0
        for _ in range(depth):
            _add_draws(acc, scale * atoms, draw, rng)
            scale *= r
    return out


def _add_draws(acc: np.ndarray, step: np.ndarray, draw, rng) -> None:
    """``acc += step[draw(rng, acc.size)]``, drawn in blocks of ``_BLOCK``.

    ``rng.random`` over consecutive blocks consumes the stream as one call
    over the whole array does, so the bytes do not depend on the block size.
    """
    for start in range(0, acc.size, _BLOCK):
        part = acc[start:start + _BLOCK]
        part += step[draw(rng, part.size)]


def truncation_bound(spec: IFSSpec, depth: int) -> float:
    """|X_infinity - X_depth| <= r^depth * max|atom| / (1 - r)."""
    r = float(spec.r)
    peak = max(abs(float(a)) for a in spec.atoms)
    return r**depth * peak / (1.0 - r)


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

    The statistic is max_x |F1(x) - F2(x)| over the two empirical cdfs,
    computed in integers.  Both samples are sorted in one array, and a
    stable argsort merges the two sorted runs.  Along the merge,
    walk = cumsum(+1 per first-sample point, -1 per second-sample point) is
    count*(F1(x) - F2(x)) at the last point of the tie group of each sample
    value x, and the maximum is taken at those points (the walk's last
    value is 0).  Returning that integer over ``count`` gives the exact
    statistic, correctly rounded.  It is the ``ks_2samp`` statistic of
    SciPy's stats module bit for bit whenever count <= 10,000, where its
    exact mode returns h/count; above that it subtracts two rounded cdf
    values, which can differ from h/count in the last bit.

    Memory: the two samples and the merge order, 2*count floats and
    2*count indices, and nothing else of their size.  The offsets W are
    added to r*X' in place, drawn in blocks as :func:`sample` draws (so
    they are the labels one ``draw(rng, count)`` returns).  The merge is
    walked ``_BLOCK`` positions at a time, carrying the walk value, and a
    block's last tie group is closed by the value one position ahead, so
    the integer maximum is the one the whole walk gives.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if count < 1:
        raise ValueError("count must be >= 1")
    ss = np.random.SeedSequence(seed)
    s_direct, s_scaled, s_offset = ss.spawn(3)
    both = np.empty(2 * count)
    first, second = both[:count], both[count:]
    first[:] = sample(spec, depth, count, s_direct)
    second[:] = sample(spec, depth - 1, count, s_scaled)
    second *= float(spec.r) if r_second is None else float(r_second)
    _add_draws(second, spec.atoms_float(), _label_sampler(spec),
               np.random.default_rng(s_offset))
    first.sort()
    second.sort()
    order = np.argsort(both, kind="stable")
    gap = walk = 0
    for start in range(0, order.size, _BLOCK):
        block = order[start:start + _BLOCK]
        ahead = both[order[start:start + _BLOCK + 1]]
        ends = ahead[1:] != ahead[:-1]
        walks = np.cumsum(np.where(block < count, 1, -1)) + walk
        gap = max(gap, int(np.abs(walks[:ends.size][ends]).max(initial=0)))
        walk = int(walks[-1])
    return gap / count
