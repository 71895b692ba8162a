"""Self-similar distributions with a common contraction ratio.

An :class:`IFSSpec` fixes the maps x -> r*x + w_i and the probability vector
over the offsets.  The module evaluates the entropy/log-contraction dimension
formula, the open-set separation bound, an exact-overlap search over words of
equal depth, and deterministic truncated-series sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import CapExceededError

#: Cap on the number of equal-length word pairs inspected by the overlap search.
DEFAULT_PAIR_CAP = 5 * 10**6


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
    """Shannon entropy of the offset label distribution, in bits."""
    return -sum(float(p) * math.log2(p) for p in spec.probs if p > 0)


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
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    n = spec.n
    total_pairs = sum(n**L * (n**L - 1) // 2 for L in range(1, max_depth + 1))
    if total_pairs > DEFAULT_PAIR_CAP:
        raise CapExceededError(
            "overlap word pairs (reduce max_depth)", total_pairs, DEFAULT_PAIR_CAP
        )
    exact = spec.is_rational() and tolerance == 0
    atoms = spec.atoms if exact else [float(a) for a in spec.atoms]
    r = spec.r if exact else float(spec.r)
    out: List[OverlapPair] = []
    # Words in product (lexicographic) order with their base points, each
    # depth extended from the last by one appended letter and one add.
    words = [()]
    values = [Fraction(0) if exact else 0.0]
    scale = Fraction(1) if exact else 1.0
    for depth in range(1, max_depth + 1):
        steps = [scale * a for a in atoms]
        words = [word + (idx,) for word in words for idx in range(n)]
        values = [v + step for v in values for step in steps]
        scale *= r
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


def _split_sizes(count: int, chunks: int) -> List[int]:
    base, extra = divmod(count, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


def sample(
    spec: IFSSpec,
    depth: int,
    count: int,
    seed,
    chunks: int = 1,
) -> np.ndarray:
    """``count`` draws of the depth-truncated series sum_{k<depth} r^k W_k.

    Deterministic for a fixed (seed, chunks); chunk seeds are derived by
    seed-sequence spawning so chunks can be generated independently.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(chunks)
    atoms = spec.atoms_float()
    probs = np.array([float(p) for p in spec.probs])
    probs = probs / probs.sum()
    r = float(spec.r)
    parts = []
    for child, size in zip(children, _split_sizes(count, chunks)):
        if size == 0:
            continue
        rng = np.random.default_rng(child)
        acc = np.zeros(size)
        scale = 1.0
        for _ in range(depth):
            idx = rng.choice(spec.n, size=size, p=probs)
            acc += scale * atoms[idx]
            scale *= r
        parts.append(acc)
    return np.concatenate(parts)


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
    """
    # scipy.stats is imported here, its only use: it dominates the package
    # import time, which every CLI call would otherwise pay.
    from scipy.stats import ks_2samp

    if depth < 2:
        raise ValueError("depth must be >= 2")
    if count < 1:
        raise ValueError("count must be >= 1")
    ss = np.random.SeedSequence(seed)
    s_direct, s_scaled, s_offset = ss.spawn(3)
    direct = sample(spec, depth, count, s_direct)
    inner = sample(spec, depth - 1, count, s_scaled)
    rng = np.random.default_rng(s_offset)
    probs = np.array([float(p) for p in spec.probs])
    offsets = spec.atoms_float()[rng.choice(spec.n, size=count, p=probs / probs.sum())]
    r2 = float(spec.r) if r_second is None else float(r_second)
    return float(ks_2samp(direct, r2 * inner + offsets).statistic)
