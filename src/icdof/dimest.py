"""Empirical information dimension via quantized-entropy slopes.

The dimension of a distribution is the growth rate of H(floor(k X)/k) in
log k.  The estimator samples the truncated self-similar series, computes
plug-in entropies of floor(k X) over a grid of quantization levels, and fits
the slope of entropy (bits) against log2 k.  Grids aligned with powers of
1/r tame the log-periodic oscillation self-similar measures exhibit.

The estimator sorts its samples once for the whole grid.  x -> floor(k*x) is
monotone, so sorted samples give sorted cells, whose run lengths are the
counts ``np.unique`` returns, in its order: the entropies are the same floats.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import ifs
from .ifs import IFSSpec


#: ``quantized_entropy`` counts the cells of this many samples at a time.
_BLOCK = 1 << 16


def quantized_entropy(
    samples: np.ndarray, k: int, miller_madow: bool = False
) -> float:
    """Plug-in entropy in bits of the multiset {floor(k * x)}.

    With ``miller_madow`` the small-sample bias correction
    (occupied - 1)/(2 n ln 2) is added.  The cells are counted by their runs,
    in increasing cell order; ``-0.0`` and ``0.0`` compare equal and share a
    run.  Samples whose cells do not come out sorted are counted from a
    sorted copy: x -> floor(k*x) is monotone, so its cells come out sorted,
    and the counts and their order, and so the float sum, are the same.
    On sorted samples no copy is made: beyond the counts, at most
    ``_BLOCK`` cells are held at once.
    """
    if k < 1:
        raise ValueError(f"quantization level must be >= 1, got {k}")
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n == 0:
        raise ValueError("need at least one sample")
    counts = _sorted_cell_counts(samples, k)
    if counts is None:
        counts = _sorted_cell_counts(np.sort(samples), k)
    if counts is None:  # NaN sorts last and fails every comparison
        raise ValueError("samples must not be NaN")
    occupied = len(counts)
    if occupied > n / 10:
        warnings.warn(
            f"{occupied} occupied cells for {n} samples at k={k}; "
            "entropy estimate is likely undersampled",
            stacklevel=2,
        )
    p = counts / n
    entropy = float(-(p * np.log2(p)).sum())
    if miller_madow:
        entropy += (occupied - 1) / (2 * n * math.log(2))
    return entropy


def _sorted_cell_counts(samples: np.ndarray, k: int) -> np.ndarray | None:
    """Run lengths of floor(k*x) along ``samples``, or None unless every cell
    is at least the one before it (a NaN cell never is).

    The cells are built one block at a time behind the last cell of the
    block before, which the first block takes from its own first cell.
    """
    n = samples.size
    window = np.empty(min(n, _BLOCK) + 1)
    starts = []
    for begin in range(0, n, _BLOCK):
        part = samples[begin:begin + _BLOCK]
        cells = window[:part.size + 1]
        np.multiply(part, k, out=cells[1:])
        np.floor(cells[1:], out=cells[1:])
        if begin == 0:
            cells[0] = cells[1]
        if not (cells[1:] >= cells[:-1]).all():
            return None
        starts.append(np.flatnonzero(cells[1:] != cells[:-1]) + begin)
        window[0] = cells[-1]
    return np.diff(np.concatenate(starts), prepend=0, append=n)


def required_depth(spec: IFSSpec, k_max: int) -> int:
    """Smallest depth m >= 1 with r^m <= 1/(2 k_max).

    The truncation tail is at most r^m max|atom| / (1 - r), so it stays
    below the finest quantization cell 1/k_max only when max|atom| / (1 - r)
    <= 2; the rule does not read the atoms.  For Cantor (r = 1/3, atoms 0
    and 2) at k_max = 81, depth 5 leaves a tail of up to 3 * 3^-5 = 1/81,
    one whole cell.

    The test is exact, (1/r)^m >= 2 k_max in ``Fraction`` arithmetic (a
    float r is an exact binary fraction).  The float logs only give the
    first m tried, which is lowered while m - 1 passes and raised until m
    does: from them alone, r = 1/3 at k_max = (3^34 + 1)/2 gives 34, one
    short.
    """
    inv_r = 1 / Fraction(spec.r)
    target = 2 * k_max
    m = max(1, math.ceil(math.log(target) / (
        math.log(inv_r.numerator) - math.log(inv_r.denominator))))
    while m > 1 and inv_r ** (m - 1) >= target:
        m -= 1
    while inv_r**m < target:
        m += 1
    return m


def aligned_k_grid(spec: IFSSpec, k_min: int, k_max: int) -> list[int]:
    """Quantization levels at powers of 1/r within [k_min, k_max].

    A rational r keeps 1/r a ``Fraction``, so every power is exact before
    it is rounded; float powers are not exact past 2^53.  A float r keeps
    float powers.
    """
    if not 1 <= k_min <= k_max:
        raise ValueError(f"need 1 <= k_min <= k_max, got {k_min}..{k_max}")
    inv_r = 1 / spec.r
    grid = []
    j = 1
    while True:
        k = round(inv_r**j)
        if k > k_max:
            break
        if k >= k_min and (not grid or k > grid[-1]):
            grid.append(k)
        j += 1
    if not grid:
        raise ValueError(
            f"no power of 1/r = {float(inv_r):.4g} falls in [{k_min}, {k_max}]"
        )
    return grid


@dataclass(frozen=True)
class DimensionEstimate:
    spec: IFSSpec
    k_grid: Tuple[int, ...]
    entropies: Tuple[float, ...]
    pointwise: Tuple[float, ...]
    slope: float
    lower_proxy: float
    upper_proxy: float
    sample_count: int
    depth: int
    seed: int


def estimate_dimension(
    spec: IFSSpec,
    k_grid: Sequence[int],
    sample_count: int,
    depth: int | None = None,
    seed: int = 0,
    chunks: int = 1,
) -> DimensionEstimate:
    """Miller-Madow quantized entropies over ``k_grid`` and their slope.

    The truncation depth must satisfy r^depth <= 1/(2 max k); it is derived
    automatically when not given.  The pointwise min/max of H/log2(k) are
    reported as crude lower/upper dimension proxies.
    """
    k_grid = sorted(int(k) for k in k_grid)
    if not k_grid or k_grid[0] < 1:
        raise ValueError("k_grid must hold positive integers")
    needed = required_depth(spec, k_grid[-1])
    if depth is None:
        depth = needed
    elif depth < needed:
        raise ValueError(
            f"depth {depth} insufficient for k_max={k_grid[-1]}; "
            f"need depth >= {needed}"
        )
    samples = ifs.sample(spec, depth, sample_count, seed, chunks=chunks)
    samples.sort()
    entropies = [quantized_entropy(samples, k, True) for k in k_grid]
    log_k = np.log2(np.array(k_grid, dtype=float))
    if len(k_grid) > 1:
        slope = float(np.polyfit(log_k, np.array(entropies), 1)[0])
    else:
        slope = entropies[0] / float(log_k[0]) if log_k[0] else 0.0
    pointwise = tuple(
        float(h / lk) if lk else 0.0 for h, lk in zip(entropies, log_k)
    )
    return DimensionEstimate(
        spec=spec,
        k_grid=tuple(k_grid),
        entropies=tuple(entropies),
        pointwise=pointwise,
        slope=slope,
        lower_proxy=min(pointwise),
        upper_proxy=max(pointwise),
        sample_count=sample_count,
        depth=depth,
        seed=seed if isinstance(seed, int) else -1,
    )


@dataclass(frozen=True)
class FormulaComparison:
    formula: float
    empirical: float
    abs_error: float
    within_tolerance: bool


def compare_with_formula(
    spec: IFSSpec, estimate: DimensionEstimate, tolerance: float = 0.05
) -> FormulaComparison:
    """Pair the entropy-formula dimension with the empirical slope."""
    if estimate.spec != spec:
        raise ValueError("estimate was computed for a different IFS spec")
    formula = ifs.hochman_dimension(spec)
    err = abs(formula - estimate.slope)
    return FormulaComparison(formula, estimate.slope, err, err <= tolerance)
