"""Per-pair entropy loop: the reference ``dofbound.entropy_from_counts`` must equal.

The counts are grouped into (value, multiplicity) pairs in increasing order,
as Python ints, and the float terms ``group * value * log2(value)`` are added
one by one from the left.  ``icdof.dofbound.entropy_from_counts`` does the
same work in numpy; the tests require its result to be the same float, bit
for bit, as :func:`entropy_by_pairs`.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


def entropy_by_pairs(counts, total) -> float:
    """Shannon entropy in bits of integer counts, one Python step per pair.

    An ndarray is grouped by ``np.unique``, anything else by a ``Counter``;
    both give the same pairs in increasing order as Python ints.
    """
    if isinstance(counts, np.ndarray):
        values, groups = np.unique(counts, return_counts=True)
        pairs = zip(values.tolist(), groups.tolist())
    else:
        pairs = sorted(Counter(counts).items())
    acc = 0.0
    for value, group in pairs:
        if value > 0:
            acc += group * value * math.log2(value)
    return math.log2(total) - acc / total
