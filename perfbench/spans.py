"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the public functions of each layer by wrapping
them on their defining module for the length of the traced passes; every
other module attribute bound to the same function object (``from .x import
f`` aliases) is wrapped too, so calls through either name are seen.  The
originals are restored when the ``instrument`` block ends.  Nothing inside
the program is changed on disk.

The benchmark must keep working while the program changes under it, so a
target that no longer exists is skipped (its metrics read 0) and a counter
hook that cannot read a result is counted in ``trace.hook_failures``
instead of failing the op.

A span is ``[name, start_ns, end_ns, parent_index]``.  A layer's self time
is its span's duration minus the durations of its direct children; the code
is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _w_n_counts(args, kwargs, result):
    return {
        "dofbound.w_n.letters": len(result.elements),
        "dofbound.w_n.cardinality": result.cardinality,
        "dofbound.w_n.nominal": result.coeff_range ** len(result.basis),
    }


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _bareiss_counts(args, kwargs, result):
    rows = _first_arg(args, kwargs, "matrix")
    return {"linalg.bareiss_echelon.entries": len(rows) * len(rows[0]) if rows else 0}


#: (module, attribute path, span name, counter hook or None).  One entry per
#: layer boundary the benchmark reports on.
TARGETS = (
    ("icdof.cli", "main", "cli.main", None),
    ("icdof.channel", "load_channel_file", "channel.load_channel_file", None),
    ("icdof.algebra", "enumerate_monomials", "algebra.enumerate_monomials", None),
    ("icdof.linalg", "bareiss_echelon", "linalg.bareiss_echelon", _bareiss_counts),
    ("icdof.linalg", "kernel_from_echelon", "linalg.kernel_from_echelon", None),
    ("icdof.condition", "basis_values", "condition.basis_values", None),
    ("icdof.condition", "check_condition_star", "condition.check_condition_star",
     lambda a, k, r: {"condition.rank_deficit": r.family_size - r.rank}),
    ("icdof.condition", "DependenceCertificate.is_valid",
     "condition.certificate.is_valid", None),
    ("icdof.dofbound", "build_w_n", "dofbound.build_w_n", _w_n_counts),
    ("icdof.dofbound", "sumset_distribution", "dofbound.sumset_distribution",
     lambda a, k, r: {"dofbound.sumset.support": r.support_size}),
    ("icdof.dofbound", "sum_entropy_stats", "dofbound.sum_entropy_stats", None),
    ("icdof.dofbound", "entropy_from_counts", "dofbound.entropy_from_counts",
     lambda a, k, r: {"dofbound.entropy_from_counts.values":
                      len(_first_arg(a, k, "counts"))}),
    ("icdof.dofbound", "rational_example", "dofbound.rational_example", None),
    ("icdof.dofbound", "containment_check", "dofbound.containment_check", None),
    ("icdof.ifs", "sample", "ifs.sample",
     lambda a, k, r: {"ifs.sample.draws": len(r)}),
    ("icdof.ifs", "exact_overlap_search", "ifs.exact_overlap_search",
     lambda a, k, r: {"ifs.overlap.pairs": len(r)}),
    ("icdof.ifs", "fixed_point_discrepancy", "ifs.fixed_point_discrepancy", None),
    ("icdof.dimest", "quantized_entropy", "dimest.quantized_entropy",
     lambda a, k, r: {"dimest.quantized_entropy.samples":
                      len(_first_arg(a, k, "samples"))}),
    ("icdof.dimest", "estimate_dimension", "dimest.estimate_dimension", None),
)

#: Spans the benchmark itself opens; they are not program layers.
BENCH_SPANS = ("bench.pass", "bench.op")


class Recorder:
    """Spans, counters and garbage-collector pauses of the traced passes."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.gc_ns = 0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._gc_started = None

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter_ns(), 0,
                  self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, amount) -> None:
        self.counters[name] += amount

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self._gc_started is not None:
            self.gc_ns += time.perf_counter_ns() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    counts = hook(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.count("trace.hook_failures", 1)
                else:
                    for key, amount in counts.items():
                        self.count(key, amount)
            return result

        return wrapper

    @contextmanager
    def instrument(self):
        """Wrap every target for the block's duration, then restore."""
        patched = []
        try:
            for module_name, path, name, hook in TARGETS:
                *owner_path, attr = path.split(".")
                owner = sys.modules.get(module_name)
                for part in owner_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, name, hook)
                holders = [owner] if owner_path else [
                    module for key, module in list(sys.modules.items())
                    if key == "icdof" or key.startswith("icdof.")
                ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            patched.append((holder, key, original))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)

    def to_json(self, origin_ns: int) -> list[dict]:
        """The span tree with times in seconds from ``origin_ns``."""
        return [
            {"id": i, "name": name, "start_s": (start - origin_ns) / 1e9,
             "end_s": (end - origin_ns) / 1e9, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: summed duration ``s``, self time ``self_s``, ``calls``."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
    )
    for i, (name, start, end, parent) in enumerate(spans):
        entry = totals[name]
        entry["s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - child_ns[i]) / 1e9
        entry["calls"] += 1
    return totals


def coordinate_calls(spans: list[list]) -> tuple[int, int]:
    """(sum_entropy_stats calls that never reached sumset_distribution, all calls)."""
    reached = set()
    for name, _, _, parent in spans:
        if name != "dofbound.sumset_distribution":
            continue
        while parent >= 0:
            if spans[parent][0] == "dofbound.sum_entropy_stats":
                reached.add(parent)
            parent = spans[parent][3]
    calls = sum(1 for s in spans if s[0] == "dofbound.sum_entropy_stats")
    return calls - len(reached), calls
