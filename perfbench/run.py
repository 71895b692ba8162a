"""icdof benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installation.  One client on one thread drives
a closed loop: each pass runs the workload's fixed op list, the next op
starts when the previous one has finished.  BLAS/OpenMP are pinned to one
thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of start-up to ``icdof.cli`` imported and the input file
loaded), ``wall_ref`` (median pass wall time over the median reference
time, see ``REFERENCE_CODE``) and ``peak_rss_mb``; the raw median pass
time ``wall_s`` goes to the run detail.  ``--trace
1`` alternates untraced and traced passes and reports the per-layer metrics
(layer shares of the traced pass time, counts per traced pass) and the
tracing overhead.  The last stdout line is
the JSON result; the detail of the run (pass times, op times, failures and,
when traced, the span tree) goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

#: Thread settings applied before numpy is imported, here and in children.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 3
MIN_PASSES = 3
SUBPROCESS_TIMEOUT_S = 60

SETUP_CODE = """\
import sys, time
import icdof.cli
getattr(icdof.cli, sys.argv[2])(sys.argv[1])
print(time.monotonic())
"""

#: The reference: a fresh interpreter importing the program's heavy
#: dependencies and none of its code.  Timed next to every set-up, it tracks
#: how fast the machine runs Python at that moment, which on a shared host
#: drifts by half over minutes; ``wall_ref`` divides it out.
REFERENCE_CODE = """\
import time
import numpy, scipy.stats
print(time.monotonic())
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program():
    """Import ``icdof`` from this checkout's ``src/``; exit non-zero if impossible."""
    sys.path.insert(0, str(SRC))
    try:
        import icdof.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import icdof from {SRC}: {exc}")
    import icdof

    if not Path(icdof.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: icdof imported from {icdof.__file__}, not {SRC}")


def time_child(code: str, *argv: str) -> float:
    """Seconds from starting a fresh interpreter on ``code`` until the
    monotonic time it prints last (the clock is shared across processes)."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def measure_setup(workload, setup_s: list, ref_s: list) -> float:
    """One set-up and one reference, appended; returns their total seconds."""
    setup_s.append(time_child(SETUP_CODE, str(workload.setup_file),
                              workload.setup_loader))
    ref_s.append(time_child(REFERENCE_CODE))
    return setup_s[-1] + ref_s[-1]


def import_times() -> dict[str, float]:
    """Cumulative import times from ``python -X importtime``, in seconds."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import icdof.cli"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    found = dict.fromkeys(("numpy", "scipy.stats", "icdof.cli"), 0.0)
    for line in done.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) in found:
            found[m.group(2)] = int(m.group(1)) / 1e6
    return found


def run_pass(workload, recorder=None):
    """One pass over the op list: (wall seconds, per-op seconds, failures)."""
    failures, op_s = [], []
    start = time.perf_counter()
    with recorder.span("bench.pass") if recorder else nullcontext():
        for op in workload.ops:
            op_start = time.perf_counter()
            with recorder.span("bench.op") if recorder else nullcontext():
                try:
                    op.run()
                except Exception as exc:  # any op error is a counted failure
                    failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                    traceback.print_exc(file=sys.stderr)
            op_s.append(time.perf_counter() - op_start)
    return time.perf_counter() - start, op_s, failures


def per_layer(recorder, traced_s, untraced_s, cpu_s, imports) -> dict:
    """Per-layer metrics of the traced passes.

    Layer times are shares of the traced pass wall time (span total over the
    summed traced pass time), so a layer a workload never calls reads a
    share of 0 rather than a time of 0; absolute seconds are the share times
    ``trace.pass_s``.  Counts are per traced pass.
    """
    from spans import TARGETS, BENCH_SPANS, coordinate_calls, layer_totals

    n, wall = len(traced_s), sum(traced_s)
    totals = layer_totals(recorder.spans)
    counters = recorder.counters
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def ratio(part, whole):
        return part / whole if whole else 0.0

    for name in [target[2] for target in TARGETS] + ["bench.op"]:
        entry = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        put(f"{name}.share", entry["s"] / wall, "ratio")
        put(f"{name}.self_share", entry["self_s"] / wall, "ratio")
        put(f"{name}.calls", entry["calls"] / n, "count")
    for name in ("linalg.bareiss_echelon.entries", "condition.rank_deficit",
                 "dofbound.w_n.letters", "dofbound.sumset.support",
                 "dofbound.entropy_from_counts.values", "ifs.sample.draws",
                 "dimest.quantized_entropy.samples", "ifs.overlap.pairs",
                 "trace.hook_failures"):
        put(name, counters.get(name, 0) / n, "count")
    put("dofbound.w_n.unique_ratio",
        ratio(counters.get("dofbound.w_n.cardinality", 0),
              counters.get("dofbound.w_n.nominal", 0)), "ratio")
    put("dofbound.coordinate_share", ratio(*coordinate_calls(recorder.spans)),
        "ratio")
    put("python.gc.share", recorder.gc_ns / 1e9 / wall, "ratio")
    put("python.gc.collections", recorder.gc_collections / n, "count")
    put("run.cpu_s", statistics.median(cpu_s), "s")
    cli_import = imports["icdof.cli"]
    put("import.icdof_cli.s", cli_import, "s")
    put("import.numpy.share", ratio(imports["numpy"], cli_import), "ratio")
    put("import.scipy_stats.share", ratio(imports["scipy.stats"], cli_import),
        "ratio")
    traced = statistics.median(traced_s)
    put("trace.pass_s", traced, "s")
    put("trace.overhead_s", traced - statistics.median(untraced_s), "s")
    layer_self = sum(v["self_s"] for k, v in totals.items() if k not in BENCH_SPANS)
    put("trace.accounted_share", layer_self / wall, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        detail = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "ops": [op.name for op in workload.ops]}
        failures, op_times = [], []
        plain_s, traced_s, cpu_s = [], [], []
        recorder = Recorder()
        setup_s, ref_s = [], []
        if args.trace:
            imports = import_times()
        origin = time.perf_counter_ns()
        start = time.monotonic()
        deadline = start + args.seconds
        # Trace runs alternate untraced and traced passes, untraced first.
        min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
        while True:
            # Set-ups and references are spread over the run so that they
            # sample the same stretch of machine time as the passes; their
            # time is not charged to the pass window.
            if not args.trace and len(setup_s) < SETUP_RUNS and (
                time.monotonic() >= start + len(setup_s) * args.seconds / SETUP_RUNS
            ):
                deadline += measure_setup(workload, setup_s, ref_s)
            if args.trace and len(plain_s) > len(traced_s):
                cpu = time.process_time()
                with recorder.instrument():
                    wall, ops, failed = run_pass(workload, recorder)
                cpu_s.append(time.process_time() - cpu)
                traced_s.append(wall)
            else:
                wall, ops, failed = run_pass(workload)
                plain_s.append(wall)
            op_times.append(ops)
            failures.extend(failed)
            passes = plain_s + traced_s
            if len(passes) >= min_passes and (
                deadline - time.monotonic() < statistics.median(passes)
            ):
                break
        while not args.trace and len(setup_s) < SETUP_RUNS:
            measure_setup(workload, setup_s, ref_s)
        attempted = len(op_times) * len(workload.ops)
        if args.trace:
            metrics = per_layer(recorder, traced_s, plain_s, cpu_s, imports)
            detail["spans"] = recorder.to_json(origin)
        else:
            detail["wall_s"] = statistics.median(plain_s)
            metrics = {
                "wall_ref": {"value": detail["wall_s"] / statistics.median(ref_s),
                             "unit": "ratio"},
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB"},
            }
        detail.update(setup_s=setup_s, reference_s=ref_s, pass_s=plain_s,
                      traced_pass_s=traced_s, op_s=op_times, failures=failures,
                      outputs=workload.outputs, metrics=metrics)
        (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1),
                                             encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}", file=sys.stderr)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
