"""Print every benchmark metric, or check that two sets of runs agree.

    python3 perfbench/report.py [--runs 3] [--workload NAME ...]
    python3 perfbench/report.py --sets 2 [--runs 10] [--workload NAME ...]

With one set, each workload is run ``--runs`` times untraced (seeds 1..runs)
and once traced; every end-to-end and per-layer metric is printed by name
with its unit and sample count, together with the tail pass time, the
failure ratio and the machine the numbers were taken on.

With ``--sets 2`` the steadiness self-check runs two sets of untraced runs
of the same code (the second set on fresh seeds) and reports, per workload
and end-to-end metric, both medians, both spreads (interquartile distance
over median) and the verdict against the bound in BENCHMARK.json:
``agree`` when both spreads are within the bound and the second median is
not worse than the first by more than the bound, ``unresolved`` when a
spread exceeds the bound, ``worse`` otherwise.  Exits 1 unless every row
agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import OUT_DIR, PINNED_THREADS  # noqa: E402

RUN_TIMEOUT_S = 300


def machine_info() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": PINNED_THREADS,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its detail record with the result line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    detail_path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    detail = json.loads(detail_path.read_text(encoding="utf-8"))
    detail["result"] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"  ran {workload} seed={seed} trace={trace}", file=sys.stderr)
    return detail


def spread(values: list[float]) -> float:
    """Interquartile distance over median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n/a (needs 11 passes, have {n})"
    value = sorted(samples)[n - 11]
    return f"{value!r} s  (p{100 * (n - 10) / n:.1f} of {n} passes)"


def print_metrics(bench: dict, workloads: list[str], runs: int, seconds: int) -> None:
    print(json.dumps({"machine": machine_info()}, indent=1))
    for workload in workloads:
        plain = [run_once(workload, seed, seconds, 0) for seed in range(1, runs + 1)]
        traced = run_once(workload, 1, seconds, 1)
        print(f"\n== {workload}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [d["metrics"][name]["value"] for d in plain]
            key = {"wall_ref": "pass_s", "setup_s": "setup_s"}.get(name)
            inner = sum(len(d[key]) for d in plain) if key else runs
            print(f"{name:36s} {statistics.median(values)!r} {metric['unit']}"
                  f"  (median of {runs} run values over {inner} samples)")
        passes = [t for d in plain for t in d["pass_s"]]
        print(f"{'wall_s':36s} {statistics.median(d['wall_s'] for d in plain)!r} s"
              f"  (median of {runs} run values over {len(passes)} passes)")
        print(f"{'wall_s_hi':36s} {tail(passes)}")
        attempted = sum(d["result"]["attempted"] for d in plain)
        failed = sum(d["result"]["failed"] for d in plain)
        print(f"{'fail_ratio':36s} {failed / attempted!r} ratio"
              f"  ({failed} of {attempted} ops)")
        for failure in sorted({f for d in plain for f in d["failures"]}):
            print(f"  FAILED {failure}")
        for key, value in plain[0]["outputs"].items():
            print(f"{'output.' + key:36s} {value}")
        n = len(traced["traced_pass_s"])
        for metric in bench["per_layer"]:
            name = metric["name"]
            value = traced["metrics"][name]["value"]
            print(f"{name:36s} {value!r} {metric['unit']}  ({n} traced passes)")


def steadiness(bench: dict, workloads: list[str], runs: int, seconds: int) -> bool:
    print(json.dumps({"machine": machine_info()}, indent=1))
    rows, ok = [], True
    for workload in workloads:
        sets = [[run_once(workload, seed, seconds, 0)
                 for seed in range(first, first + runs)]
                for first in (1, runs + 1)]
        a, b = ([d["wall_s"] for d in s] for s in sets)
        rows.append(f"{workload:20s} {'wall_s':12s} {statistics.median(a):12.6g} "
                    f"{statistics.median(b):12.6g} {spread(a):8.4f} {spread(b):8.4f}"
                    "      (raw pass time, not gated)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([d["metrics"][name]["value"] for d in s] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                change = -change
            spreads = (spread(a), spread(b))
            if max(spreads) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            else:
                verdict = "agree"
            ok &= verdict == "agree"
            rows.append(f"{workload:20s} {name:12s} {med_a:12.6g} {med_b:12.6g} "
                        f"{spreads[0]:8.4f} {spreads[1]:8.4f} {change:+8.4f} "
                        f"{bound:6.3f}  {verdict}")
    print(f"\n{'workload':20s} {'metric':12s} {'median A':>12s} {'median B':>12s} "
          f"{'spreadA':>8s} {'spreadB':>8s} {'B vs A':>8s} {'bound':>6s}  verdict")
    print("\n".join(rows))
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    workloads = args.workload or names
    if args.sets == 2:
        if args.runs < 2:
            parser.error("the steadiness check needs --runs >= 2")
        return 0 if steadiness(bench, workloads, args.runs, args.seconds) else 1
    print_metrics(bench, workloads, args.runs, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
