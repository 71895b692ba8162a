"""Command-line entry point.

Subcommands: check, build, bound, sweep, example-rational, fig1, estimate,
ifs.  JSON reports embed a run manifest (command, parameters, seeds, tool
version, input digests, wall clock); CSV payloads embed the same manifest
minus the wall clock as a single ``# manifest:`` comment line, so reruns
with identical manifests are byte-identical.

Exit codes: 0 success, 1 domain errors (caps, invalid channels, failed
independence, sizes past the float range), 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, condition, dimest, dofbound, ifs
from .channel import load_channel_file
from .errors import CapExceededError, ChannelFormatError, ConditionNotSatisfiedError
from .ifs import IFSSpec


# -- serialization helpers -------------------------------------------------


#: +1 for an opening and -1 for a closing bracket or brace, by byte value.
_DEPTH_STEP = np.zeros(256, np.int8)
_DEPTH_STEP[[ord("["), ord("{")]] = 1
_DEPTH_STEP[[ord("]"), ord("}")]] = -1


def _dump_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, from the C encoder.

    ``json.dumps`` falls back to its pure-Python encoder whenever ``indent``
    is set (CPython 3.11 and earlier).  Here the C encoder writes the compact text with the separators
    ``","`` and ``": "`` that ``indent=2`` uses, so only the line breaks and
    indents are missing, and numpy inserts them in one output array:

    * ``ensure_ascii`` escapes every control and non-ASCII character, so the
      text is ASCII, and a backslash occurs only inside a string, where it
      opens an escape.  With each escaped backslash pair masked, a ``"`` is a
      string delimiter exactly when no backslash precedes it, and the parity
      of their running count tells string bytes from structural ones.
    * The indented encoder writes ``"\\n"`` plus two spaces per open
      container after each ``[``/``{`` that is not closed at once and after
      each ``,``, and the same before each ``]``/``}`` that does not close an
      empty container.  Numbers, ``true``/``false``/``null`` and
      ``NaN``/``Infinity`` hold no structural character.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ": ")).encode("ascii")
    raw = np.frombuffer(text, np.uint8)
    masked = np.frombuffer(text.replace(b"\\\\", b"\0\0"), np.uint8)
    quote = masked == ord('"')
    quote[1:] &= masked[:-1] != ord("\\")
    inside = np.logical_xor.accumulate(quote)
    step = _DEPTH_STEP[raw]
    step[inside] = 0
    # The encoder's recursion limit bounds the nesting depth far below 2^31;
    # output offsets are not bounded, so they are intp.
    depth = np.cumsum(step, dtype=np.int32)
    opens, closes = step > 0, step < 0
    # empty[i + 1]: byte i opens an empty container; empty[i]: byte i closes one.
    empty = np.zeros(raw.size + 1, bool)
    empty[1:-1] = opens[:-1] & closes[1:]
    breaks = (opens & ~empty[1:]) | ((raw == ord(",")) & ~inside)
    shut = closes & ~empty[:-1]
    width = 2 * depth + 1
    before, after = width * shut, width * breaks
    pos = np.cumsum(before + after, dtype=np.intp) - after
    pos += np.arange(raw.size)
    out = np.full(pos[-1] + after[-1] + 2, ord(" "), np.uint8)
    out[pos] = raw
    out[pos[shut] - before[shut]] = ord("\n")
    out[pos[breaks] + 1] = ord("\n")
    out[-1] = ord("\n")
    return out.tobytes().decode("ascii")


def _digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(command: str, params: dict, inputs: dict | None = None, seeds=None):
    return {
        "command": command,
        "parameters": params,
        "seeds": seeds,
        "tool_version": __version__,
        "input_digests": {k: _digest(v) for k, v in (inputs or {}).items()},
    }


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_report(manifest: dict, report: dict, started: float, out_path) -> None:
    manifest = dict(manifest)
    manifest["wall_clock_s"] = time.perf_counter() - started
    _emit(_dump_json({"manifest": manifest, "report": report}), out_path)


def _csv_payload(manifest: dict, header: list[str], rows: list[list]) -> str:
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _condition_report_dict(report: condition.ConditionReport) -> dict:
    receivers = []
    for v in report.verdicts:
        entry = {
            "receiver": v.receiver,
            "independent": v.independent,
            "checked_up_to_degree": v.degree,
            "rank": v.rank,
            "family_size": v.family_size,
        }
        if v.certificate is not None:
            entry["certificate"] = {
                "a": list(v.certificate.a),
                "b": list(v.certificate.b),
            }
        receivers.append(entry)
    return {
        "degree": report.degree,
        "independent": report.independent,
        "receivers": receivers,
    }


def _size_fields(size: dofbound.Power) -> dict:
    """|W| = b^e as ``"b^e"`` and r = |W|^-2 as ``"1/b^(2e)"``, never
    multiplied out, so a report of any size is written exactly."""
    return {"cardinality": f"{size.base}^{size.exponent}",
            "contraction": f"1/{size.base}^({2 * size.exponent})"}


def _dof_report_dict(report: dofbound.DofReport) -> dict:
    out = dataclasses.asdict(report)
    out.update(_size_fields(report.cardinality))
    if report.degree is None:
        out["contraction"] = None
    return out


def _parse_ifs_value(v):
    if isinstance(v, str):
        if "/" in v:
            return Fraction(v)
        return Fraction(v) if v.lstrip("+-").isdigit() else float(v)
    if isinstance(v, int):
        return Fraction(v)
    return float(v)


def parse_ifs_spec(text: str) -> IFSSpec:
    """IFS spec from inline JSON or a file path."""
    path = Path(text)
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
    else:
        doc = json.loads(text)
    if not isinstance(doc, dict) or "r" not in doc or "atoms" not in doc:
        raise ValueError(
            'IFS spec must be an object with "r" and "atoms" (optional "probs")'
        )
    probs = doc.get("probs")
    try:
        r = _parse_ifs_value(doc["r"])
        atoms = tuple(_parse_ifs_value(a) for a in doc["atoms"])
        probs = tuple(Fraction(p) for p in probs) if probs else None
    except (ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"IFS spec holds a malformed number: {exc}") from None
    return IFSSpec(r, atoms, probs)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


# -- subcommands -----------------------------------------------------------


def cmd_check(args) -> int:
    started = time.perf_counter()
    matrix = load_channel_file(args.channel)
    if args.receiver is not None:
        verdict = condition.check_condition_star(matrix, args.degree, args.receiver)
        report = condition.ConditionReport(args.degree, (verdict,))
    else:
        report = condition.check_all(matrix, args.degree)
    manifest = _manifest(
        "check",
        {"degree": args.degree, "receiver": args.receiver},
        {"channel": args.channel},
    )
    _write_report(manifest, _condition_report_dict(report), started, args.out)
    return 0


def cmd_build(args) -> int:
    started = time.perf_counter()
    matrix = load_channel_file(args.channel)
    if not args.waive_condition:
        condition.require_independent(matrix, args.degree)
    construction = dofbound.build_w_n(matrix, args.degree, args.range)
    report = {
        "degree": construction.degree,
        "coeff_range": construction.coeff_range,
        "phi": len(construction.basis),
        **_size_fields(construction.size),
        "log_inv_r": construction.log_inv_r,
        "unique_representation": construction.unique_representation,
    }
    manifest = _manifest(
        "build",
        {
            "degree": args.degree,
            "range": args.range,
            "waive_condition": args.waive_condition,
        },
        {"channel": args.channel},
    )
    _write_report(manifest, report, started, args.out)
    return 0


def cmd_bound(args) -> int:
    started = time.perf_counter()
    matrix = load_channel_file(args.channel)
    report = dofbound.dof_lower_bound(
        matrix, args.degree, args.range, waive_condition=args.waive_condition
    )
    manifest = _manifest(
        "bound",
        {
            "degree": args.degree,
            "range": args.range,
            "waive_condition": args.waive_condition,
        },
        {"channel": args.channel},
    )
    _write_report(manifest, _dof_report_dict(report), started, args.out)
    return 0


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    matrix = load_channel_file(args.channel)
    degrees, ranges = _int_list(args.degrees), _int_list(args.ranges)
    cells = dofbound.sweep(
        matrix, degrees, ranges, waive_condition=args.waive_condition
    )
    manifest = _manifest(
        "sweep",
        {
            "degrees": args.degrees,
            "ranges": args.ranges,
            "waive_condition": args.waive_condition,
        },
        {"channel": args.channel},
    )
    header = ["degree", "coeff_range", "cardinality", "log_inv_r", "total",
              "interference_ratio_bound"]
    rows = [
        [c.degree, c.coeff_range, _size_fields(c.cardinality)["cardinality"],
         c.log_inv_r, c.total, c.interference_ratio_bound]
        for c in cells
    ]
    _emit(_csv_payload(manifest, header, rows), args.out)
    if args.out:
        summary = dict(manifest)
        summary["wall_clock_s"] = time.perf_counter() - started
        summary["cell_seconds"] = [c.seconds for c in cells]
        sys.stdout.write(_dump_json({"manifest": summary, "out": str(args.out)}))
    return 0


def cmd_example_rational(args) -> int:
    started = time.perf_counter()
    offdiag = [
        [args.hmax if i != j else 0 for j in range(args.k)] for i in range(args.k)
    ]
    result = dofbound.rational_example(args.k, offdiag, args.range)
    report = {
        "h_max": result.h_max,
        "contraction": f"{result.contraction.numerator}/"
                       f"{result.contraction.denominator}",
        "closed_form_bound": result.closed_form_bound,
        "interference_support": [result.interference_min, result.interference_max],
        "dof": _dof_report_dict(result.report),
    }
    manifest = _manifest(
        "example-rational",
        {"k": args.k, "hmax": args.hmax, "range": args.range},
    )
    _write_report(manifest, report, started, args.out)
    return 0


def cmd_fig1(args) -> int:
    started = time.perf_counter()
    report = dataclasses.asdict(dofbound.fig1_demo())
    _write_report(_manifest("fig1", {}), report, started, args.out)
    return 0


def cmd_estimate(args) -> int:
    started = time.perf_counter()
    spec = parse_ifs_spec(args.spec)
    if args.k_grid is not None:
        grid = _int_list(args.k_grid)
    else:
        grid = dimest.aligned_k_grid(spec, args.kmin, args.kmax)
    estimate = dimest.estimate_dimension(
        spec,
        grid,
        args.samples,
        depth=args.depth,
        seed=args.seed,
        chunks=args.threads,
    )
    comparison = dimest.compare_with_formula(spec, estimate)
    manifest = _manifest(
        "estimate",
        {
            "spec": args.spec,
            "k_grid": list(estimate.k_grid),
            "samples": args.samples,
            "depth": estimate.depth,
            "threads": args.threads,
        },
        seeds=[args.seed],
    )
    header = ["k", "H_bits", "H_over_logk"]
    rows = [
        [k, h, p]
        for k, h, p in zip(estimate.k_grid, estimate.entropies, estimate.pointwise)
    ]
    _emit(_csv_payload(manifest, header, rows), args.out)
    summary = dict(manifest)
    summary["wall_clock_s"] = time.perf_counter() - started
    if args.out:
        sys.stdout.write(
            _dump_json(
                {
                    "manifest": summary,
                    "report": {
                        "slope": estimate.slope,
                        "lower_proxy": estimate.lower_proxy,
                        "upper_proxy": estimate.upper_proxy,
                        "formula": comparison.formula,
                        "abs_error": comparison.abs_error,
                    },
                    "out": str(args.out),
                }
            )
        )
    return 0


def cmd_ifs(args) -> int:
    started = time.perf_counter()
    spec = parse_ifs_spec(args.spec)
    report = {
        "n": spec.n,
        "dimension_formula": ifs.hochman_dimension(spec),
        "label_entropy_bits": ifs.label_entropy_bits(spec),
    }
    if spec.n >= 2:
        sep = ifs.separation_check(spec)
        report["separation"] = {"bound": sep.bound, "satisfied": sep.satisfied}
    if args.overlap_depth is not None:
        pairs = ifs.exact_overlap_search(spec, args.overlap_depth, args.tolerance)
        report["overlaps"] = [
            {"word_a": list(p.word_a), "word_b": list(p.word_b),
             "delta_abs": p.delta_abs}
            for p in pairs
        ]
    if args.sample is not None:
        samples = ifs.sample(spec, args.depth, args.sample, args.seed,
                             chunks=args.threads)
        path = Path(args.samples_out or "samples.csv")
        if args.format == "f64":
            samples.astype("<f8").tofile(path)
        else:
            path.write_text(
                "\n".join(repr(float(x)) for x in samples) + "\n", encoding="utf-8"
            )
        report["samples_out"] = str(path)
        report["sample_count"] = int(args.sample)
    manifest = _manifest(
        "ifs",
        {
            "spec": args.spec,
            "overlap_depth": args.overlap_depth,
            "tolerance": args.tolerance,
            "sample": args.sample,
            "depth": args.depth,
            "format": args.format,
            "threads": args.threads,
        },
        seeds=[args.seed] if args.sample is not None else None,
    )
    _write_report(manifest, report, started, args.out)
    return 0


# -- parser ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icdof",
        description="Explicit K/2-DoF conditions and self-similar input "
        "constructions for constant interference channels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("check", help="decide rational independence up to a degree")
    p.add_argument("--channel", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--receiver", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", help="build the input alphabet W_N and report its size")
    p.add_argument("--channel", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--range", type=int, required=True, help="coefficient range N")
    p.add_argument("--waive-condition", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("bound", help="compute the DoF lower bound at (d, N)")
    p.add_argument("--channel", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--range", type=int, required=True, help="coefficient range N")
    p.add_argument("--waive-condition", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="grid of bounds over degrees and ranges (CSV)")
    p.add_argument("--channel", required=True)
    p.add_argument("--degrees", required=True, help="comma-separated degrees")
    p.add_argument("--ranges", required=True, help="comma-separated ranges N")
    p.add_argument("--waive-condition", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "example-rational",
        help="integer off-diagonal example class with its closed-form bound",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--hmax", type=int, default=1)
    p.add_argument("--range", type=int, required=True, help="alphabet size N")
    add_common(p)
    p.set_defaults(func=cmd_example_rational)

    p = sub.add_parser("fig1", help="sumset cardinality doubling illustration")
    add_common(p)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("estimate", help="empirical information dimension (CSV)")
    p.add_argument("--spec", required=True, help="IFS spec file or inline JSON")
    p.add_argument("--kmin", type=int, default=2)
    p.add_argument("--kmax", type=int, default=10**5)
    p.add_argument("--k-grid", default=None, help="explicit comma-separated levels")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help="sampling chunks")
    add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("ifs", help="IFS diagnostics and sample export")
    p.add_argument("--spec", required=True, help="IFS spec file or inline JSON")
    p.add_argument("--overlap-depth", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=0.0)
    p.add_argument("--sample", type=int, default=None, help="number of draws")
    p.add_argument("--depth", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help="sampling chunks")
    p.add_argument("--samples-out", default=None)
    p.add_argument("--format", choices=["csv", "f64"], default="csv")
    add_common(p)
    p.set_defaults(func=cmd_ifs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConditionNotSatisfiedError as exc:
        payload = {"error": str(exc)}
        if exc.report is not None:
            payload["condition_report"] = _condition_report_dict(exc.report)
        sys.stderr.write(_dump_json(payload))
        return 1
    except (CapExceededError, ChannelFormatError, ValueError, OverflowError,
            OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(_dump_json({"error": f"{type(exc).__name__}: {exc}"}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
