"""Seeded inputs, op lists and output checks of the four workloads.

Each workload writes its input files into a work directory and returns a
fixed list of ops.  An op goes through ``icdof.cli.main`` in-process (with
``--out`` files in the work directory) where a subcommand exists, and
through the public function otherwise; every op checks its output and
raises :class:`CheckError` when the check fails.  The seed only shapes the
generated inputs: valuations, polynomial coefficients and sampling seeds.

Why these workloads (predictions and seed-commit numbers: NOTES.md):

* ``bound_ladder``: gated generic K=3 ``bound`` cells, the paper's
  headline path; dominated by W_N enumeration.
* ``condition_check``: ``check`` on three K=3 channels at d=3 with both
  verdicts; dominated by exact elimination, builds no W_N.
* ``sum_laws``: exact sum laws by materialization through large supports
  (AlgebraElement convolution, the numpy scaled-uniform kernel, containment).
* ``dimension_estimate``: the only Monte Carlo workload (``estimate``,
  ``ifs``, the fixed-point check); runs no exact algebra.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from icdof import channel, cli, condition, dofbound, ifs


class CheckError(Exception):
    """An op ran but its output failed the benchmark's check."""


@dataclass
class Op:
    name: str
    run: Callable[[], None]


@dataclass
class Workload:
    name: str
    setup_file: Path
    setup_loader: str  # attribute of icdof.cli that loads ``setup_file``
    ops: list[Op]
    outputs: dict = field(default_factory=dict)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(value: float, golden: float, what: str) -> None:
    # A relative 1e-12 admits a reordered floating sum, nothing else.
    _expect(math.isclose(value, golden, rel_tol=1e-12, abs_tol=1e-12),
            f"{what}: got {value!r}, expected {golden!r}")


def _run_cli(argv: list[str]) -> str:
    """``icdof.cli.main`` in-process; returns its stdout, raises on exit != 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    _expect(code == 0, f"icdof {argv[0]} exited {code}: {err.getvalue()[-400:]}")
    return out.getvalue()


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["report"]


def _rational(rng) -> str:
    return str(Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10))))


def _channel_doc(K: int, rng, overrides: dict[str, str] | None = None) -> dict:
    """K x K channel over generators h11..hKK with a seed-drawn valuation."""
    names = [f"h{i}{j}" for i in range(1, K + 1) for j in range(1, K + 1)]
    overrides = overrides or {}
    return {
        "K": K,
        "generators": names,
        "valuation": {g: repr(float(rng.uniform(1.0, 2.0))) for g in names},
        "entries": [[overrides.get(f"h{i}{j}", f"h{i}{j}")
                     for j in range(1, K + 1)] for i in range(1, K + 1)],
    }


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _multi_term_doc(rng) -> dict:
    """K=3 channel with multi-term diagonal entries.

    h33 is a degree-2 polynomial in off-diagonal entries, so receiver 3's
    degree-3 family loses exactly phi(1) = 7 ranks (161 of 168) for any
    nonzero coefficients; receivers 1 and 2 stay independent (168).
    """
    return _channel_doc(3, rng, {
        "h11": f"h11 + {_rational(rng)}",
        "h22": f"h22 + {_rational(rng)}*h11",
        "h33": f"{_rational(rng)}*h12*h13 + {_rational(rng)}*h21",
    })


# -- bound_ladder ----------------------------------------------------------

#: Gated generic K=3 totals at the seed commit.  The d=0 totals are 0 by
#: construction (every received entropy is a multiple of log N).
LADDER_TOTALS = {
    (0, 2): 0.0, (0, 4): 0.0, (0, 8): 0.0, (0, 16): 0.0, (0, 32): 0.0,
    (1, 2): 0.1071428571428571,
    (1, 3): 0.13151711938775823,
    (1, 4): 0.1440386719039749,
}


def bound_ladder(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    path = _write_json(work / "generic3.json", _channel_doc(3, rng))
    wl = Workload("bound_ladder", path, "load_channel_file", [])
    largest = max(LADDER_TOTALS)

    def cell(d: int, N: int) -> Op:
        out = work / f"bound_d{d}_n{N}.json"

        def run():
            _run_cli(["bound", "--channel", str(path), "--degree", str(d),
                      "--range", str(N), "--out", str(out)])
            total = _report(out)["total"]
            _close(total, LADDER_TOTALS[d, N], f"total at d={d}, N={N}")
            if (d, N) == largest:
                wl.outputs["largest_cell"] = {"d": d, "N": N, "total": total}

        return Op(f"bound d={d} N={N}", run)

    wl.ops = [cell(d, N) for d, N in LADDER_TOTALS]
    return wl


# -- condition_check -------------------------------------------------------


def condition_check(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    product = f"{_rational(rng)}*h12*h13"
    # (file stem, document, degree, expected (independent, rank) per receiver)
    cases = [
        ("generic3", _channel_doc(3, rng), 3, [(True, 168)] * 3),
        ("multi3", _multi_term_doc(rng), 3,
         [(True, 168), (True, 168), (False, 161)]),
        ("product3", _channel_doc(3, rng, {"h32": product}), 3,
         [(False, 154)] * 3),
    ]
    ops = []
    for stem, doc, degree, expected in cases:
        path = _write_json(work / f"{stem}.json", doc)
        ops.append(_check_op(stem, path, degree, expected, work))
    return Workload("condition_check", work / "generic3.json",
                    "load_channel_file", ops)


def _check_op(stem, path, degree, expected, work) -> Op:
    matrix = channel.load_channel_file(path)
    out = work / f"check_{stem}.json"

    def run():
        _run_cli(["check", "--channel", str(path), "--degree", str(degree),
                  "--out", str(out)])
        report = _report(out)
        got = [(r["independent"], r["rank"]) for r in report["receivers"]]
        _expect(got == expected, f"{stem}: verdicts {got}, expected {expected}")
        _expect(report["independent"] == all(ok for ok, _ in expected),
                f"{stem}: overall verdict")
        for r in report["receivers"]:
            if r["independent"]:
                continue
            cert = condition.DependenceCertificate(
                r["receiver"], degree,
                tuple(r["certificate"]["a"]), tuple(r["certificate"]["b"]))
            _expect(cert.is_valid(matrix),
                    f"{stem}: receiver {r['receiver']} certificate is not zero")

    return Op(f"check {stem} d={degree}", run)


# -- sum_laws --------------------------------------------------------------

RATIONAL_RANGE = 1 << 19
#: example-rational --k 3 --hmax 1 --range 2^19 at the seed commit.
RATIONAL_TOTAL = 1.320363655903864


def sum_laws(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    multi = _write_json(work / "multi3.json", _multi_term_doc(rng))
    generic = _write_json(work / "generic3.json", _channel_doc(3, rng))
    generic_matrix = channel.load_channel_file(generic)
    bound_out = work / "bound_multi3.json"
    rational_out = work / "rational.json"
    N = 24

    def multi_bound():
        _run_cli(["bound", "--channel", str(multi), "--degree", "0",
                  "--range", str(N), "--waive-condition", "--out", str(bound_out)])
        report = _report(bound_out)
        # Each received sum is injective in the letters, so the entropies are
        # exactly 3 log2 N (full) and 2 log2 N (interference) for any
        # nonzero coefficients.
        for r in report["receivers"]:
            _close(r["entropy_full_bits"], 3 * math.log2(N), "full entropy")
            _close(r["entropy_interference_bits"], 2 * math.log2(N),
                   "interference entropy")
        _close(report["total"], 0.0, "multi-term total")

    def rational():
        _run_cli(["example-rational", "--k", "3", "--range", str(RATIONAL_RANGE),
                  "--out", str(rational_out)])
        report = _report(rational_out)
        _close(report["dof"]["total"], RATIONAL_TOTAL, "example-rational total")
        _close(report["closed_form_bound"], RATIONAL_TOTAL, "closed form")

    def containment():
        result = dofbound.containment_check(generic_matrix, 1, 1, 2)
        _expect(result.contained, "interference support not contained")
        _expect(result.support_size == 12288,
                f"support size {result.support_size}, expected 12288")

    return Workload("sum_laws", multi, "load_channel_file", [
        Op(f"bound multi3 d=0 N={N} waived", multi_bound),
        Op(f"example-rational k=3 N={RATIONAL_RANGE}", rational),
        Op("containment_check generic3 receiver=1 d=1 N=2", containment),
    ])


# -- dimension_estimate ----------------------------------------------------

ESTIMATE_DRAWS = 4_000_000
#: Aligned grid 729^1..729^3 for r = 1/729.
ESTIMATE_KMIN, ESTIMATE_KMAX = 729, 729**3
OVERLAP_DEPTH, OVERLAP_PAIRS = 7, 14710
FIXED_POINT_DEPTH, FIXED_POINT_DRAWS = 4, 1_000_000


def dimension_estimate(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    # W_N of generic K=2 at d=1, N=3: 27 letters, r = 1/729, so the formula
    # dimension is log 27 / log 729 = 1/2 exactly.
    construction = dofbound.build_w_n(channel.generic_channel(2), 1, 3)
    valuation = [float(v) for v in rng.uniform(1.0, 2.0, size=4)]
    spec = dofbound.to_ifs(construction, valuation)
    spec_path = _write_json(work / "w3.json", {
        "r": f"{spec.r.numerator}/{spec.r.denominator}",
        "atoms": [float(a) for a in spec.atoms],
    })
    halves = _write_json(work / "halves.json", {"r": "1/2", "atoms": [0, 1, 2]})
    estimate_seed, fixed_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
    csv_out = work / "estimate.csv"
    ifs_out = work / "ifs.json"

    def estimate():
        summary = json.loads(_run_cli([
            "estimate", "--spec", str(spec_path), "--kmin", str(ESTIMATE_KMIN),
            "--kmax", str(ESTIMATE_KMAX), "--samples", str(ESTIMATE_DRAWS),
            "--seed", str(estimate_seed), "--threads", "2", "--out", str(csv_out),
        ]))
        report = summary["report"]
        grid = summary["manifest"]["parameters"]["k_grid"]
        _expect(grid == [729, 729**2, 729**3], f"k grid {grid}")
        _close(report["formula"], 0.5, "formula dimension")
        _expect(abs(report["slope"] - report["formula"]) <= 0.02,
                f"slope {report['slope']} vs formula {report['formula']}")

    def overlaps():
        _run_cli(["ifs", "--spec", str(halves), "--overlap-depth",
                  str(OVERLAP_DEPTH), "--out", str(ifs_out)])
        pairs = len(_report(ifs_out)["overlaps"])
        _expect(pairs == OVERLAP_PAIRS, f"{pairs} overlap pairs")

    def fixed_point():
        loaded = cli.parse_ifs_spec(str(spec_path))
        ks = ifs.fixed_point_discrepancy(
            loaded, FIXED_POINT_DEPTH, FIXED_POINT_DRAWS, fixed_seed)
        # Both samples have the same law; 3 sqrt(2/n) is exceeded with
        # probability about 2e-8.
        _expect(ks <= 3 * math.sqrt(2 / FIXED_POINT_DRAWS), f"KS statistic {ks}")

    return Workload("dimension_estimate", spec_path, "parse_ifs_spec", [
        Op(f"estimate w3 draws={ESTIMATE_DRAWS}", estimate),
        Op(f"ifs halves overlap-depth={OVERLAP_DEPTH}", overlaps),
        Op(f"fixed_point_discrepancy w3 draws={FIXED_POINT_DRAWS}", fixed_point),
    ])


WORKLOADS = {
    "bound_ladder": bound_ladder,
    "condition_check": condition_check,
    "sum_laws": sum_laws,
    "dimension_estimate": dimension_estimate,
}
