"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line (also echoed in the terminal
summary) and then asserts, so a red criterion is visible both ways.
"""

import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import ACCEPTANCE_LINES
from icdof.algebra import AlgebraElement
from icdof.channel import (
    generic_channel,
    rational_channel,
    integer_offdiag_channel,
    store_channel,
)
from icdof.cli import main as cli_main
from icdof.condition import check_all
from icdof.dimest import aligned_k_grid, estimate_dimension
from icdof.dofbound import (
    build_w_n,
    containment_check,
    fig1_demo,
    interference_ratio_bound,
    rational_example,
    separability_check,
    sum_entropy_stats,
    sumset_distribution,
    sweep,
)
from icdof.ifs import IFSSpec, hochman_dimension


def record(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:>3}: {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_rational_matrix_dependent():
    start = time.perf_counter()
    m = rational_channel([[2, 1, 1], [1, 3, 1], [1, 1, "9/2"]])
    report = check_all(m, 0)
    elapsed = time.perf_counter() - start
    ok = (
        not report.independent
        and all(not v.independent for v in report.verdicts)
        and all(
            v.certificate is not None
            and v.certificate.is_valid(m)
            and v.certificate.substitute(m).is_zero()
            for v in report.verdicts
        )
        and elapsed < 1.0
    )
    record(
        1,
        "all-rational 3x3 dependent at d=0 with exact-zero certificates",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_02_generic_matrix_independent():
    start = time.perf_counter()
    report = check_all(generic_channel(3), 2)
    elapsed = time.perf_counter() - start
    ok = (
        report.independent
        and all(v.rank == 56 and v.family_size == 56 for v in report.verdicts)
        and elapsed < 30.0
    )
    record(
        2,
        "generic 3x3 independent at d=2 with rank 56 per receiver",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_03_dimension_formula_values():
    cantor = hochman_dimension(IFSSpec(Fraction(1, 3), (0, 2)))
    half = hochman_dimension(IFSSpec(Fraction(1, 4), (0, 1)))
    ok = (
        abs(cantor - 0.6309297535714574) <= 1e-12
        and abs(half - 0.5) <= 1e-12
    )
    record(3, "dimension formula hits 0.6309297535714574 and 0.5", ok)


def test_criterion_04_sumset_doubling_demo():
    start = time.perf_counter()
    res = fig1_demo()
    elapsed = time.perf_counter() - start
    ok = (
        res.common_structure_cardinality == 19
        and res.different_structure_cardinality == 49
        and elapsed < 1.0
    )
    record(4, "hexagon sumset cardinalities are exactly (19, 49)", ok)


@pytest.fixture(scope="module")
def generic_instance():
    m = generic_channel(3)
    c = build_w_n(m, 1, 2)
    return m, c


def test_criterion_05_diagonal_term_identity(generic_instance):
    m, c = generic_instance
    ok = True
    for i in (1, 2, 3):
        # H(h_ii W) = log2 |W| since multiplication by h_ii is injective
        h_diag = math.log2(c.cardinality)
        ok = ok and abs(h_diag / c.log_inv_r - 0.5) <= 1e-12
    record(5, "H(h_ii W)/log(1/r) equals 1/2 for every receiver", ok)


def test_criterion_06_entropy_additivity(generic_instance):
    m, c = generic_instance
    h_diag = math.log2(c.cardinality)
    ok = True
    worst = 0.0
    for i in (1, 2, 3):
        if not separability_check(m, i, c):
            ok = False
            continue
        h_full, _ = sum_entropy_stats(m, i, True, c)
        h_int, _ = sum_entropy_stats(m, i, False, c)
        gap = abs(h_full - (h_diag + h_int))
        worst = max(worst, gap)
        ok = ok and gap <= 1e-12
    record(
        6,
        "separable receivers with exactly additive entropies",
        ok,
        f"max gap {worst:.2e}",
    )


def test_criterion_07_interference_bound_and_containment(generic_instance):
    m, c = generic_instance
    ok = True
    for i in (1, 2, 3):
        h_int, _ = sum_entropy_stats(m, i, False, c)
        ok = ok and h_int <= 56.0
        ok = ok and containment_check(m, i, 1, 2).contained
    record(
        7,
        "interference entropy <= 56 bits and supports embed in the "
        "degree-2 lattice box",
        ok,
    )


@pytest.fixture(scope="module")
def sweep_cells():
    return sweep(generic_channel(3), [0, 1], [2, 3, 4])


def test_criterion_08a_strictly_increasing_in_n(sweep_cells):
    # At d=0, W_0 = {1..N} and log2(1/r) = 2 log2 N; on the generic K=3
    # channel H_int = 2 log2 N and H_full = 3 log2 N, so both terms clip to 1
    # and every receiver contributes 0 whatever N is.  The approach to K/2
    # comes from raising d, so the increase in N is required only at d >= 1.
    by_key = {(r.degree, r.coeff_range): r.total for r, _ in sweep_cells}
    ok = all(abs(by_key[(0, n)]) <= 1e-12 for n in (2, 3, 4))
    for n_lo, n_hi in [(2, 3), (3, 4)]:
        ok = ok and by_key[(1, n_hi)] > by_key[(1, n_lo)]
    detail = "; ".join(
        f"d={d}: " + ", ".join(f"{by_key[(d, n)]:.6f}" for n in (2, 3, 4))
        for d in (0, 1)
    )
    record(
        "8a",
        "sweep totals are 0 for every N at d=0 and strictly increase in N at d=1",
        ok,
        detail,
    )


def test_criterion_08b_gap_bounded_by_ratio_slack(sweep_cells):
    slack = 0.01
    ok = True
    for r, seconds in sweep_cells:
        ratio = interference_ratio_bound(3, r.degree, r.coeff_range)
        allowed = 3 * (ratio - 0.5) + 3 * slack
        ok = ok and (1.5 - r.total) <= allowed
        ok = ok and seconds < 60.0
    record(
        "8b",
        "K/2 gap bounded by K*(ratio_bound - 1/2) + K*slack, cells < 60 s",
        ok,
    )


def test_criterion_09_rational_example_class():
    rep = rational_example(3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], 1024)
    closed = 30.0 / (2.0 * math.log2(6144))
    ok = abs(rep.closed_form_bound - closed) <= 1e-9
    for t in rep.report.receivers:
        gap = abs(
            t.entropy_full_bits
            - (math.log2(1024) + t.entropy_interference_bits)
        )
        ok = ok and gap <= 1e-12
    totals = [
        rational_example(3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2**e).report.total
        for e in (10, 14, 18)
    ]
    ok = ok and totals[0] < totals[1] < totals[2] < 1.5
    record(
        9,
        "integer off-diagonal class matches its closed form and climbs "
        "toward 3/2",
        ok,
        ", ".join(f"{t:.4f}" for t in totals),
    )


def test_criterion_10_brute_force_equivalence():
    rng = random.Random(2024)
    ok = True
    checked = 0
    while checked < 20:
        kind = rng.choice(["generic", "intoff", "rational"])
        K = rng.choice([2, 3])
        if kind == "generic":
            m = generic_channel(K)
        elif kind == "intoff":
            off = [
                [0 if i == j else rng.choice([-2, -1, 1, 2, 3]) for j in range(K)]
                for i in range(K)
            ]
            m = integer_offdiag_channel(off)
        else:
            m = rational_channel(
                [
                    [Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
                     for _ in range(K)]
                    for _ in range(K)
                ]
            )
        d = rng.choice([0, 1])
        N = rng.choice([2, 3])
        receiver = rng.randrange(1, K + 1)
        include_diag = rng.choice([True, False])
        c = build_w_n(m, d, N)
        participants = K if include_diag else K - 1
        if c.cardinality**participants > 10**5:
            continue
        checked += 1
        dist = sumset_distribution(m, receiver, include_diag, c)
        others = [
            j for j in range(1, K + 1) if include_diag or j != receiver
        ]
        oracle = Counter()
        for combo in itertools.product(c.elements, repeat=len(others)):
            total = AlgebraElement.zero(len(m.generators))
            for j, w in zip(others, combo):
                total = total + m.entry(receiver, j) * w
            oracle[total] += 1
        if dist.counts != dict(oracle) or dist.total != sum(oracle.values()):
            ok = False
            break
        probs = dist.probabilities()
        if any(
            probs[e] != Fraction(cnt, dist.total) for e, cnt in oracle.items()
        ):
            ok = False
            break
    record(
        10,
        "20 randomized sum laws match exhaustive tuple enumeration exactly",
        ok,
        f"{checked} instances",
    )


def test_criterion_11_empirical_dimension_slopes():
    cantor = IFSSpec(Fraction(1, 3), (0, 2))
    start = time.perf_counter()
    grid = aligned_k_grid(cantor, 3**4, 3**11)
    est_c = estimate_dimension(cantor, grid, 10**6, seed=11)
    t_cantor = time.perf_counter() - start

    quarter = IFSSpec(Fraction(1, 4), (0, 1))
    start = time.perf_counter()
    grid_q = aligned_k_grid(quarter, 4**2, 4**8)
    est_q = estimate_dimension(quarter, grid_q, 10**6, seed=11)
    t_quarter = time.perf_counter() - start

    ok = (
        abs(est_c.slope - 0.63093) <= 0.02
        and abs(est_q.slope - 0.5) <= 0.02
        and t_cantor < 120.0
        and t_quarter < 120.0
    )
    record(
        11,
        "empirical slopes within 0.02 of 0.63093 and 0.5",
        ok,
        f"{est_c.slope:.4f}, {est_q.slope:.4f}",
    )


def test_criterion_12_byte_identical_reruns(tmp_path, capsys):
    channel = tmp_path / "generic3.json"
    channel.write_text(json.dumps(store_channel(generic_channel(3))))
    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        assert cli_main([
            "sweep", "--channel", str(channel),
            "--degrees", "0,1", "--ranges", "2,3", "--out", str(out),
        ]) == 0
        payloads.append(out.read_bytes())
    sweep_same = payloads[0] == payloads[1]
    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / f"est_{tag}.csv"
        assert cli_main([
            "estimate", "--spec", '{"r": "1/3", "atoms": [0, 2]}',
            "--k-grid", "9,27,81", "--samples", "50000",
            "--seed", "5", "--out", str(out),
        ]) == 0
        payloads.append(out.read_bytes())
    estimate_same = payloads[0] == payloads[1]
    capsys.readouterr()
    ok = sweep_same and estimate_same
    record(12, "repeated sweep and estimate payloads are byte-identical", ok)
