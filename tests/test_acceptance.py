"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines on passing
runs too (pytest hides captured output for passing tests by default).
"""

import json
import math
import time

import numpy as np
import pytest

from haarq import (
    QuantizedSignal,
    Signal,
    format_float,
    haar_basis,
    haar_fourier_coefficient,
    make_grid,
    quantize_haar_optimal,
    spectrum_error,
    totals_pyramid,
    verify_haar_bounds,
)
from haarq.cli import main as cli_main

from oracles import (
    all_indices,
    dft_direct,
    enumerate_integer_quantizations,
    exact_haar_verdicts,
    frequencies,
    round_rows_reference,
)

SLACK = 1e-12
SPECTRUM_SLACK = 1e-10
U = 2.0**-53  # the unit roundoff of float64


def announce(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nacceptance {num}: {status}{suffix}", flush=True)


def random_signal(n, rng, lo=-0.5, hi=0.5):
    return Signal(make_grid(n), rng.uniform(lo, hi, 1 << n))


_sweep_cache: dict = {}


def bound_sweep():
    """Shared sweep for criteria 1 and 2: 500 signals per N in 0..12."""
    if _sweep_cache:
        return _sweep_cache
    t0 = time.perf_counter()
    bounds_ok = True
    pyramid_ok = True
    worst_dc = worst_detail = worst_sup = -math.inf
    for n in range(13):
        rng = np.random.default_rng(9000 + n)
        for _ in range(500):
            f = random_signal(n, rng)
            g, pyramid = quantize_haar_optimal(f)
            report = verify_haar_bounds(f, g)
            bounds_ok &= report.passed
            worst_dc = max(worst_dc, report.dc_error - report.dc_bound)
            worst_sup = max(worst_sup, report.sup_error - report.sup_bound)
            for err, bound in zip(report.detail_errors, report.detail_bounds):
                worst_detail = max(worst_detail, float(err.max()) - float(bound))
            # parent = sum of children is enforced exactly on construction;
            # additionally the integer pyramid must be the totals of g.
            rebuilt = totals_pyramid(g)
            for a, b in zip(rebuilt, pyramid):
                pyramid_ok &= bool(np.array_equal(a, b))
    _sweep_cache.update(
        bounds_ok=bounds_ok,
        pyramid_ok=pyramid_ok,
        worst_dc=worst_dc,
        worst_detail=worst_detail,
        worst_sup=worst_sup,
        elapsed=time.perf_counter() - t0,
    )
    return _sweep_cache


def test_criterion_1_haar_domain_bounds():
    r = bound_sweep()
    ok = (
        r["bounds_ok"]
        and r["worst_dc"] <= SLACK
        and r["worst_detail"] <= SLACK
        and r["worst_sup"] <= SLACK
    )
    announce(
        1,
        ok,
        f"500 signals x N in 0..12; worst overshoot dc={r['worst_dc']:.2e} "
        f"detail={r['worst_detail']:.2e} sup={r['worst_sup']:.2e}; "
        f"elapsed {r['elapsed']:.2f}s (budget 10s)",
    )
    assert ok


def test_criterion_2_pyramid_exactness():
    r = bound_sweep()
    announce(
        2,
        r["pyramid_ok"],
        "integer pyramid consistency and totals identity exact on every run",
    )
    assert r["pyramid_ok"]


def test_criterion_3_range_containment():
    t0 = time.perf_counter()
    ok = True
    for band, (lo, hi) in enumerate([(-1, 2), (0, 4), (-8, 8)]):
        rng = np.random.default_rng(9100 + band)
        for _ in range(100):
            n = int(rng.integers(0, 11))
            f = random_signal(n, rng, lo=lo + 1, hi=hi - 1)
            g, _ = quantize_haar_optimal(f)
            ok &= bool(np.all((g.values >= lo) & (g.values <= hi)))
    elapsed = time.perf_counter() - t0
    announce(
        3,
        ok,
        f"100 signals per band (-1,2)/(0,4)/(-8,8), N <= 10; "
        f"elapsed {elapsed:.2f}s (budget 5s)",
    )
    assert ok


def test_criterion_4_spectrum_bounds():
    t0 = time.perf_counter()
    rows_ok = True
    chain_ok = True
    for n in range(1, 11):
        rng = np.random.default_rng(9200 + n)
        table = None
        for _ in range(100):
            f = random_signal(n, rng)
            g, _ = quantize_haar_optimal(f)
            # The envelope holds for the exact residual; its measurement
            # may exceed it by its own rounding only.
            table = spectrum_error(f, g)
            rows_ok &= bool(np.all(
                table.measured_half <= table.bound_exact_half * (1 + 8 * n * U)))
        chain_ok &= bool(
            np.all(table.bound_exact_half <= table.bound_linear_half + SPECTRUM_SLACK)
        )
    elapsed = time.perf_counter() - t0
    ok = rows_ok and chain_ok
    announce(
        4,
        ok,
        f"100 signals per N in 1..10, every frequency within the summed "
        f"envelope and envelope below the linear one; "
        f"elapsed {elapsed:.2f}s (budget 60s)",
    )
    assert ok


def test_criterion_5_closed_form_matches_direct_dft():
    t0 = time.perf_counter()
    max_dev = 0.0
    for n in range(0, 9):
        grid = make_grid(n)
        freqs = frequencies(n)
        for k, j in all_indices(n):
            direct = dft_direct(haar_basis((k, j), grid))
            for xi, value in zip(freqs, direct):
                closed = haar_fourier_coefficient(int(xi), (k, j), n)
                max_dev = max(max_dev, abs(closed - value))
    ok = max_dev <= 1e-10
    elapsed = time.perf_counter() - t0
    announce(
        5,
        ok,
        f"max |closed form - direct transform| = {max_dev:.2e} over all "
        f"indices and frequencies, N <= 8; elapsed {elapsed:.2f}s",
    )
    assert ok


def test_criterion_6_unitarity():
    worst_gram = 0.0
    for n in range(0, 7):
        grid = make_grid(n)
        family = [haar_basis(idx, grid) for idx in all_indices(n)]
        gram = np.array([[a.values @ b.values / grid.size for b in family] for a in family])
        worst_gram = max(worst_gram, float(np.abs(gram - np.eye(len(family))).max()))
    ok = worst_gram <= 1e-12
    announce(6, ok, f"basis Gram deviation {worst_gram:.2e} (N <= 6)")
    assert ok


def test_criterion_7_worked_example(tmp_path):
    f = Signal(make_grid(2), [0.3, -0.2, 0.4, 0.1])
    g, pyramid = quantize_haar_optimal(f)
    report = verify_haar_bounds(f, g)

    ok = g.values.tolist() == [0, 0, 1, 0]
    ok &= pyramid[0][0] == 1
    ok &= abs(report.dc_input - 0.15) < 1e-15

    # independent brute-force check: enumerate all integer signals within
    # sup distance < 1 and confirm the chosen one satisfies the DC and level
    # bounds according to the exact rational checker
    satisfying = [
        c
        for c in enumerate_integer_quantizations(f)
        if all(exact_haar_verdicts(f.values, c))
    ]
    ok &= tuple(g.values.tolist()) in satisfying

    src = tmp_path / "worked.csv"
    out = tmp_path / "worked_out.csv"
    rep = tmp_path / "worked_report.json"
    src.write_text("".join(format_float(v) + "\n" for v in [0.3, -0.2, 0.4, 0.1]))
    code = cli_main([
        "quantize", "--input", str(src), "--output", str(out),
        "--block-exp", "2", "--report", str(rep),
    ])
    parsed = json.loads(rep.read_text())
    ok &= code == 0
    ok &= [int(v) for v in out.read_text().split()] == [0, 0, 1, 0]
    ok &= parsed["blocks"][0]["haar"]["dc_input"] == 0.15
    ok &= parsed["blocks"][0]["dc_total"] == 1

    announce(
        7,
        ok,
        f"g = {g.values.tolist()}, root total = {pyramid[0][0]}, "
        f"{len(satisfying)} candidates satisfy all bounds by brute force",
    )
    assert ok


def test_criterion_8_baseline_contrast_report_only():
    n = 10
    rng = np.random.default_rng(9400)
    low = slice(0, 33)  # the rows 0 <= xi <= 32
    optimal_means = []
    simple_means = []
    for _ in range(5):
        f = random_signal(n, rng)
        g_opt, _ = quantize_haar_optimal(f)
        g_simple = QuantizedSignal(f.grid, round_rows_reference(f.values))
        optimal_means.append(float(spectrum_error(f, g_opt).measured_half[low].mean()))
        simple_means.append(float(spectrum_error(f, g_simple).measured_half[low].mean()))
    opt = float(np.mean(optimal_means))
    simple = float(np.mean(simple_means))
    ok = math.isfinite(opt) and math.isfinite(simple)
    announce(
        8,
        ok,
        f"report only, no per-instance assertion: mean |spectral error| over "
        f"0 <= xi <= 32 at N=10: pyramid {opt:.3e} vs per-sample rounding "
        f"{simple:.3e} (flat bound 0.5)",
    )
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(9500)
    src = tmp_path / "in.csv"
    src.write_text(
        "".join(format_float(v) + "\n" for v in rng.uniform(-0.5, 0.5, 96))
    )
    hashes = []
    for tag in ("a", "b"):
        out = tmp_path / f"out_{tag}.csv"
        rep = tmp_path / f"rep_{tag}.json"
        code = cli_main([
            "quantize", "--input", str(src), "--output", str(out),
            "--block-exp", "5", "--report", str(rep),
        ])
        assert code == 0
        hashes.append((out.read_bytes(), rep.read_bytes()))
    identical = hashes[0] == hashes[1]

    verify_code = cli_main([
        "verify", "--input", str(src), "--quantized", str(tmp_path / "out_a.csv"),
        "--block-exp", "5",
    ])
    round_trip = verify_code == 0

    ok = identical and round_trip
    announce(
        9,
        ok,
        f"byte-identical reruns: {identical}, "
        f"quantize-then-verify exit 0: {round_trip}",
    )
    assert ok
