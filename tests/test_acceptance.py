"""Acceptance suite: one pass/fail line per criterion, with the stated
tolerances and runtime budgets.  Run with `pytest tests/test_acceptance.py -s`
to see the lines."""

import json
import math
import subprocess
import sys
import time

import numpy as np

from qharness.certificates import (
    make_certificate,
    optimize_constant,
    replay_certificate,
)
from qharness.core import KINDS, HarnessParams
from qharness.empirics import (
    check_tail_recursion,
    gaussian_pair_tail_curve,
    hill_tail_index,
    path_empirics,
)
from qharness.moments import (
    MomentVector,
    hankel3,
    hankel3_closed_form,
    pfail_upper,
    pmax_certified,
    two_point_from_moments,
)
from qharness.simulate import ProcessKind, known_params, sample_ensemble

from conftest import kind_of

GRID = [0.25, 0.5, 0.75, 1.0]
SEED = 7


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def cli_json(args: list[str]) -> tuple[dict, float]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qharness", *args],
        capture_output=True,
        text=True,
        check=False,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), elapsed


def test_criterion_1_constant_reproduction():
    paper, t_paper = cli_json(["certificate", "--p", "4", "--mode", "paper"])
    exact, t_exact = cli_json(["certificate", "--p", "4", "--mode", "exact"])
    c_paper = paper["results"]["constant"]
    c_exact = exact["results"]["constant"]
    ok = (
        c_paper == 240.0
        and c_exact == 128.0
        and c_exact == max(16.0 * 1.5**5, 128.0)
        and t_paper < 1.0
        and t_exact < 1.0
    )
    report(1, ok, f"paper constant {c_paper}, exact constant {c_exact}, "
                  f"runtimes {t_paper:.2f}s/{t_exact:.2f}s (< 1 s each)")


def test_criterion_2_optimizer_improvement():
    started = time.perf_counter()
    ok = True
    details = []
    for p in (3.0, 4.0, 8.0, 16.0, 32.0):
        cert = optimize_constant(p, ["exact-k"])
        ok &= cert.valid and cert.constant < 240.0
        ok &= replay_certificate(cert) == cert
        details.append(f"p={p:g}:{cert.constant:g}")
    for p in (16.0, 32.0):
        cert = optimize_constant(p, ["exact-k", "exact-margin"])
        ok &= cert.valid and cert.constant < 128.0
        ok &= replay_certificate(cert) == cert
        details.append(f"p={p:g}+margin:{cert.constant:.4g}")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    report(2, ok, f"constants {{{', '.join(details)}}}, {elapsed:.2f}s (< 10 s)")


def test_criterion_3_threshold_arithmetic():
    exact_four = pmax_certified(1 / 921600)
    grid = np.linspace(0.01, 1.0, 100)
    separated = all(pmax_certified(st) < pfail_upper(st) for st in grid)
    ok = exact_four == 4.0 and separated
    report(3, ok, f"pmax(1/921600) = {exact_four!r} (exactly 4), "
                  f"certified < failure bound on all 100 grid points: {separated}")


def test_criterion_4_hankel_suite():
    started = time.perf_counter()

    def lu_det(m: MomentVector) -> float:
        # independent of hankel3's cofactor expansion
        return float(np.linalg.det([[m.m0, m.m1, m.m2], [m.m1, m.m2, m.m3],
                                    [m.m2, m.m3, m.m4]]))

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        m1 = rng.normal(0.0, 1.5)
        m2 = m1 * m1 + abs(rng.normal(0.0, 2.0)) + 1e-6
        m3 = rng.normal(0.0, 4.0)
        m4 = m2 * m2 + abs(rng.normal(0.0, 8.0)) + 1e-6
        m = MomentVector(1.0, m1, m2, m3, m4)
        scale = max(
            1.0,
            np.linalg.norm([1.0, m1, m2])
            * np.linalg.norm([m1, m2, m3])
            * np.linalg.norm([m2, m3, m4]),
        )
        worst = max(worst, abs(hankel3(m) - lu_det(m)) / scale)
    oracle_ok = worst <= 1e-12

    closed_zero = 0.0
    for _ in range(1000):
        p = HarnessParams(
            rng.normal(0, 2), rng.normal(0, 2), rng.uniform(0, 0.6),
            rng.uniform(0, 0.6), -1.0,
        )
        closed_zero = max(closed_zero, abs(hankel3_closed_form(p, rng.uniform(0.1, 5.0))))
    zero_ok = closed_zero <= 1e-12

    wiener = HarnessParams(0.0, 0.0, 0.0, 0.0, 1.0)
    exact_two = hankel3_closed_form(wiener, 1.0) == 2.0 and hankel3(MomentVector(1, 0, 1, 0, 3)) == 2.0

    round_trip_ok = True
    for _ in range(200):
        t = rng.uniform(0.05, 10.0)
        m3 = rng.normal(0.0, 3.0) * t
        law = two_point_from_moments(t, m3)
        round_trip_ok &= abs(law.moment(1)) <= 1e-10 * max(1.0, t)
        round_trip_ok &= abs(law.moment(2) - t) <= 1e-10 * t
        round_trip_ok &= abs(law.moment(3) - m3) <= 1e-10 * max(abs(m3), t**1.5)

    elapsed = time.perf_counter() - started
    ok = oracle_ok and zero_ok and exact_two and round_trip_ok and elapsed < 5.0
    report(4, ok, f"oracle dev {worst:.2e} (<=1e-12 of scale), gamma=-1 residual "
                  f"{closed_zero:.2e}, identity at t=1 exact: {exact_two}, "
                  f"round-trips 1e-10: {round_trip_ok}, {elapsed:.2f}s (< 5 s)")


def test_criterion_5_simulation_fidelity():
    started = time.perf_counter()
    ok = True
    details = []
    for name in KINDS:
        kind = kind_of(name)
        e = sample_ensemble(kind, GRID, 100_000, seed=SEED)
        si, ti = 1, 3
        s, t = GRID[si], GRID[ti]

        cov_dev = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                checks = path_empirics(e, i, j)
                for est, (a, b) in zip(checks.covariance, ((i, i), (i, j), (j, j))):
                    cov_dev = max(cov_dev, abs(est.value - min(GRID[a], GRID[b])) / est.se)

        pe = path_empirics(e, si, ti)
        slope_dev = max(abs(pe.slope_forward.value - 1.0) / pe.slope_forward.se,
                        abs(pe.slope_backward.value - s / t) / pe.slope_backward.se)

        fit = pe.fit
        p = known_params(kind)
        pref = s * (t - s) / (t + p.tau)
        preds = (pref, pref * p.theta / t, pref * p.tau / (t * t))
        if name == "gamma":
            assert preds == (0.125, 0.25, 0.125)
        fit_dev = max(
            abs(c - pr) / se if se > 0 else (0.0 if abs(c - pr) < 1e-12 else math.inf)
            for c, pr, se in zip((fit.c0, fit.c1, fit.c2), preds, fit.se)
        )

        kind_ok = cov_dev <= 5.0 and slope_dev <= 3.0 and fit_dev <= 3.0
        ok &= kind_ok
        details.append(f"{name}: cov {cov_dev:.2f}/5, slope {slope_dev:.2f}/3, fit {fit_dev:.2f}/3")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 120.0
    report(5, ok, "; ".join(details) + f"; {elapsed:.1f}s (< 120 s)")


def test_criterion_6_tail_recursion_soundness():
    started = time.perf_counter()
    ok = True
    details = []
    thresholds = np.geomspace(0.05, 8.0, 50)
    for rho in (0.6, 0.75, 0.9):
        cert = make_certificate(
            3.0, contraction_rule="exact", u=1 - rho, A=1.0 - rho * rho, B=0.0, delta=0.0
        )
        curve = gaussian_pair_tail_curve(thresholds)
        rep = check_tail_recursion(curve, cert)
        violations = sum(1 for r in rep.rows if r.violation > 0.0)
        ok &= cert.valid and rep.passed and violations == 0
        details.append(f"rho={rho}: {len(rep.rows)} thresholds, {violations} violations")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    report(6, ok, "; ".join(details) + f"; {elapsed:.2f}s (< 1 s)")


def test_criterion_7_reproducibility(tmp_path):
    kind = ProcessKind("pascal", 0.5)
    ref = sample_ensemble(kind, GRID, 50_000, seed=SEED, n_workers=1)
    worker_ok = all(
        np.array_equal(ref.paths, sample_ensemble(kind, GRID, 50_000, seed=SEED, n_workers=w).paths)
        for w in (2, 5)
    )

    byte_ok = True
    outs = []
    for i, workers in enumerate(("1", "3")):
        out = tmp_path / f"e{i}.qhe"
        proc = subprocess.run(
            [sys.executable, "-m", "qharness", "simulate", "--process", "wiener",
             "--grid", "0.25,0.5,0.75,1.0", "--paths", "50000", "--seed", str(SEED),
             "--workers", workers, "--out", str(out)],
            capture_output=True,
        )
        byte_ok &= proc.returncode == 0
        outs.append(out.read_bytes())
    byte_ok &= outs[0] == outs[1]
    ok = worker_ok and byte_ok
    report(7, ok, f"library bit-identical across 1/2/5 workers: {worker_ok}; "
                  f"CLI byte-identical across 1/3 workers: {byte_ok}")


def test_criterion_8_tail_index_sanity():
    started = time.perf_counter()
    rng = np.random.default_rng(20240808)
    samples = rng.random(1_000_000) ** (-1.0 / 3.0)
    est = hill_tail_index(samples, 10_000)
    elapsed = time.perf_counter() - started
    ok = 2.8 <= est.alpha <= 3.2 and elapsed < 5.0
    report(8, ok, f"hill alpha {est.alpha:.4f} in [2.8, 3.2], {elapsed:.2f}s (< 5 s)")
