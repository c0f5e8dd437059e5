"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Campaign-backed criteria share desk-scale runs (100 deployments x 20 noise
repeats per attacker assignment). The paper's full scale, 500 deployments
x 100 repeats, is `--n-deployments 500 --n-corruptions 100` on the CLI and
is not gated here.
"""

import math
import os
import time

import numpy as np
import pytest

from seculoc.bounds import detection_bounds, prob_abs_less
from seculoc.baseline import glrt_detect
from seculoc.campaign import CampaignConfig, emit_csv, run_campaign
from seculoc.gtrs import build_system, solve
from seculoc.measurement import AttackSpec, generate_measurements
from seculoc.pipeline import locate_secure

from helpers import random_scene

DESK = dict(n_deployments=100, n_corruptions=20)
_WORKERS = min(4, os.cpu_count() or 1)


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def rmse_campaign():
    cfg = CampaignConfig(
        n_anchors=4, sigma=1.0, tau=0.3, k_samples=10,
        delta_grid=(0.0, 5.0, 6.0, 7.0, 15.0),
        methods=("proposed", "no_detection", "perfect_detection", "wls_glrt"),
        seed=20260808, **DESK,
    )
    return run_campaign(cfg, threads=_WORKERS)


@pytest.fixture(scope="module")
def bounds_campaign():
    cfg = CampaignConfig(
        n_anchors=4, sigma=1.0, tau=0.3, k_samples=1,
        delta_grid=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0),
        methods=("proposed",), seed=31337, **DESK,
    )
    start = time.perf_counter()
    stats = run_campaign(cfg, threads=_WORKERS)
    return stats, time.perf_counter() - start


def test_c01_noiseless_consistency():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    flagged = 0
    for _ in range(100):
        sc = random_scene(rng)
        m = generate_measurements(sc, AttackSpec(), 1e-12, 1, rng)
        res = locate_secure(sc.anchors, m, 0.3)
        worst = max(worst, float(np.linalg.norm(res.x_final - sc.target)))
        flagged += bool(res.attacker_set)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and flagged == 0 and elapsed < 1.0
    report(1, "noiseless consistency", ok,
           f"worst error {worst:.2e} m, {flagged} spurious flags, {elapsed:.2f}s")


def test_c02_gtrs_optimality():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst_gap = -math.inf
    worst_resid = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        sc_ok = False
        while not sc_ok:
            anchors = rng.uniform(0, 20, (n, 2))
            target = rng.uniform(0, 20, 2)
            sc_ok = (
                np.linalg.norm(anchors - target, axis=1).min() >= 0.5
                and np.linalg.svd(anchors - anchors.mean(0), compute_uv=False)[1] > 1e-6
            )
        d = np.maximum(np.linalg.norm(anchors - target, axis=1) + rng.normal(0, 1.0, n), 0.05)
        sol = solve(build_system(anchors, d))
        # The weighted squared-range objective of lifted points y = (x, ||x||^2).
        design = np.column_stack([-2.0 * anchors, np.ones(n)])
        rhs = d * d - (anchors * anchors).sum(axis=1)
        weights = (1.0 / d) / (1.0 / d).sum()
        xs = rng.uniform(-10, 30, (10_000, 2))
        ys = np.vstack([sol.y, np.column_stack([xs, (xs * xs).sum(axis=1)])])
        resid = ys @ design.T - rhs
        scores = (weights * resid * resid).sum(axis=1)
        worst_gap = max(worst_gap, float(scores[0] - scores[1:].min()))
        worst_resid = max(worst_resid, abs(sol.y[0] ** 2 + sol.y[1] ** 2 - sol.y[2]))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 0.0 and worst_resid <= 1e-9 and elapsed < 30.0
    report(2, "exact-solver optimality", ok,
           f"worst objective gap {worst_gap:.2e}, worst constraint residual {worst_resid:.2e}, {elapsed:.1f}s")


def test_c03_bound_ordering():
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(4, 7))
        b = detection_bounds(
            rng.uniform(-4, 4, n),
            float(rng.uniform(0.01, 2.5)),
            int(rng.integers(0, n)),
            float(rng.uniform(0.0, 1.0)),
        )
        if not (0.0 <= max(b.lpd1, b.lpd2) <= b.up_d <= 1.0):
            violations += 1
    report(3, "bound ordering", violations == 0, f"{violations} violations in 10000 sweeps")


def test_c04_rotation_formula_oracle():
    rng = np.random.default_rng(44)
    worst = 0.0
    ok = True
    for _ in range(50):
        mu_a, mu_i = rng.uniform(-3, 3, 2)
        sigma = float(rng.uniform(0.1, 2.0))
        a = rng.normal(mu_a, sigma, 1_000_000)
        b = rng.normal(mu_i, sigma, 1_000_000)
        emp = float(np.mean(np.abs(a) < np.abs(b)))
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / a.size)
        gap = abs(prob_abs_less(mu_a, mu_i, sigma) - emp)
        worst = max(worst, gap / max(se, 1e-15))
        if gap > 3 * se:
            ok = False
    report(4, "pairwise comparison formula vs sampling", ok,
           f"worst deviation {worst:.2f} standard errors over 50 triples")


def test_c05_bound_sandwich_single_sample(bounds_campaign):
    stats, elapsed = bounds_campaign
    ok = elapsed < 300.0
    details = []
    for row in stats.rows:
        n = row.bound_trials
        p = row.threshold_detection_rate
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        inside = row.lp_d - 3 * se <= p <= row.up_d + 3 * se
        ok = ok and inside
        details.append(f"d={row.delta:g}:{p:.3f} in [{row.lp_d:.3f},{row.up_d:.3f}]±3se {'y' if inside else 'N'}")
    report(5, "detection bound sandwich (K=1)", ok, f"{elapsed:.0f}s; " + " ".join(details))


def test_c06_detection_rates(rmse_campaign):
    rate4 = rmse_campaign.get("proposed", 15.0).detection_rate
    cfg5 = CampaignConfig(
        n_anchors=5, sigma=1.0, tau=0.3, k_samples=10, delta_grid=(15.0,),
        methods=("proposed",), seed=555, **DESK,
    )
    rate5 = run_campaign(cfg5, threads=_WORKERS).get("proposed", 15.0).detection_rate
    ok = rate4 > 0.90 and rate5 > 0.95
    report(6, "strong-attack detection rate", ok,
           f"N=4: {rate4:.3f} (>0.90), N=5: {rate5:.3f} (>0.95)")


def test_c07_rmse_ordering_and_gap(rmse_campaign):
    nd15 = rmse_campaign.get("no_detection", 15.0).rmse
    prop15 = rmse_campaign.get("proposed", 15.0).rmse
    prop0 = rmse_campaign.get("proposed", 0.0).rmse
    perf0 = rmse_campaign.get("perfect_detection", 0.0).rmse
    ok = (nd15 - prop15 >= 2.0) and (prop0 - perf0 <= 0.5)
    report(7, "error reduction and benign overhead", ok,
           f"delta=15 gap {nd15 - prop15:.2f} m (>=2), delta=0 overhead {prop0 - perf0:.2f} m (<=0.5)")


def test_c08_error_saturation(rmse_campaign):
    critical = max(rmse_campaign.get("proposed", d).rmse for d in (5.0, 6.0, 7.0))
    extreme = rmse_campaign.get("proposed", 15.0).rmse
    ok = extreme <= critical + 0.5
    report(8, "error saturation past the critical region", ok,
           f"rmse(15)={extreme:.2f} <= max rmse(5..7)={critical:.2f} + 0.5")


def test_c09_baseline_divergence(rmse_campaign):
    wls15 = rmse_campaign.get("wls_glrt", 15.0).rmse
    prop15 = rmse_campaign.get("proposed", 15.0).rmse
    ok = wls15 - prop15 >= 2.0
    report(9, "baseline divergence under strong attack", ok,
           f"wls_glrt {wls15:.2f} m vs proposed {prop15:.2f} m (gap >= 2)")


def test_c10_glrt_calibration():
    rng = np.random.default_rng(10)
    sc = random_scene(rng)
    p_fa = 0.05
    trials = 10_000
    flags = np.zeros(sc.n_anchors)
    for _ in range(trials):
        m = generate_measurements(sc, AttackSpec(), 1.0, 10, rng)
        for i in glrt_detect(sc.target, m, sc.anchors, p_fa):
            flags[i] += 1
    rates = flags / trials
    se = math.sqrt(p_fa * (1 - p_fa) / trials)
    ok = np.all(np.abs(rates - p_fa) < 3 * se)
    report(10, "detector calibration at the true location", ok,
           f"per-anchor rates {np.round(rates, 4).tolist()} vs 0.05 ± {3 * se:.4f}")


def test_c11_thread_determinism(tmp_path):
    cfg = CampaignConfig(
        n_anchors=4, delta_grid=(0.0, 12.0), k_samples=5,
        methods=("proposed", "no_detection", "perfect_detection", "wls_glrt"),
        n_deployments=8, n_corruptions=2, seed=99,
    )
    single = tmp_path / "one.csv"
    multi = tmp_path / "eight.csv"
    emit_csv(run_campaign(cfg, threads=1), single)
    emit_csv(run_campaign(cfg, threads=8), multi)
    ok = single.read_bytes() == multi.read_bytes()
    report(11, "worker-count determinism", ok,
           f"CSV bytes identical across 1 and 8 workers: {ok}")
