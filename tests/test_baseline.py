"""Tests for seculoc.baseline."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from seculoc.baseline import GlrtConfig, estimate_attack_intensity, glrt_detect, glrt_threshold, wls_locate
from seculoc.bounds import q_function
from seculoc.errors import DegenerateGeometryError
from seculoc.measurement import AttackSpec, MeasurementSet, Scene, generate_measurements

ANCHORS = np.array([[0.0, 0.0], [16.0, 1.0], [2.0, 15.0], [15.0, 16.0]])
TARGET = np.array([7.0, 9.0])


def q_inverse_bisect(p):
    # Oracle: invert the tail probability by bisection on q_function.
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_function(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestWlsLocate:
    def test_noiseless_recovers_target(self):
        d = np.linalg.norm(ANCHORS - TARGET, axis=1)
        np.testing.assert_allclose(wls_locate(ANCHORS, d), TARGET, atol=1e-6)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        d = np.linalg.norm(ANCHORS - TARGET, axis=1) + rng.normal(0, 0.5, 4)
        d = np.maximum(d, 0.1)
        got = wls_locate(ANCHORS, d)
        w = (1.0 / d) / (1.0 / d).sum()
        design = np.column_stack([-2.0 * ANCHORS, np.ones(4)])
        rhs = d * d - (ANCHORS * ANCHORS).sum(axis=1)
        y = np.linalg.solve(design.T @ np.diag(w) @ design, design.T @ (w * rhs))
        np.testing.assert_allclose(got, y[:2], atol=1e-10)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(1)
        d = np.linalg.norm(ANCHORS - TARGET, axis=1) + rng.normal(0, 0.5, 4)
        d = np.maximum(d, 0.1)
        design = np.column_stack([-2.0 * ANCHORS, np.ones(4)])
        rhs = d * d - (ANCHORS * ANCHORS).sum(axis=1)
        w = (1.0 / d) / (1.0 / d).sum()
        base = np.linalg.solve(design.T @ np.diag(w) @ design, design.T @ (w * rhs))
        scaled = np.linalg.solve(design.T @ np.diag(9.0 * w) @ design, design.T @ ((9.0 * w) * rhs))
        np.testing.assert_allclose(base[:2], scaled[:2], atol=1e-10)
        np.testing.assert_allclose(wls_locate(ANCHORS, d), base[:2], atol=1e-10)

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            wls_locate(np.array([[0.0, 0], [1, 1], [2, 2], [3, 3]]), np.ones(4))


class TestGlrtThreshold:
    def test_even_odds_gives_zero(self):
        assert glrt_threshold(GlrtConfig(p_fa=0.5, sigma=1.0, k_samples=1)) == pytest.approx(0.0, abs=1e-12)

    def test_five_percent_point(self):
        got = glrt_threshold(GlrtConfig(p_fa=0.05, sigma=1.0, k_samples=1))
        assert got == pytest.approx(q_inverse_bisect(0.05), abs=1e-9)
        assert got == pytest.approx(1.6449, abs=1e-4)

    def test_matches_ndtri(self):
        p_fa = np.concatenate([np.logspace(-12.0, -1e-4, 400), np.linspace(1e-3, 0.999, 400)])
        for p in p_fa.tolist():
            want = float(ndtri(1.0 - p))
            got = glrt_threshold(GlrtConfig(p_fa=p, sigma=1.0, k_samples=1))
            assert got == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_scales_inverse_sqrt_k(self):
        t1 = glrt_threshold(GlrtConfig(p_fa=0.05, sigma=1.0, k_samples=1))
        t4 = glrt_threshold(GlrtConfig(p_fa=0.05, sigma=1.0, k_samples=4))
        assert t4 == pytest.approx(t1 / 2.0, rel=1e-12)

    def test_decreasing_in_p_fa_and_k(self):
        taus = [glrt_threshold(GlrtConfig(p_fa=p, sigma=1.0, k_samples=1)) for p in (0.01, 0.05, 0.2, 0.4)]
        assert all(a > b for a, b in zip(taus, taus[1:]))
        ks = [glrt_threshold(GlrtConfig(p_fa=0.05, sigma=1.0, k_samples=k)) for k in (1, 2, 5, 10)]
        assert all(a > b for a, b in zip(ks, ks[1:]))

    def test_rejects_bad_p_fa(self):
        with pytest.raises(ValueError):
            GlrtConfig(p_fa=0.0, sigma=1.0, k_samples=1)
        with pytest.raises(ValueError):
            GlrtConfig(p_fa=1.0, sigma=1.0, k_samples=1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        # A NaN threshold never flags and an infinite one never can.
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            GlrtConfig(p_fa=0.05, sigma=sigma, k_samples=1)


class TestGlrtDetect:
    def test_benign_noiseless_empty(self):
        sc = Scene(target=TARGET, anchors=ANCHORS)
        m = generate_measurements(sc, AttackSpec(), 1e-13, 4, np.random.default_rng(0))
        cfg = GlrtConfig(p_fa=0.05, sigma=1.0, k_samples=4)
        assert glrt_detect(TARGET, m, ANCHORS, cfg) == frozenset()

    def test_calibrated_at_true_location(self):
        # Per-anchor flag rate under no attack matches the nominal false alarm.
        sc = Scene(target=TARGET, anchors=ANCHORS)
        cfg = GlrtConfig(p_fa=0.05, sigma=1.0, k_samples=5)
        rng = np.random.default_rng(2)
        trials = 3000
        flags = np.zeros(4)
        for _ in range(trials):
            m = generate_measurements(sc, AttackSpec(), cfg.sigma, cfg.k_samples, rng)
            for i in glrt_detect(TARGET, m, ANCHORS, cfg):
                flags[i] += 1
        se = math.sqrt(cfg.p_fa * (1 - cfg.p_fa) / trials)
        assert np.all(np.abs(flags / trials - cfg.p_fa) < 3 * se)

    def test_strong_attack_always_flagged(self):
        sc = Scene(target=TARGET, anchors=ANCHORS)
        cfg = GlrtConfig(p_fa=0.05, sigma=1.0, k_samples=10)
        rng = np.random.default_rng(3)
        hits = 0
        trials = 500
        for _ in range(trials):
            m = generate_measurements(sc, AttackSpec(frozenset({1}), 10.0), cfg.sigma, cfg.k_samples, rng)
            hits += 1 in glrt_detect(TARGET, m, ANCHORS, cfg)
        # Analytic detection probability Q(Qinv(p_fa) - delta*sqrt(K)/sigma) is ~1 here.
        assert hits / trials > 0.99

    def test_rejects_one_row_for_many_anchors(self):
        m = MeasurementSet(samples=np.full((1, 5), 10.0), sigma=1.0)
        cfg = GlrtConfig(p_fa=0.05, sigma=1.0, k_samples=5)
        with pytest.raises(ValueError, match="one sample row per anchor"):
            estimate_attack_intensity(TARGET, m, ANCHORS)
        with pytest.raises(ValueError, match="one sample row per anchor"):
            glrt_detect(TARGET, m, ANCHORS, cfg)
