"""Tests for seculoc.baseline."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from seculoc.baseline import estimate_attack_intensity, glrt_detect, glrt_threshold, wls_locate
from seculoc.errors import DegenerateGeometryError
from seculoc.geometry import distances_to
from seculoc.measurement import AttackSpec, MeasurementSet, Scene, generate_measurements

from helpers import q_erfc

ANCHORS = np.array([[0.0, 0.0], [16.0, 1.0], [2.0, 15.0], [15.0, 16.0]])
TARGET = np.array([7.0, 9.0])


def q_inverse_bisect(p):
    # Oracle: invert the tail probability by bisection on Q.
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_erfc(mid) > p:
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
        assert glrt_threshold(0.5, 1.0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_five_percent_point(self):
        got = glrt_threshold(0.05, 1.0, 1)
        assert got == pytest.approx(q_inverse_bisect(0.05), abs=1e-9)
        assert got == pytest.approx(1.6449, abs=1e-4)

    def test_matches_ndtri(self):
        p_fa = np.concatenate([np.logspace(-12.0, -1e-4, 400), np.linspace(1e-3, 0.999, 400)])
        for p in p_fa.tolist():
            want = float(ndtri(1.0 - p))
            got = glrt_threshold(p, 1.0, 1)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_scales_inverse_sqrt_k(self):
        t1 = glrt_threshold(0.05, 1.0, 1)
        t4 = glrt_threshold(0.05, 1.0, 4)
        assert t4 == pytest.approx(t1 / 2.0, rel=1e-12)

    def test_decreasing_in_p_fa_and_k(self):
        taus = [glrt_threshold(p, 1.0, 1) for p in (0.01, 0.05, 0.2, 0.4)]
        assert all(a > b for a, b in zip(taus, taus[1:]))
        ks = [glrt_threshold(0.05, 1.0, k) for k in (1, 2, 5, 10)]
        assert all(a > b for a, b in zip(ks, ks[1:]))

    def test_rejects_bad_p_fa(self):
        with pytest.raises(ValueError, match="p_fa must lie strictly inside"):
            glrt_threshold(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="p_fa must lie strictly inside"):
            glrt_threshold(1.0, 1.0, 1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        # A NaN threshold never flags and an infinite one never can.
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            glrt_threshold(0.05, sigma, 1)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="at least one sample"):
            glrt_threshold(0.05, 1.0, 0)

    @pytest.mark.parametrize("k_samples", [2.5, 2.0, "2", None])
    def test_rejects_non_integer_k(self, k_samples):
        # 2.5 used to give sigma * Qinv(p_fa) / sqrt(2.5).
        with pytest.raises(TypeError):
            glrt_threshold(0.05, 1.0, k_samples)

    def test_accepts_numpy_integer_k(self):
        assert glrt_threshold(0.05, 1.0, np.int64(4)) == glrt_threshold(0.05, 1.0, 4)


class TestGlrtDetect:
    def test_benign_noiseless_empty(self):
        # Exact distances, read at the true position, leave every residual at zero.
        exact = np.linalg.norm(ANCHORS - TARGET, axis=1)
        m = MeasurementSet(samples=np.repeat(exact[:, None], 4, axis=1), sigma=1.0)
        assert glrt_detect(TARGET, m, ANCHORS, 0.05) == frozenset()

    def test_threshold_read_from_the_measurement_set(self):
        # On fixed samples, the flags are exactly the anchors whose estimated
        # bias beats the threshold for the set's own sigma and K.
        rng = np.random.default_rng(4)
        exact = np.linalg.norm(ANCHORS - TARGET, axis=1)
        samples = exact[:, None] + np.array([0.0, 1.5, 0.0, 0.6])[:, None] + rng.normal(0, 0.3, (4, 6))
        flag_sets = set()
        for sigma in (0.3, 1.0, 3.0):
            m = MeasurementSet(samples=samples, sigma=sigma)
            bias = estimate_attack_intensity(TARGET, m, ANCHORS).tolist()
            thresh = glrt_threshold(0.05, sigma, 6)
            flags = glrt_detect(TARGET, m, ANCHORS, 0.05)
            assert flags == frozenset(i for i, b in enumerate(bias) if b > thresh)
            flag_sets.add(flags)
        assert len(flag_sets) > 1

    def test_calibrated_at_true_location(self):
        # Per-anchor flag rate under no attack matches the nominal false alarm.
        sc = Scene(target=TARGET, anchors=ANCHORS)
        p_fa = 0.05
        rng = np.random.default_rng(2)
        trials = 3000
        flags = np.zeros(4)
        for _ in range(trials):
            m = generate_measurements(sc, AttackSpec(), 1.0, 5, rng)
            for i in glrt_detect(TARGET, m, ANCHORS, p_fa):
                flags[i] += 1
        se = math.sqrt(p_fa * (1 - p_fa) / trials)
        assert np.all(np.abs(flags / trials - p_fa) < 3 * se)

    def test_strong_attack_always_flagged(self):
        sc = Scene(target=TARGET, anchors=ANCHORS)
        rng = np.random.default_rng(3)
        hits = 0
        trials = 500
        for _ in range(trials):
            m = generate_measurements(sc, AttackSpec(frozenset({1}), 10.0), 1.0, 10, rng)
            hits += 1 in glrt_detect(TARGET, m, ANCHORS, 0.05)
        # Analytic detection probability Q(Qinv(p_fa) - delta*sqrt(K)/sigma) is ~1 here.
        assert hits / trials > 0.99

    def test_rejects_one_row_for_many_anchors(self):
        m = MeasurementSet(samples=np.full((1, 5), 10.0), sigma=1.0)
        with pytest.raises(ValueError, match="one sample row per anchor"):
            estimate_attack_intensity(TARGET, m, ANCHORS)
        with pytest.raises(ValueError, match="one sample row per anchor"):
            glrt_detect(TARGET, m, ANCHORS, 0.05)

    def test_intensity_reads_the_set_means(self):
        # d-bar minus the distances, exactly: no second average over the samples.
        rng = np.random.default_rng(5)
        sc = Scene(target=TARGET, anchors=ANCHORS)
        for _ in range(50):
            m = generate_measurements(sc, AttackSpec(frozenset({1}), 4.0), 1.0, 10, rng)
            x = rng.uniform(0.0, 20.0, 2)
            want = m.means - np.array(distances_to(ANCHORS.tolist(), x.tolist()))
            assert estimate_attack_intensity(x, m, ANCHORS).tolist() == want.tolist()
