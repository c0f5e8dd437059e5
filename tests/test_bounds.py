"""Tests for seculoc.bounds."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from seculoc.bounds import (
    DetectionBounds,
    ErrorStats,
    _q,
    detection_bounds,
    prob_abs_leq,
    prob_abs_less,
)


def q_erfc(z):
    # Oracle: the Gaussian upper tail Q(z) from math.erfc.
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def q_quadrature(z):
    # Independent oracle: numerically integrate the standard normal tail.
    val, _ = quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2 * math.pi), z, 40.0)
    return val


class TestQFunction:
    """The Gaussian upper tail the bounds evaluate, ``bounds._q``."""

    def test_at_zero(self):
        assert _q(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        z = 1.7
        assert _q(-z) == pytest.approx(1.0 - _q(z), abs=1e-15)

    def test_against_quadrature(self):
        for z in (-3.0, -1.0, 0.3, 1.959964, 4.5):
            assert _q(z) == pytest.approx(q_quadrature(z), abs=1e-12)

    def test_quantile_value(self):
        assert _q(1.959964) == pytest.approx(0.025, abs=1e-6)

    def test_matches_scipy_erfc(self):
        z = np.concatenate([np.linspace(-8.0, 8.0, 16001), np.random.default_rng(3).uniform(-8.0, 8.0, 20000)])
        want = 0.5 * erfc(z / math.sqrt(2.0))
        assert max(abs(_q(v) - w) for v, w in zip(z.tolist(), want.tolist())) <= 1e-15


class TestProbAbsLeq:
    def test_huge_tau(self):
        assert prob_abs_leq(50.0, 1.3, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_centered_fold(self):
        tau, sigma = 0.8, 0.5
        want = 1.0 - 2.0 * q_erfc(tau / sigma)
        assert prob_abs_leq(tau, 0.0, sigma) == pytest.approx(want, abs=1e-14)

    def test_against_sampling(self):
        mu, sigma, tau = 2.0, 1.0, 1.0
        rng = np.random.default_rng(17)
        draws = rng.normal(mu, sigma, 1_000_000)
        emp = np.mean(np.abs(draws) <= tau)
        se = math.sqrt(emp * (1 - emp) / draws.size)
        assert abs(prob_abs_leq(tau, mu, sigma) - emp) < 3 * se

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            prob_abs_leq(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            prob_abs_leq(-0.1, 0.0, 1.0)

    def test_rejects_non_finite_inputs(self):
        # The clamp to [0, 1] would turn a NaN probability into 0.0.
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                prob_abs_leq(1.0, 0.0, sigma)
        with pytest.raises(ValueError, match="tau must be non-negative and finite"):
            prob_abs_leq(math.nan, 0.0, 1.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mean(self, mu):
        # A NaN mean made the clamp return 0.0.
        with pytest.raises(ValueError, match="mu must be finite"):
            prob_abs_leq(1.0, mu, 1.0)


class TestProbAbsLess:
    def test_exchangeable_zero_means(self):
        assert prob_abs_less(0.0, 0.0, 1.3) == pytest.approx(0.5, abs=1e-12)

    def test_dominant_attacker_mean(self):
        assert prob_abs_less(40.0, 0.3, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_against_sampling(self):
        rng = np.random.default_rng(23)
        mu_a, mu_i, sigma = 1.0, 0.2, 0.5
        a = rng.normal(mu_a, sigma, 1_000_000)
        b = rng.normal(mu_i, sigma, 1_000_000)
        emp = np.mean(np.abs(a) < np.abs(b))
        se = math.sqrt(emp * (1 - emp) / a.size)
        assert abs(prob_abs_less(mu_a, mu_i, sigma) - emp) < 3 * se

    def test_complement_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            mu_a, mu_i = rng.uniform(-4, 4, 2)
            sigma = rng.uniform(0.05, 3.0)
            total = prob_abs_less(mu_a, mu_i, sigma) + prob_abs_less(mu_i, mu_a, sigma)
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            prob_abs_less(1.0, 0.0, sigma)

    @pytest.mark.parametrize("mu_a, mu_i", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)])
    def test_rejects_non_finite_means(self, mu_a, mu_i):
        # A NaN mean made the clamp return 0.0.
        with pytest.raises(ValueError, match="means must be finite"):
            prob_abs_less(mu_a, mu_i, 1.0)


class TestDetectionBounds:
    def test_rejects_non_finite_stats(self):
        # A NaN sigma_y made the bounds read lpd1 = 1.0 above up_d = 0.0.
        with pytest.raises(ValueError, match="sigma_y must be positive and finite"):
            ErrorStats(mu=[1.0, 0.0, 0.0, 0.0], sigma_y=math.nan, attacker_index=0, tau=0.3)
        with pytest.raises(ValueError, match="tau must be non-negative and finite"):
            ErrorStats(mu=[1.0, 0.0, 0.0, 0.0], sigma_y=0.4, attacker_index=0, tau=math.nan)
        # A NaN attacker mean made lpd1 read 1.0 above up_d = 0.0.
        for mu in ([math.nan, 0.0, 0.0, 0.0], [1.0, 0.0, math.inf, 0.0]):
            with pytest.raises(ValueError, match="mu must be finite"):
                ErrorStats(mu=mu, sigma_y=0.4, attacker_index=0, tau=0.3)

    def make_stats(self, rng):
        n = int(rng.integers(4, 7))
        mu = rng.uniform(-3, 3, n)
        return ErrorStats(
            mu=mu,
            sigma_y=float(rng.uniform(0.02, 2.0)),
            attacker_index=int(rng.integers(0, n)),
            tau=float(rng.uniform(0.0, 1.0)),
        )

    def test_ordering_random_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            b = detection_bounds(self.make_stats(rng))
            assert 0.0 <= b.lpd1 <= 1.0
            assert 0.0 <= b.lpd2 <= 1.0
            assert b.lp_d == max(b.lpd1, b.lpd2)
            assert b.lp_d <= b.up_d <= 1.0

    def test_matches_per_anchor_reference_exactly(self):
        # Reference: the bounds assembled one honest anchor at a time from the
        # scalar probabilities, summed and multiplied in anchor order.
        def reference(s):
            a = s.attacker_index
            mu_a = float(s.mu[a])
            others = [float(m) for i, m in enumerate(s.mu) if i != a]
            p_exceed = q_erfc((s.tau + mu_a) / s.sigma_y) + q_erfc((s.tau - mu_a) / s.sigma_y)
            lpd1 = 1.0 - sum(prob_abs_less(mu_a, mu_i, s.sigma_y) for mu_i in others)
            lpd1 = min(1.0, max(0.0, lpd1 - prob_abs_leq(s.tau, mu_a, s.sigma_y)))
            lpd2 = p_exceed
            for mu_i in others:
                lpd2 *= prob_abs_leq(s.tau, mu_i, s.sigma_y)
            lpd2 = min(1.0, max(0.0, lpd2))
            return (lpd1, lpd2, max(lpd1, lpd2), min(1.0, max(0.0, p_exceed)))

        rng = np.random.default_rng(41)
        for _ in range(2000):
            n = int(rng.integers(4, 11))
            s = ErrorStats(
                mu=rng.uniform(-3, 3, n) * rng.choice([0.01, 1.0, 10.0]),
                sigma_y=float(rng.uniform(0.02, 2.0)),
                attacker_index=int(rng.integers(0, n)),
                tau=float(rng.uniform(0.0, 1.0)),
            )
            assert tuple(detection_bounds(s)) == reference(s)

    def test_equals_array_form_bit_for_bit(self):
        # Reference: the numpy form, with every Q value from one array call.
        def array_form(s):
            a = s.attacker_index
            mu_a = float(s.mu[a])
            others = np.delete(s.mu, a)
            rot_a = (mu_a - others) / math.sqrt(2.0)
            rot_i = (mu_a + others) / math.sqrt(2.0)
            z = np.concatenate(([s.tau + mu_a, s.tau - mu_a], rot_a, -rot_i, -rot_a, rot_i,
                                s.tau + others, s.tau - others)) / s.sigma_y
            q_tail = np.array([q_erfc(v) for v in z.tolist()])
            q_pairs = q_tail[2:].reshape(6, others.size)
            p_exceed = float(q_tail[0] + q_tail[1])
            up_d = min(1.0, max(0.0, p_exceed))
            less = np.clip(q_pairs[0] * q_pairs[1] + q_pairs[2] * q_pairs[3], 0.0, 1.0)
            lpd1 = 1.0 - sum(less.tolist())
            lpd1 -= min(1.0, max(0.0, 1.0 - p_exceed))
            lpd1 = min(1.0, max(0.0, lpd1))
            leq = np.clip(1.0 - (q_pairs[4] + q_pairs[5]), 0.0, 1.0)
            lpd2 = min(1.0, max(0.0, math.prod(leq.tolist(), start=p_exceed)))
            return (lpd1, lpd2, max(lpd1, lpd2), up_d)

        rng = np.random.default_rng(43)
        for n in range(4, 11):
            for _ in range(300):
                s = ErrorStats(
                    mu=rng.uniform(-3, 3, n) * rng.choice([0.01, 1.0, 10.0]),
                    sigma_y=float(rng.uniform(0.02, 2.0)),
                    attacker_index=int(rng.integers(0, n)),
                    tau=float(rng.uniform(0.0, 1.0)),
                )
                assert tuple(detection_bounds(s)) == array_form(s)

    def test_zero_tau_upper_bound_is_one(self):
        s = ErrorStats(mu=[0.5, 0.0, 0.1, -0.2], sigma_y=0.3, attacker_index=0, tau=0.0)
        assert detection_bounds(s).up_d == pytest.approx(1.0, abs=1e-12)

    def test_upper_bound_nonincreasing_in_tau(self):
        mu = [1.2, 0.1, -0.3, 0.2]
        taus = np.linspace(0.0, 1.0, 11)
        ups = [
            detection_bounds(ErrorStats(mu=mu, sigma_y=0.4, attacker_index=0, tau=t)).up_d
            for t in taus
        ]
        assert all(a >= b - 1e-12 for a, b in zip(ups, ups[1:]))

    def test_lpd2_vanishes_at_zero_tau(self):
        s = ErrorStats(mu=[1.0, 0.0, 0.0, 0.0], sigma_y=0.4, attacker_index=0, tau=0.0)
        b = detection_bounds(s)
        assert b.lpd2 == pytest.approx(0.0, abs=1e-12)

    def test_sandwiches_sampled_detection_probability(self):
        # Oracle: sample the full detection event y_a beating every rival and tau.
        rng = np.random.default_rng(37)
        for _ in range(25):
            s = self.make_stats(rng)
            b = detection_bounds(s)
            draws = rng.normal(s.mu, s.sigma_y, size=(200_000, s.mu.size))
            e = np.abs(draws)
            a = s.attacker_index
            rivals = np.delete(e, a, axis=1).max(axis=1)
            emp = np.mean((e[:, a] > rivals) & (e[:, a] > s.tau))
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / draws.shape[0])
            assert b.lp_d - 3 * se <= emp <= b.up_d + 3 * se

    def test_returns_named_tuple(self):
        s = ErrorStats(mu=[1.0, 0.2, 0.1, 0.0], sigma_y=0.5, attacker_index=0, tau=0.3)
        assert isinstance(detection_bounds(s), DetectionBounds)
