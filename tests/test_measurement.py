"""Tests for seculoc.measurement."""

import math
import pickle

import numpy as np
import pytest

from seculoc.measurement import (
    AttackSpec,
    MeasurementSet,
    Scene,
    generate_measurements,
    median_distance,
)

ANCHORS = np.array([[2.0, 3.0], [17.0, 4.0], [5.0, 16.0], [15.0, 15.0]])
TARGET = np.array([9.0, 10.0])


def make_scene():
    return Scene(target=TARGET, anchors=ANCHORS)


class TestTypes:
    def test_scene_distances(self):
        sc = make_scene()
        np.testing.assert_allclose(sc.true_distances(), np.linalg.norm(ANCHORS - TARGET, axis=1))

    def test_scene_rejects_too_few_anchors(self):
        with pytest.raises(ValueError, match="4 anchors"):
            Scene(target=TARGET, anchors=ANCHORS[:3])

    def test_scene_rejects_nonfinite(self):
        bad = ANCHORS.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Scene(target=TARGET, anchors=bad)

    @pytest.mark.parametrize("target", [[1.0, 2.0, 3.0], [[9.0, 10.0]], 5.0], ids=["3", "1x2", "scalar"])
    def test_scene_rejects_target_that_is_not_a_planar_point(self, target):
        with pytest.raises(ValueError, match="target must be a planar point"):
            Scene(target=target, anchors=ANCHORS)

    @pytest.mark.parametrize("anchors", [np.ones(8), np.ones((4, 3)), np.ones((4, 2, 1))], ids=["8", "4x3", "4x2x1"])
    def test_scene_rejects_anchors_that_are_not_n_by_2(self, anchors):
        with pytest.raises(ValueError, match=r"anchors must be an \(N, 2\) array"):
            Scene(target=TARGET, anchors=anchors)

    def test_attack_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            AttackSpec(frozenset({1}), -0.5)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_attack_rejects_non_finite_delta(self, delta):
        # Both used to construct, and sampling then blamed the samples.
        with pytest.raises(ValueError, match="attack intensity delta must be finite"):
            AttackSpec(frozenset({0}), delta)

    def test_attack_coerces_corrupted(self):
        a = AttackSpec({2, 0}, 1.0)
        assert a.corrupted == frozenset({0, 2})

    @pytest.mark.parametrize("index", [0.5, 1.0, "1"])
    def test_attack_rejects_non_integer_index(self, index):
        # 0.5 used to construct, and sampling then failed with numpy's IndexError.
        with pytest.raises(TypeError):
            AttackSpec(frozenset({index}), 9.0)

    def test_attack_keeps_numpy_integer_as_int(self):
        a = AttackSpec(frozenset({np.int64(2)}), 9.0)
        assert a.corrupted == frozenset({2})
        assert [type(i) for i in a.corrupted] == [int]

    def test_measurement_set_validation(self):
        with pytest.raises(ValueError):
            MeasurementSet(samples=np.ones((4, 1)), sigma=0.0)
        with pytest.raises(ValueError):
            MeasurementSet(samples=np.ones(4), sigma=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_measurement_set_rejects_non_finite_samples(self, bad):
        samples = np.ones((4, 3))
        samples[2, 1] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            MeasurementSet(samples=samples, sigma=1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_measurement_set_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            MeasurementSet(samples=np.ones((4, 1)), sigma=sigma)


class TestGenerate:
    def test_noiseless_benign(self):
        sc = make_scene()
        m = generate_measurements(sc, AttackSpec(), 1e-15, 3, np.random.default_rng(0))
        np.testing.assert_allclose(m.samples - sc.true_distances()[:, None], 0.0, atol=1e-12)

    def test_noiseless_attacked_branch(self):
        sc = make_scene()
        m = generate_measurements(sc, AttackSpec(frozenset({1}), 5.0), 1e-15, 2, np.random.default_rng(0))
        want = sc.true_distances()
        np.testing.assert_allclose(m.samples[1], want[1] + 5.0, atol=1e-10)
        np.testing.assert_allclose(m.samples[0], want[0], atol=1e-10)
        np.testing.assert_allclose(m.samples[2], want[2], atol=1e-10)

    def test_sample_mean_clt_bound(self):
        sc = make_scene()
        k = 10_000
        m = generate_measurements(sc, AttackSpec(), 1.0, k, np.random.default_rng(42))
        resid = m.samples.mean(axis=1) - sc.true_distances()
        assert np.all(np.abs(resid) < 4.0 / np.sqrt(k))

    def test_same_seed_bit_identical(self):
        sc = make_scene()
        m1 = generate_measurements(sc, AttackSpec(frozenset({0}), 3.0), 1.0, 5, np.random.default_rng(9))
        m2 = generate_measurements(sc, AttackSpec(frozenset({0}), 3.0), 1.0, 5, np.random.default_rng(9))
        assert np.array_equal(m1.samples, m2.samples)

    def test_floor_keeps_samples_positive(self):
        sc = Scene(target=[10.0, 10.0], anchors=[[10.0, 10.6], [1, 1], [19, 1], [10, 19]])
        m = generate_measurements(sc, AttackSpec(), 50.0, 200, np.random.default_rng(1))
        assert (m.samples > 0).all()

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            generate_measurements(make_scene(), AttackSpec(), sigma, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("k_samples", [0, -3])
    def test_rejects_bad_k_samples(self, k_samples):
        with pytest.raises(ValueError, match="at least one sample per anchor"):
            generate_measurements(make_scene(), AttackSpec(), 1.0, k_samples, np.random.default_rng(0))

    def test_rejects_out_of_range_attacker(self):
        with pytest.raises(ValueError, match="corrupted"):
            generate_measurements(make_scene(), AttackSpec(frozenset({7}), 1.0), 1.0, 1, np.random.default_rng(0))

    def test_honest_residual_moments(self):
        # Mean of the per-anchor sample means tends to 0, variance to sigma^2/K.
        sc = make_scene()
        sigma, k, trials = 1.0, 5, 4000
        rng = np.random.default_rng(123)
        resid = np.empty(trials)
        for t in range(trials):
            m = generate_measurements(sc, AttackSpec(), sigma, k, rng)
            resid[t] = m.means[2] - sc.true_distances()[2]
        se_mean = (sigma / np.sqrt(k)) / np.sqrt(trials)
        assert abs(resid.mean()) < 5 * se_mean
        var = resid.var(ddof=1)
        se_var = (sigma**2 / k) * np.sqrt(2.0 / (trials - 1))
        assert abs(var - sigma**2 / k) < 5 * se_var

    def test_corrupted_residual_mean_tracks_delta(self):
        sc = make_scene()
        rng = np.random.default_rng(321)
        delta, trials = 4.0, 2000
        resid = np.empty(trials)
        for t in range(trials):
            m = generate_measurements(sc, AttackSpec(frozenset({3}), delta), 1.0, 4, rng)
            resid[t] = m.means[3] - sc.true_distances()[3]
        assert abs(resid.mean() - delta) < 5 * (1.0 / np.sqrt(4 * trials))


class TestReductions:
    def test_reduce_k1_identity(self):
        m = MeasurementSet(samples=np.array([[3.0], [4.0], [5.0], [6.0]]), sigma=1.0)
        np.testing.assert_array_equal(m.means, [3.0, 4.0, 5.0, 6.0])

    def test_reduce_simple_mean(self):
        m = MeasurementSet(samples=np.array([[1.0, 2.0, 3.0]] * 4), sigma=1.0)
        np.testing.assert_allclose(m.means, 2.0)

    def test_reduce_matches_row_mean_oracle(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(1, 30, (6, 9))
        m = MeasurementSet(samples=samples, sigma=1.0)
        oracle = np.array([row.sum() / row.size for row in samples])
        np.testing.assert_allclose(m.means, oracle, rtol=1e-12)

    def test_means_computed_once_on_a_read_only_copy(self):
        # The set keeps a frozen copy of the samples and their row sums over
        # K, bit for bit what numpy's mean returns; the caller's array stays
        # its own and writable.
        rng = np.random.default_rng(8)
        for n, k in ((4, 1), (5, 10), (10, 37)):
            samples = rng.uniform(1, 30, (n, k))
            m = MeasurementSet(samples=samples, sigma=1.0)
            assert m.means.tolist() == (samples.sum(axis=1) / k).tolist() == samples.mean(axis=1).tolist()
            assert not np.shares_memory(m.samples, samples)
            for frozen in (m.samples, m.means):
                with pytest.raises(ValueError, match="read-only"):
                    frozen[0] = 0.0
            copy = pickle.loads(pickle.dumps(m))
            assert copy.means.tolist() == m.means.tolist()
            assert not (copy.samples.flags.writeable or copy.means.flags.writeable)
            samples[0] += 1.0
            assert m.samples[0].tolist() != samples[0].tolist()

    def test_median_odd(self):
        assert median_distance([1.0, 2.0, 3.0]) == 2.0

    def test_median_even_mean_of_middle(self):
        assert median_distance([1.0, 2.0, 3.0, 10.0]) == 2.5

    def test_median_matches_sort_oracle(self):
        rng = np.random.default_rng(6)
        for n in (3, 4, 7, 10):
            d = rng.uniform(0.1, 50, n)
            s = np.sort(d)
            oracle = s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])
            assert median_distance(d) == pytest.approx(oracle, rel=1e-15)

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median_distance([])

    def test_median_equals_numpy_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for n in range(1, 12):
            for _ in range(200):
                d = rng.uniform(0.1, 50, n) * 10.0 ** rng.integers(-3, 5)
                got = median_distance(d)
                assert type(got) is float
                assert got == float(np.median(d))
        with pytest.raises(ValueError):
            median_distance(np.array([]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_median_rejects_non_finite_at_every_position(self, bad, position):
        # With a NaN the sort depended on its position: [nan, 1, 0.5],
        # [1, nan, 0.5] and [0.5, 1, nan] gave 0.5, nan and 1.0.
        d = [1.0, 0.5]
        d.insert(position, bad)
        with pytest.raises(ValueError, match="distances must be finite"):
            median_distance(d)
