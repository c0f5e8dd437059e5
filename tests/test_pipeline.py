"""Tests for seculoc.pipeline."""

import math

import numpy as np
import pytest

import seculoc.pipeline
from seculoc.baseline import estimate_attack_intensity, glrt_detect, wls_locate
from seculoc.detection import DetectionOutcome, build_intersection_graph, detect, relative_errors
from seculoc.errors import NoRootError, UnlocalizableError
from seculoc.gtrs import build_system
from seculoc.measurement import AttackSpec, MeasurementSet, Scene, generate_measurements
from seculoc.pipeline import locate_no_detection, locate_perfect_detection, locate_secure

ANCHORS = np.array([[1.0, 1.0], [18.0, 2.0], [3.0, 17.0], [16.0, 15.0]])
TARGET = np.array([8.0, 11.0])


def scene():
    return Scene(target=TARGET, anchors=ANCHORS)


def noiseless(attack=AttackSpec(), k=1):
    return generate_measurements(scene(), attack, 1e-13, k, np.random.default_rng(0))


def random_scene(rng, n=4, side=20.0):
    while True:
        t = rng.uniform(0, side, 2)
        a = rng.uniform(0, side, (n, 2))
        if np.linalg.norm(a - t, axis=1).min() < 0.5:
            continue
        if np.linalg.svd(a - a.mean(0), compute_uv=False)[1] <= 1e-6:
            continue
        return Scene(target=t, anchors=a)


class TestAttackIntensity:
    def test_benign_noiseless_zero(self):
        m = noiseless()
        np.testing.assert_allclose(estimate_attack_intensity(TARGET, m, ANCHORS), 0.0, atol=1e-10)

    def test_attacked_anchor_reads_delta(self):
        m = noiseless(AttackSpec(frozenset({2}), 5.0))
        got = estimate_attack_intensity(TARGET, m, ANCHORS)
        np.testing.assert_allclose(got, [0.0, 0.0, 5.0, 0.0], atol=1e-10)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(1)
        m = MeasurementSet(samples=rng.uniform(3, 25, (4, 7)), sigma=1.0)
        x = rng.uniform(0, 20, 2)
        got = estimate_attack_intensity(x, m, ANCHORS)
        for i in range(4):
            want = sum(m.samples[i] - np.linalg.norm(x - ANCHORS[i])) / 7
            assert got[i] == pytest.approx(want, rel=1e-12)


class TestLocateSecure:
    def test_benign_noiseless_recovers_target(self):
        res = locate_secure(ANCHORS, noiseless(), 0.3)
        assert np.linalg.norm(res.x_final - TARGET) < 1e-6
        assert res.attacker_set == frozenset()

    def test_final_is_one_of_the_candidates(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            sc = random_scene(rng)
            m = generate_measurements(sc, AttackSpec(frozenset({0}), 6.0), 1.0, 10, rng)
            try:
                res = locate_secure(sc.anchors, m, 0.3)
            except UnlocalizableError:
                continue
            if res.chose_gtrs:
                # The refined estimate is the solve on the anchors left unflagged.
                refined = locate_perfect_detection(sc.anchors, m, res.attacker_set)
                np.testing.assert_array_equal(res.x_final, refined)
            else:
                assert res.x_final is res.x_init

    def test_geometric_shortcut_path(self):
        d = np.linalg.norm(ANCHORS - TARGET, axis=1)
        samples = d[:, None].repeat(2, axis=1)
        samples[2] += 60.0  # circle 2 swallows every other circle
        m = MeasurementSet(samples=samples, sigma=1.0)
        res = locate_secure(ANCHORS, m, 0.3)
        assert res.attacker_set == frozenset({2})
        assert res.x_init is None
        assert res.chose_gtrs
        assert np.linalg.norm(res.x_final - TARGET) < 1e-6
        # The pre-filter's outcome is kept, flag and all.
        assert res.geometric_flags == frozenset({2})
        assert res.removed == ()

    def test_result_is_the_detection_outcome_of_the_means(self):
        # locate_secure's inherited fields are detect()'s outcome on the same
        # means, on both branches, and the attacker set is derived from them.
        rng = np.random.default_rng(21)
        branches = {True: 0, False: 0}
        for _ in range(300):
            n = int(rng.integers(4, 9))
            sc = random_scene(rng, n=n)
            att = frozenset(rng.choice(n, size=int(rng.integers(1, 3)), replace=False).tolist())
            m = generate_measurements(sc, AttackSpec(att, float(rng.choice([0.0, 8.0, 60.0]))), 1.0, 3, rng)
            try:
                res = locate_secure(sc.anchors, m, 0.3)
            except UnlocalizableError:
                continue
            out = detect(sc.anchors, m.means, 0.3)
            assert isinstance(res, DetectionOutcome)
            assert res.geometric_flags == out.geometric_flags and res.removed == out.removed
            for name in ("x_init", "relative_errors"):
                got, want = getattr(res, name), getattr(out, name)
                assert got is None if want is None else np.array_equal(got, want)
            if out.honest is None:
                assert res.honest is None
            else:
                assert res.honest.pairs == out.honest.pairs
                np.testing.assert_array_equal(res.honest.points, out.honest.points)
            assert res.attacker_set == out.attacker_set == res.geometric_flags | set(res.removed)
            branches[res.x_init is None] += 1
        # Both the pre-filter branch and the full detection stage ran.
        assert branches[True] > 10 and branches[False] > 100

    def test_failed_refinement_falls_back_to_initial_estimate(self, monkeypatch):
        def no_root(system):
            raise NoRootError("forced")

        monkeypatch.setattr(seculoc.pipeline, "solve", no_root)
        res = locate_secure(ANCHORS, noiseless(k=3), 0.3)
        assert res.x_init is not None and not res.chose_gtrs
        assert res.x_final is res.x_init
        # Without an initial estimate there is nothing to fall back to.
        d = np.linalg.norm(ANCHORS - TARGET, axis=1)
        samples = d[:, None].repeat(2, axis=1)
        samples[2] += 60.0
        with pytest.raises(NoRootError):
            locate_secure(ANCHORS, MeasurementSet(samples=samples, sigma=1.0), 0.3)

    def test_huge_threshold_and_no_flags_reduces_to_selection(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            sc = random_scene(rng)
            m = generate_measurements(sc, AttackSpec(frozenset({1}), 2.0), 1.0, 10, rng)
            try:
                res = locate_secure(sc.anchors, m, 1.0)
            except UnlocalizableError:
                continue
            if res.x_init is None:
                continue  # geometric flag fired; threshold never consulted
            assert res.attacker_set == frozenset()

    def test_gtrs_branch_ignores_detected_anchor(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(200):
            sc = random_scene(rng)
            att = int(rng.integers(0, 4))
            m = generate_measurements(sc, AttackSpec(frozenset({att}), 15.0), 1.0, 10, rng)
            try:
                res = locate_secure(sc.anchors, m, 0.3)
            except UnlocalizableError:
                continue
            if res.attacker_set != frozenset({att}) or not res.chose_gtrs:
                continue
            # Bump before constructing: the set's means are computed once.
            samples = m.samples.copy()
            samples[att] += 2.0
            bumped = MeasurementSet(samples=samples, sigma=m.sigma)
            try:
                res2 = locate_secure(sc.anchors, bumped, 0.3)
            except UnlocalizableError:
                continue
            if res2.attacker_set != res.attacker_set or not res2.chose_gtrs:
                continue
            np.testing.assert_array_equal(res.x_final, res2.x_final)
            checked += 1
        assert checked > 50

    def test_strong_attack_beats_no_detection_by_2m(self):
        rng = np.random.default_rng(7)
        se_sec = se_nd = 0.0
        n_sec = n_nd = 0
        for _ in range(1000):
            sc = random_scene(rng)
            att = int(rng.integers(0, 4))
            m = generate_measurements(sc, AttackSpec(frozenset({att}), 15.0), 1.0, 10, rng)
            se_nd += np.sum((locate_no_detection(sc.anchors, m) - sc.target) ** 2)
            n_nd += 1
            try:
                res = locate_secure(sc.anchors, m, 0.3)
            except UnlocalizableError:
                continue
            se_sec += np.sum((res.x_final - sc.target) ** 2)
            n_sec += 1
        rmse_sec = np.sqrt(se_sec / n_sec)
        rmse_nd = np.sqrt(se_nd / n_nd)
        assert rmse_nd - rmse_sec >= 2.0

    def test_benign_five_anchors_close_to_perfect_detection(self):
        rng = np.random.default_rng(8)
        se_sec = se_pd = 0.0
        n = 0
        for _ in range(1000):
            sc = random_scene(rng, n=5)
            att = int(rng.integers(0, 5))
            m = generate_measurements(sc, AttackSpec(frozenset({att}), 0.0), 1.0, 10, rng)
            try:
                res = locate_secure(sc.anchors, m, 0.3)
            except UnlocalizableError:
                continue
            se_sec += np.sum((res.x_final - sc.target) ** 2)
            se_pd += np.sum((locate_perfect_detection(sc.anchors, m, {att}) - sc.target) ** 2)
            n += 1
        assert np.sqrt(se_sec / n) - np.sqrt(se_pd / n) <= 0.3

    def test_rejects_small_network(self):
        with pytest.raises(UnlocalizableError):
            locate_secure(ANCHORS[:3], noiseless(), 0.3)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            locate_secure(ANCHORS, noiseless(), 1.5)

    @pytest.mark.parametrize("anchors", [np.zeros((4, 3)), np.zeros(4), np.zeros((4, 2, 1)), np.zeros((2, 4))],
                             ids=["4x3", "4", "4x2x1", "2x4"])
    @pytest.mark.parametrize("entry", [
        lambda anchors, m: build_intersection_graph(anchors, m.means),
        lambda anchors, m: locate_secure(anchors, m, 0.3),
    ], ids=["build_intersection_graph", "locate_secure"])
    def test_rejects_anchors_that_are_not_n_by_2(self, entry, anchors):
        with pytest.raises(ValueError, match=r"anchors must be an \(N, 2\) array"):
            entry(anchors, noiseless())


def scaled_quick_start(s):
    """The README quick-start scene, coordinates and noiseless ranges times s."""
    d = np.linalg.norm(ANCHORS * s - TARGET * s, axis=1)
    return ANCHORS * s, MeasurementSet(samples=d[:, None], sigma=1.0)


class TestCoordinateScale:
    @pytest.mark.parametrize("s", [1e-52, 1e-50, 1.0, 1e50])
    def test_exact_solve_up_to_1e50(self, s):
        res = locate_secure(*scaled_quick_start(s), 0.3)
        assert res.chose_gtrs
        np.testing.assert_allclose(res.x_final / s, TARGET, rtol=1e-12)

    @pytest.mark.parametrize("s", [1e55, 1e70])
    def test_overflowing_solve_keeps_the_initial_estimate(self, s):
        # At 1e70 the solve used to run out its evaluations on a NaN
        # residual, and the pipeline kept that estimate, 1.27 s from the target.
        res = locate_secure(*scaled_quick_start(s), 0.3)
        assert not res.chose_gtrs and res.x_final is res.x_init
        np.testing.assert_allclose(res.x_final / s, TARGET, rtol=1e-12)

    @pytest.mark.parametrize("s", [1e-78, 1e-80, 1e-81, 1e-82])
    def test_underflowing_solve_keeps_the_initial_estimate(self, s):
        # From 1e-78 to 1e-81 the solve used to raise a bare ZeroDivisionError
        # at its bracket's left end; at 1e-82 build_system calls the anchors collinear.
        res = locate_secure(*scaled_quick_start(s), 0.3)
        assert not res.chose_gtrs and res.x_final is res.x_init

    def test_moved_and_scaled_scene(self):
        # A Scene used to refuse any point outside a 20 m box that no stage
        # read, so this layout could not be built at all.
        def move(p):
            return (p - 5000.0) * 1000.0

        results = []
        for f, s in ((lambda p: p, 1.0), (move, 1000.0)):
            sc = Scene(target=f(TARGET), anchors=f(ANCHORS))
            m = generate_measurements(sc, AttackSpec(frozenset({2}), 9.0 * s), 0.3 * s, 10, np.random.default_rng(7))
            results.append(locate_secure(sc.anchors, m, 0.3))
        plain, moved = results
        assert moved.chose_gtrs and moved.attacker_set == plain.attacker_set == {2}
        np.testing.assert_allclose(moved.x_final, move(plain.x_final), rtol=0, atol=1e-3)

    @pytest.mark.parametrize("s", [1e77, 1e80])
    def test_overflowing_intersection_test_raises_value_error(self, s):
        with pytest.raises(ValueError, match="overflow the intersection test"):
            locate_secure(*scaled_quick_start(s), 0.3)


class TestBenchmarks:
    def test_benign_benchmarks_agree_with_gtrs_branch(self):
        m = noiseless()
        res = locate_secure(ANCHORS, m, 0.3)
        nd = locate_no_detection(ANCHORS, m)
        assert res.chose_gtrs
        np.testing.assert_allclose(nd, res.x_final, atol=1e-12)
        pd = locate_perfect_detection(ANCHORS, m, set())
        np.testing.assert_allclose(pd, nd, atol=1e-12)

    def test_no_detection_error_grows_with_delta(self):
        rng = np.random.default_rng(9)
        scenes = [random_scene(rng) for _ in range(300)]
        attackers = [int(rng.integers(0, 4)) for _ in range(300)]
        rmses = []
        for delta in (0.0, 5.0, 10.0, 15.0):
            se = 0.0
            for sc, att in zip(scenes, attackers):
                m = generate_measurements(sc, AttackSpec(frozenset({att}), delta), 1.0, 10, rng)
                se += np.sum((locate_no_detection(sc.anchors, m) - sc.target) ** 2)
            rmses.append(np.sqrt(se / len(scenes)))
        assert all(a < b for a, b in zip(rmses, rmses[1:]))

    def test_perfect_detection_needs_three_survivors(self):
        with pytest.raises(UnlocalizableError):
            locate_perfect_detection(ANCHORS, noiseless(), {0, 1})

    @pytest.mark.parametrize("attackers", [[7], [-1], [0, 4]])
    def test_perfect_detection_rejects_out_of_range_attackers(self, attackers):
        with pytest.raises(ValueError, match="outside anchor range"):
            locate_perfect_detection(ANCHORS, noiseless(), attackers)

    @pytest.mark.parametrize("attackers", [[0.5], [1.0], [np.float64(2.0)]])
    def test_perfect_detection_rejects_non_integer_attackers(self, attackers):
        # [0.5] passed the range check, removed no anchor and returned the
        # no-detection estimate.
        with pytest.raises(TypeError):
            locate_perfect_detection(ANCHORS, noiseless(), attackers)

    def test_perfect_detection_accepts_numpy_integers(self):
        m = noiseless()
        got = locate_perfect_detection(ANCHORS, m, np.array([1]))
        np.testing.assert_array_equal(got, locate_perfect_detection(ANCHORS, m, [1]))


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("entry", [
    lambda anchors, m: build_system(anchors, m.means),
    lambda anchors, m: wls_locate(anchors, m.means),
    lambda anchors, m: locate_no_detection(anchors, m),
    lambda anchors, m: locate_perfect_detection(anchors, m, {0}),
    lambda anchors, m: glrt_detect(TARGET, m, anchors, 0.05),
], ids=["build_system", "wls_locate", "locate_no_detection", "locate_perfect_detection", "glrt_detect"])
def test_rejects_non_finite_anchor(entry, bad):
    # Anchor 2 stays in every system; a non-finite one used to yield NaN
    # estimates, or flag an anchor in the GLRT, instead of an error.
    anchors = ANCHORS.copy()
    anchors[2, 0] = bad
    with pytest.raises(ValueError, match="anchors must be finite"):
        entry(anchors, noiseless())


def _with(array, index, value):
    out = np.array(array, dtype=float)
    out[index] = value
    return out


@pytest.mark.parametrize("entry", [
    lambda m: glrt_detect([math.nan, 0.0], m, ANCHORS, 0.05),
    lambda m: estimate_attack_intensity([0.0, math.inf], m, ANCHORS),
    lambda m: relative_errors([math.nan, 0.0], ANCHORS, m.means),
    lambda m: relative_errors(TARGET, ANCHORS, _with(m.means, 1, math.nan)),
    lambda m: relative_errors(TARGET, ANCHORS, _with(m.means, 1, math.inf)),
    lambda m: relative_errors(TARGET, _with(ANCHORS, (3, 1), math.inf), m.means),
], ids=["glrt_detect-position", "estimate_attack_intensity-position", "relative_errors-position",
        "relative_errors-nan-range", "relative_errors-inf-range", "relative_errors-inf-anchor"])
def test_residuals_reject_non_finite_inputs(entry):
    # Each used to return an empty flag set, NaN biases, or NaN and inf errors.
    with pytest.raises(ValueError, match="must be finite"):
        entry(noiseless())
