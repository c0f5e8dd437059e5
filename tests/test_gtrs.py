"""Tests for seculoc.gtrs."""

import dataclasses
import math

import numpy as np
import pytest

from seculoc.baseline import wls_locate
from seculoc.errors import DegenerateGeometryError, NoRootError
from seculoc.gtrs import GtrsSystem, build_system, solve


def random_instance(rng, n=4, noise=0.5):
    while True:
        anchors = rng.uniform(0, 20, (n, 2))
        if np.linalg.svd(anchors - anchors.mean(0), compute_uv=False)[1] > 1e-3:
            break
    target = rng.uniform(0, 20, 2)
    d = np.linalg.norm(anchors - target, axis=1) + rng.normal(0, noise, n)
    d = np.maximum(d, 0.05)
    return anchors, target, d


# The lifted problem in numpy: design rows (-2a, 1), right-hand side
# d^2 - ||a||^2 and normalized inverse-distance weights. The oracles below
# score solutions against it, independently of the solver's moments.
def lifted(anchors, d):
    anchors, d = np.asarray(anchors, dtype=float), np.asarray(d, dtype=float)
    design = np.column_stack([-2.0 * anchors, np.ones(len(d))])
    rhs = d * d - (anchors * anchors).sum(axis=1)
    weights = (1.0 / d) / (1.0 / d).sum()
    return design, rhs, weights


def gram(anchors, d):
    design, rhs, weights = lifted(anchors, d)
    return design.T @ (weights[:, None] * design), design.T @ (weights * rhs)


def objective(anchors, d, ys):
    """Weighted squared residual of each lifted point in ``ys``."""
    design, rhs, weights = lifted(anchors, d)
    resid = np.atleast_2d(ys) @ design.T - rhs
    return (weights * resid * resid).sum(axis=1)


def scaled(s, k):
    """The system with every weight multiplied by k."""
    return dataclasses.replace(
        s, w_sum=k * s.w_sum, scatter=tuple(k * v for v in s.scatter), g=tuple(k * v for v in s.g),
        g_alpha=k * s.g_alpha,
    )


# Frozen reference: the design-matrix system and the two-pass moment
# reduction it replaced. The moments, and with them every solve and WLS
# output, must match it bit for bit.
def reference_build(anchors, d):
    pts, dist = np.asarray(anchors, dtype=float).tolist(), np.asarray(d, dtype=float).tolist()
    inv = [1.0 / r for r in dist]
    total = 0.0
    for v in inv:
        total += v
    return (
        np.array([(-2.0 * x, -2.0 * y, 1.0) for x, y in pts]),
        np.array([r * r - (x * x + y * y) for (x, y), r in zip(pts, dist)]),
        np.array([v / total for v in inv]),
    )


def reference_moments(design, rhs, weights):
    rows, rhs, weights = design.tolist(), rhs.tolist(), weights.tolist()
    pts = []
    w_sum = cx = cy = 0.0
    for w, (ex, ey, _) in zip(weights, rows):
        x, y = -0.5 * ex, -0.5 * ey
        pts.append((x, y))
        w_sum += w
        cx += w * x
        cy += w * y
    cx, cy = cx / w_sum, cy / w_sum
    sxx = sxy = syy = gx = gy = g_alpha = 0.0
    for w, (x, y), b in zip(weights, pts, rhs):
        ux, uy = x - cx, y - cy
        b += (x + ux) * cx + (y + uy) * cy
        wx, wy = w * ux, w * uy
        sxx += ux * wx
        sxy += ux * wy
        syy += uy * wy
        gx += wx * b
        gy += wy * b
        g_alpha += w * b
    return GtrsSystem(w_sum, (cx, cy), (sxx, sxy, syy), (gx, gy), g_alpha)


def reference_wls(s):
    (cx, cy), (sxx, sxy, syy), (gx, gy) = s.centroid, s.scatter, s.g
    det = sxx * syy - sxy * sxy
    return [cx - 0.5 * (syy * gx - sxy * gy) / det, cy - 0.5 * (sxx * gy - sxy * gx) / det]


HARD_CASE = (np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]]), np.full(4, 10.0))
STALLED = (np.array([(16.974, 5.446), (11.154, 19.743), (16.725, 5.853)]), np.array([13.681, 16.795, 13.53]))


class TestBuildSystem:
    def test_hand_values(self):
        # Equal ranges give weights 1/3 and the centroid (4/3, 4/3); in the
        # centred frame the right-hand side is d^2 - ||a - c||^2.
        anchors = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]
        s = build_system(anchors, np.full(3, math.sqrt(8.0)))
        assert s.w_sum == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(s.centroid, (4 / 3, 4 / 3), rtol=1e-15)
        np.testing.assert_allclose(s.scatter, (32 / 9, -16 / 9, 32 / 9), rtol=1e-14)
        np.testing.assert_allclose(s.g, (-64 / 27, -64 / 27), rtol=1e-13)
        assert s.g_alpha == pytest.approx(8 / 9, rel=1e-13)

    def test_equal_distances_give_equal_weights(self):
        s = build_system([(0, 0), (4, 0), (0, 4), (4, 4)], np.full(4, 3.0))
        assert s.w_sum == 1.0
        assert s.centroid == (2.0, 2.0)
        assert s.scatter == (4.0, 0.0, 4.0)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            anchors, _, d = random_instance(rng)
            s = build_system(anchors, d)
            assert s.w_sum == pytest.approx(1.0, abs=1e-12)
            sxx, sxy, syy = s.scatter
            assert sxx > 0 and sxx * syy > sxy * sxy

    def test_collinear_anchors_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="collinear"):
            build_system([(0, 0), (1, 1), (2, 2), (3, 3)], np.ones(4))

    def test_equals_array_form(self):
        # Reference: the moments from numpy arrays, equal to rounding.
        rng = np.random.default_rng(3)
        for n in range(3, 11):
            for _ in range(100):
                anchors, _, d = random_instance(rng, n=n)
                s = build_system(anchors, d)
                w = (1.0 / d) / (1.0 / d).sum()
                c = w @ anchors / w.sum()
                u = anchors - c
                b = d * d - (anchors * anchors).sum(axis=1) + (anchors + u) @ c
                m = (w * u.T) @ u
                np.testing.assert_allclose(s.w_sum, w.sum(), rtol=1e-15)
                np.testing.assert_allclose(s.centroid, c, rtol=1e-13)
                np.testing.assert_allclose(s.scatter, (m[0, 0], m[0, 1], m[1, 1]), rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(s.g, (w * b) @ u, rtol=1e-12, atol=1e-9)
                np.testing.assert_allclose(s.g_alpha, w @ b, rtol=1e-12, atol=1e-9)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            build_system([(0, 0), (4, 0), (0, 4)], [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_distance_rejected(self, bad):
        anchors, d = [(0, 0), (4, 0), (0, 4)], [bad, 1.0, 1.0]
        with pytest.raises(ValueError, match="positive and finite"):
            solve(build_system(anchors, d))
        with pytest.raises(ValueError, match="positive and finite"):
            wls_locate(anchors, d)


class TestFrozenReference:
    @staticmethod
    def instances():
        rng = np.random.default_rng(31)
        for n in range(3, 11):
            for _ in range(1000):
                anchors, _, d = random_instance(rng, n=n, noise=float(rng.choice([0.01, 0.5, 3.0])))
                yield anchors, d
        yield HARD_CASE
        yield STALLED

    def test_solve_and_wls_match_bit_for_bit(self):
        count = 0
        for anchors, d in self.instances():
            ref = reference_moments(*reference_build(anchors, d))
            s = build_system(anchors, d)
            assert s == ref
            got, want = solve(s), solve(ref)
            assert got.x.tolist() == want.x.tolist() and got.y.tolist() == want.y.tolist()
            assert (got.lam, got.phi_residual, got.iterations) == (want.lam, want.phi_residual, want.iterations)
            assert wls_locate(anchors, d).tolist() == reference_wls(ref)
            count += 1
        assert count == 8002


class TestSolve:
    def test_noiseless_square(self):
        anchors = np.array([(0.0, 0.0), (4.0, 0.0), (0.0, 4.0), (4.0, 4.0)])
        target = np.array([1.0, 1.0])
        d = np.linalg.norm(anchors - target, axis=1)
        sol = solve(build_system(anchors, d))
        np.testing.assert_allclose(sol.x, target, atol=1e-6)

    def test_lifted_coordinate_matches_norm(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            anchors, _, d = random_instance(rng)
            sol = solve(build_system(anchors, d))
            assert abs(sol.y[2] - sol.x @ sol.x) <= 1e-6

    def test_constraint_residual_bounded(self):
        rng = np.random.default_rng(12)
        tol = 1e-10
        for _ in range(100):
            anchors, _, d = random_instance(rng)
            sol = solve(build_system(anchors, d))
            assert abs(sol.phi_residual) <= 10 * tol

    def test_optimal_against_random_feasible_points(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            anchors, _, d = random_instance(rng)
            sol = solve(build_system(anchors, d))
            xs = rng.uniform(-5, 25, (2000, 2))
            ys = np.column_stack([xs, (xs * xs).sum(axis=1)])
            assert objective(anchors, d, sol.y)[0] <= objective(anchors, d, ys).min()

    def test_multiplier_function_strictly_decreasing(self):
        rng = np.random.default_rng(15)
        anchors, _, d = random_instance(rng)
        g, b = gram(anchors, d)
        q = np.diag([1.0, 1.0, 0.0])
        # G + lam Q stays positive definite right of -1 / (largest eigenvalue of G^-1 Q).
        left = -1.0 / np.linalg.eigvals(np.linalg.solve(g, q)).real.max()

        def phi(lam):
            y = np.linalg.solve(g + lam * q, b + [0, 0, 0.5 * lam])
            return y[0] ** 2 + y[1] ** 2 - y[2]

        lams = np.linspace(left + 1e-3, 50.0, 40)
        vals = [phi(lam) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dominates_projected_unconstrained_solution(self):
        # Projecting the free least-squares optimum onto the constraint gives a
        # feasible point; the exact solve must never score worse.
        rng = np.random.default_rng(21)
        for _ in range(50):
            anchors, _, d = random_instance(rng)
            sol = solve(build_system(anchors, d))
            free = np.linalg.solve(*gram(anchors, d))
            projected = np.array([free[0], free[1], free[0] ** 2 + free[1] ** 2])
            assert objective(anchors, d, sol.y)[0] <= objective(anchors, d, projected)[0] + 1e-9

    def test_weight_scaling_leaves_solution(self):
        rng = np.random.default_rng(16)
        anchors, _, d = random_instance(rng)
        s = build_system(anchors, d)
        a = solve(s)
        b = solve(scaled(s, 7.5))
        np.testing.assert_allclose(a.x, b.x, atol=1e-9)

    def test_reaches_tolerance_where_lifted_solves_stalled(self):
        sol = solve(build_system(*STALLED))
        assert abs(sol.phi_residual) <= 1e-10
        assert sol.iterations < 100

    def test_multiplier_satisfies_lifted_stationarity(self):
        rng = np.random.default_rng(22)
        for scale in (1.0, 7.5):
            for _ in range(50):
                anchors, _, d = random_instance(rng, n=int(rng.integers(3, 7)))
                sol = solve(scaled(build_system(anchors, d), scale))
                g, b = gram(anchors, d)
                y = np.linalg.solve(
                    scale * g + sol.lam * np.diag([1.0, 1.0, 0.0]), scale * b + [0.0, 0.0, 0.5 * sol.lam]
                )
                np.testing.assert_allclose(sol.y, y, rtol=1e-8, atol=1e-8)

    def test_hard_case_lands_on_the_circle_of_optima(self):
        # A 4 m square with every range 10 m: the gradient has no component
        # on the scatter eigenvectors and phi stays negative up to the pole,
        # so the optima form a circle about the centroid.
        anchors, d = HARD_CASE
        sol = solve(build_system(anchors, d))
        # The solver's stop: tol times the weighted mean squared distance of
        # the anchors from their centroid (8 m^2).
        assert abs(sol.phi_residual) <= 1e-10 * 8.0
        assert sol.iterations < 100
        assert sol.y[2] == pytest.approx(sol.x @ sol.x, rel=1e-12)
        # Best feasible value over a fine polar grid about the centroid.
        radius = np.linspace(0.0, 15.0, 3001)[:, None]
        angle = np.linspace(0.0, 2.0 * np.pi, 73)[None, :]
        x = np.stack([2.0 + radius * np.cos(angle), 2.0 + radius * np.sin(angle)], axis=-1).reshape(-1, 2)
        feasible = np.column_stack([x, (x * x).sum(axis=1)])
        assert objective(anchors, d, sol.y)[0] <= objective(anchors, d, feasible).min()
        assert np.linalg.norm(sol.x - 2.0) == pytest.approx(math.sqrt(84.0), rel=1e-9)

    def test_iterations_within_budget(self):
        rng = np.random.default_rng(18)
        anchors, _, d = random_instance(rng)
        sol = solve(build_system(anchors, d))
        assert 1 <= sol.iterations <= 100

    def test_overflowing_residual_raises_no_root(self):
        # The README quick-start scene times 1e70: z^2 overflows, and the
        # solve used to return its last iterate with a NaN residual.
        anchors = np.array([[1.0, 1.0], [18.0, 2.0], [3.0, 17.0], [16.0, 15.0]]) * 1e70
        d = np.linalg.norm(anchors - np.array([8.0, 11.0]) * 1e70, axis=1)
        with pytest.raises(NoRootError, match="did not converge"):
            solve(build_system(anchors, d))

    def test_hard_case_with_infinite_right_hand_side_raises_no_root(self):
        # z = 0 sends an infinite g_alpha down the hard case, which used to
        # return x = (nan, inf) with a NaN residual.
        with pytest.raises(NoRootError, match="not finite"):
            solve(GtrsSystem(1.0, (0.0, 0.0), (1.0, 0.0, 1.0), (0.0, 0.0), math.inf))

    @pytest.mark.parametrize("s", [1e-78, 1e-80, 1e-81])
    def test_underflowing_left_end_raises_no_root(self, s):
        # The README quick-start scene times s: (s0 + lam)^2 and z0^2 both
        # underflow at the bracket's left end, which used to raise a bare
        # ZeroDivisionError.
        anchors = np.array([[1.0, 1.0], [18.0, 2.0], [3.0, 17.0], [16.0, 15.0]]) * s
        d = np.linalg.norm(anchors - np.array([8.0, 11.0]) * s, axis=1)
        with pytest.raises(NoRootError, match="underflows"):
            solve(build_system(anchors, d))

    @pytest.mark.parametrize("scatter", [(1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (-1.0, 0.0, 1.0)],
                             ids=["singular", "zero", "indefinite"])
    def test_non_positive_definite_scatter_rejected(self, scatter):
        system = GtrsSystem(1.0, (0.0, 0.0), scatter, (1.0, 1.0), 1.0)
        with pytest.raises(DegenerateGeometryError, match="not positive definite"):
            solve(system)


class TestBuildSystemValidation:
    @pytest.mark.parametrize("anchors", [np.zeros(4), np.zeros((4, 3)), np.zeros((4, 2, 1))],
                             ids=["4", "4x3", "4x2x1"])
    def test_rejects_anchors_that_are_not_n_by_2(self, anchors):
        with pytest.raises(ValueError, match=r"anchors must be an \(N, 2\) array"):
            build_system(anchors, np.ones(4))

    def test_rejects_fewer_than_three_anchors(self):
        with pytest.raises(DegenerateGeometryError, match="at least 3 anchors"):
            build_system([(0.0, 0.0), (4.0, 0.0)], [1.0, 1.0])

    @pytest.mark.parametrize("d", [np.ones(3), np.ones(5), np.ones((4, 1))], ids=["3", "5", "4x1"])
    def test_rejects_wrong_distance_count(self, d):
        with pytest.raises(ValueError, match="one distance per anchor"):
            build_system([(0.0, 0.0), (4.0, 0.0), (0.0, 4.0), (4.0, 4.0)], d)
