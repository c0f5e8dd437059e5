"""Tests for seculoc.gtrs."""

import math

import numpy as np
import pytest

from seculoc.errors import DegenerateGeometryError
from seculoc.gtrs import (
    GtrsSystem,
    build_system,
    max_generalized_eigenvalue,
    objective,
    solve,
)


def random_instance(rng, n=4, noise=0.5):
    while True:
        anchors = rng.uniform(0, 20, (n, 2))
        if np.linalg.svd(anchors - anchors.mean(0), compute_uv=False)[1] > 1e-3:
            break
    target = rng.uniform(0, 20, 2)
    d = np.linalg.norm(anchors - target, axis=1) + rng.normal(0, noise, n)
    d = np.maximum(d, 0.05)
    return anchors, target, d


class TestBuildSystem:
    def test_hand_values(self):
        anchors = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]
        d = np.full(3, math.sqrt(8.0))
        s = build_system(anchors, d)
        np.testing.assert_allclose(s.design, [[0, 0, 1], [-8, 0, 1], [0, -8, 1]])
        np.testing.assert_allclose(s.rhs, [8.0, -8.0, -8.0])

    def test_equal_distances_give_equal_weights(self):
        s = build_system([(0, 0), (4, 0), (0, 4), (4, 4)], np.full(4, 3.0))
        np.testing.assert_allclose(s.weights, 0.25)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            anchors, _, d = random_instance(rng)
            s = build_system(anchors, d)
            assert s.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert (s.weights > 0).all()

    def test_collinear_anchors_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="collinear"):
            build_system([(0, 0), (1, 1), (2, 2), (3, 3)], np.ones(4))

    def test_equals_array_form(self):
        # Reference: the numpy form. numpy's 1-D sum adds one value at a time
        # below 8 values and in eight partial sums from 8 on, so the weights
        # equal it bit for bit below 8 anchors and to rounding beyond.
        rng = np.random.default_rng(3)
        for n in range(3, 11):
            for _ in range(100):
                anchors, _, d = random_instance(rng, n=n)
                s = build_system(anchors, d)
                weights = 1.0 / d
                weights /= weights.sum()
                assert s.design.tolist() == np.column_stack([-2.0 * anchors, np.ones(n)]).tolist()
                assert s.rhs.tolist() == (d * d - (anchors * anchors).sum(axis=1)).tolist()
                if n < 8:
                    assert s.weights.tolist() == weights.tolist()
                else:
                    np.testing.assert_allclose(s.weights, weights, rtol=1e-15, atol=0.0)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            build_system([(0, 0), (4, 0), (0, 4)], [1.0, 0.0, 1.0])


class TestMaxGeneralizedEigenvalue:
    def test_identity_gram(self):
        # Design chosen so the weighted Gram matrix is the identity.
        s = GtrsSystem(design=math.sqrt(3.0) * np.eye(3), rhs=np.zeros(3), weights=np.full(3, 1 / 3))
        np.testing.assert_allclose(s.gram(), np.eye(3), atol=1e-12)
        assert max_generalized_eigenvalue(s) == pytest.approx(1.0, abs=1e-12)

    def test_against_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            anchors, _, d = random_instance(rng)
            s = build_system(anchors, d)
            lam = max_generalized_eigenvalue(s)
            gram = s.gram()
            evals, evecs = np.linalg.eigh(gram)
            inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.T
            m = inv_sqrt @ np.diag([1.0, 1.0, 0.0]) @ inv_sqrt
            # Roots of det(m - x I) for the explicit 3x3 characteristic polynomial.
            c2 = -np.trace(m)
            c1 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m))
            c0 = -np.linalg.det(m)
            roots = np.roots([1.0, c2, c1, c0])
            assert lam == pytest.approx(max(roots.real), abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            anchors, _, d = random_instance(rng, n=5)
            assert max_generalized_eigenvalue(build_system(anchors, d)) >= 0.0


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
            sol = solve(build_system(anchors, d), tol=tol)
            assert abs(sol.phi_residual) <= 10 * tol

    def test_optimal_against_random_feasible_points(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            anchors, _, d = random_instance(rng)
            s = build_system(anchors, d)
            sol = solve(s)
            xs = rng.uniform(-5, 25, (2000, 2))
            ys = np.column_stack([xs, (xs * xs).sum(axis=1)])
            resid = ys @ s.design.T - s.rhs
            best = float((s.weights * resid * resid).sum(axis=1).min())
            assert objective(s, sol.y) <= best

    def test_multiplier_function_strictly_decreasing(self):
        rng = np.random.default_rng(15)
        anchors, _, d = random_instance(rng)
        s = build_system(anchors, d)
        gram, b = s.gram(), s.gram_rhs()
        lam_max = max_generalized_eigenvalue(s)

        def phi(lam):
            y = np.linalg.solve(gram + lam * np.diag([1.0, 1.0, 0.0]), b + [0, 0, 0.5 * lam])
            return y[0] ** 2 + y[1] ** 2 - y[2]

        lams = np.linspace(-1.0 / lam_max + 1e-3, 50.0, 40)
        vals = [phi(lam) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dominates_projected_unconstrained_solution(self):
        # Projecting the free least-squares optimum onto the constraint gives a
        # feasible point; the exact solve must never score worse.
        rng = np.random.default_rng(21)
        for _ in range(50):
            anchors, _, d = random_instance(rng)
            s = build_system(anchors, d)
            sol = solve(s)
            free = np.linalg.solve(s.gram(), s.gram_rhs())
            projected = np.array([free[0], free[1], free[0] ** 2 + free[1] ** 2])
            assert objective(s, sol.y) <= objective(s, projected) + 1e-9

    def test_weight_scaling_leaves_solution(self):
        rng = np.random.default_rng(16)
        anchors, _, d = random_instance(rng)
        s = build_system(anchors, d)
        scaled = GtrsSystem(design=s.design, rhs=s.rhs, weights=7.5 * s.weights)
        a = solve(s)
        b = solve(scaled)
        np.testing.assert_allclose(a.x, b.x, atol=1e-9)

    def test_reaches_tolerance_where_lifted_solves_stalled(self):
        anchors = np.array([(16.974, 5.446), (11.154, 19.743), (16.725, 5.853)])
        d = np.array([13.681, 16.795, 13.53])
        sol = solve(build_system(anchors, d))
        assert abs(sol.phi_residual) <= 1e-10
        assert sol.iterations < 100

    def test_multiplier_satisfies_lifted_stationarity(self):
        rng = np.random.default_rng(22)
        for scale in (1.0, 7.5):
            for _ in range(50):
                anchors, _, d = random_instance(rng, n=int(rng.integers(3, 7)))
                s = build_system(anchors, d)
                s = GtrsSystem(design=s.design, rhs=s.rhs, weights=scale * s.weights)
                sol = solve(s)
                y = np.linalg.solve(
                    s.gram() + sol.lam * np.diag([1.0, 1.0, 0.0]),
                    s.gram_rhs() + [0.0, 0.0, 0.5 * sol.lam],
                )
                np.testing.assert_allclose(sol.y, y, rtol=1e-8, atol=1e-8)

    def test_hard_case_lands_on_the_circle_of_optima(self):
        # A 4 m square with every range 10 m: the gradient has no component
        # on the scatter eigenvectors and phi stays negative up to the pole,
        # so the optima form a circle about the centroid.
        anchors = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
        s = build_system(anchors, np.full(4, 10.0))
        sol = solve(s)
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
        best = (s.weights * (feasible @ s.design.T - s.rhs) ** 2).sum(axis=1).min()
        assert objective(s, sol.y) <= best
        assert np.linalg.norm(sol.x - 2.0) == pytest.approx(math.sqrt(84.0), rel=1e-9)

    def test_nonstandard_design_rejected(self):
        s = GtrsSystem(design=math.sqrt(3.0) * np.eye(3), rhs=np.ones(3), weights=np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="standard"):
            solve(s)

    def test_iterations_within_budget(self):
        rng = np.random.default_rng(18)
        anchors, _, d = random_instance(rng)
        sol = solve(build_system(anchors, d), max_iter=100)
        assert 1 <= sol.iterations <= 100
