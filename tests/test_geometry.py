"""Tests for seculoc.geometry."""

import math

import numpy as np
import pytest

from seculoc.errors import DegenerateGeometryError
from seculoc.geometry import (
    Circle,
    CircleRelation,
    classify_pair,
    collinear_scatter,
    intersect_circles,
)


def on_circle(p, c: Circle, rtol=1e-9):
    return abs(math.hypot(p[0] - c.x, p[1] - c.y) - c.r) < rtol * max(1.0, c.r)


def two_points(meet):
    """The (x0, y0, x1, y1) floats of an intersection as two (x, y) points."""
    return [meet[:2], meet[2:]]


class TestCircle:
    def test_fields(self):
        c = Circle(1.0, 2.0, 3.0)
        assert (c.x, c.y) == (1.0, 2.0)
        assert c.r == 3.0

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="positive"):
            Circle(0, 0, 0)
        with pytest.raises(ValueError, match="positive"):
            Circle(0, 0, -1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Circle(math.nan, 0, 1)
        with pytest.raises(ValueError, match="finite"):
            Circle(0, 0, math.inf)

    def test_frozen(self):
        c = Circle(0, 0, 1)
        with pytest.raises(AttributeError):
            c.r = 2


class TestIntersectCircles:
    def test_three_four_five(self):
        meet = intersect_circles(Circle(0, 0, 5), Circle(6, 0, 5))
        assert isinstance(meet, tuple) and [type(v) for v in meet] == [float] * 4
        got = {tuple(np.round(p, 9)) for p in two_points(meet)}
        assert got == {(3.0, 4.0), (3.0, -4.0)}

    def test_tangent_returns_point_twice(self):
        pts = two_points(intersect_circles(Circle(0, 0, 1), Circle(2, 0, 1)))
        np.testing.assert_allclose(pts[0], [1.0, 0.0], atol=1e-12)
        assert pts[1] == pts[0]

    def test_separated_returns_none(self):
        assert intersect_circles(Circle(0, 0, 1), Circle(5, 0, 1)) is None

    def test_contained_returns_none(self):
        assert intersect_circles(Circle(0, 0, 10), Circle(2, 0, 1)) is None

    def test_points_lie_on_both_circles(self):
        # Oracle: substitute the returned points back into both circle equations.
        ci, cj = Circle(0, 0, 2.5), Circle(1.2, 0.7, 1.9)
        meet = intersect_circles(ci, cj)
        assert meet is not None
        for p in two_points(meet):
            assert on_circle(p, ci)
            assert on_circle(p, cj)

    def test_swap_gives_same_unordered_pair(self):
        # Swapping the circles negates the center offset and the radius
        # difference, both exactly, so the same two points come back in
        # the other order, bit for bit.
        rng = np.random.default_rng(2024)
        for _ in range(200):
            ci = Circle(*rng.uniform(-5, 5, 2), rng.uniform(0.5, 6))
            cj = Circle(*rng.uniform(-5, 5, 2), rng.uniform(0.5, 6))
            a = intersect_circles(ci, cj)
            b = intersect_circles(cj, ci)
            if a is None:
                assert b is None
                continue
            assert b == a[2:] + a[:2]

    def test_coincident_centers_raise(self):
        with pytest.raises(DegenerateGeometryError):
            intersect_circles(Circle(1, 1, 2), Circle(1, 1, 3))

    def test_random_points_on_both_circles(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(500):
            ci = Circle(*rng.uniform(-10, 10, 2), rng.uniform(0.5, 8))
            cj = Circle(*rng.uniform(-10, 10, 2), rng.uniform(0.5, 8))
            meet = intersect_circles(ci, cj)
            if meet is None:
                continue
            checked += 1
            for p in two_points(meet):
                assert on_circle(p, ci)
                assert on_circle(p, cj)
        assert checked > 100


class TestClassifyPair:
    def test_first_contains_second(self):
        assert classify_pair(Circle(0, 0, 10), Circle(2, 0, 1)) is CircleRelation.FIRST_CONTAINS_SECOND

    def test_second_contains_first(self):
        assert classify_pair(Circle(2, 0, 1), Circle(0, 0, 10)) is CircleRelation.SECOND_CONTAINS_FIRST

    def test_externally_disjoint(self):
        assert classify_pair(Circle(0, 0, 1), Circle(5, 0, 1)) is CircleRelation.EXTERNALLY_DISJOINT

    def test_intersecting(self):
        assert classify_pair(Circle(0, 0, 5), Circle(6, 0, 5)) is CircleRelation.INTERSECTING

    def test_tangent(self):
        assert classify_pair(Circle(0, 0, 1), Circle(2, 0, 1)) is CircleRelation.TANGENT

    def test_symmetric_up_to_containment_swap(self):
        rng = np.random.default_rng(11)
        swap = {
            CircleRelation.FIRST_CONTAINS_SECOND: CircleRelation.SECOND_CONTAINS_FIRST,
            CircleRelation.SECOND_CONTAINS_FIRST: CircleRelation.FIRST_CONTAINS_SECOND,
        }
        for _ in range(300):
            ci = Circle(*rng.uniform(-5, 5, 2), rng.uniform(0.3, 7))
            cj = Circle(*rng.uniform(-5, 5, 2), rng.uniform(0.3, 7))
            a = classify_pair(ci, cj)
            b = classify_pair(cj, ci)
            assert b is swap.get(a, a)

    def test_intersection_empty_iff_separated_or_contained(self):
        rng = np.random.default_rng(13)
        nonmeeting = {
            CircleRelation.EXTERNALLY_DISJOINT,
            CircleRelation.FIRST_CONTAINS_SECOND,
            CircleRelation.SECOND_CONTAINS_FIRST,
        }
        for _ in range(500):
            ci = Circle(*rng.uniform(-10, 10, 2), rng.uniform(0.3, 9))
            cj = Circle(*rng.uniform(-10, 10, 2), rng.uniform(0.3, 9))
            empty = intersect_circles(ci, cj) is None
            assert empty == (classify_pair(ci, cj) in nonmeeting)


class TestCollinearScatter:
    @staticmethod
    def scatter(points):
        u = points - points.mean(axis=0)
        (sxx, sxy), (_, syy) = (u.T @ u).tolist()
        return sxx, sxy, syy

    def test_matches_singular_value_ratio(self):
        # Oracle: the centred points' singular-value ratio against 1e-6, away
        # from the threshold by more than rounding.
        rng = np.random.default_rng(4)
        decided = 0
        for _ in range(2000):
            x = rng.uniform(0, 30, int(rng.integers(3, 7)))
            eps = 10.0 ** rng.uniform(-9, -3)
            pts = np.column_stack([x, 0.3 * x + 1.0 + eps * rng.normal(size=x.size)])
            pts = pts @ np.array([[0.6, -0.8], [0.8, 0.6]])
            sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            ratio = sv[1] / sv[0]
            if abs(math.log10(ratio) + 6.0) > 1e-3:
                assert collinear_scatter(*self.scatter(pts)) == (ratio <= 1e-6)
                decided += 1
        assert decided > 1900

    def test_coincident_points_are_collinear(self):
        assert collinear_scatter(0.0, 0.0, 0.0)
        assert collinear_scatter(*self.scatter(np.full((4, 2), 3.0)))

    def test_invariant_under_rotation_and_scale(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
        assert not collinear_scatter(*self.scatter(pts))
        line = np.column_stack([np.arange(4.0), np.arange(4.0)])
        for angle, scale in [(0.0, 1.0), (0.7, 1e-3), (2.1, 1e5)]:
            rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
            assert not collinear_scatter(*self.scatter(scale * pts @ rot.T))
            assert collinear_scatter(*self.scatter(scale * line @ rot.T))
