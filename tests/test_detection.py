"""Tests for seculoc.detection."""

import functools
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seculoc import detection
from seculoc.detection import (
    DetectionOutcome,
    HonestSet,
    IntersectionGraph,
    build_intersection_graph,
    detect,
    relative_errors,
    select_honest_points,
    wcm_estimate,
)
from seculoc.errors import UnlocalizableError
from seculoc.geometry import Circle, CircleRelation, classify_pair, intersect_circles
from seculoc.measurement import AttackSpec, generate_measurements, median_distance

from helpers import random_scene

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
CENTER = np.array([0.5, 0.5])


def square_distances():
    return np.linalg.norm(SQUARE - CENTER, axis=1)


def pairwise_distance_sum(points):
    """Oracle: the sum of the distances between every two of the points."""
    return sum(math.dist(p, q) for p, q in itertools.combinations(np.asarray(points).tolist(), 2))


class TestBuildIntersectionGraph:
    def test_consistent_square_all_pairs_intersect(self):
        g = build_intersection_graph(SQUARE, square_distances())
        assert len(g.points) == 6
        assert g.pairs == tuple(itertools.combinations(range(4), 2))
        assert not g.geometric_flags

    def test_gross_enlargement_flags_anchor(self):
        d = square_distances()
        d[1] = 100.0
        g = build_intersection_graph(SQUARE, d)
        assert g.geometric_flags == frozenset({1})

    @pytest.mark.parametrize("d", [np.ones(3), np.ones(5), np.ones((4, 1))], ids=["3", "5", "4x1"])
    def test_rejects_wrong_distance_count(self, d):
        with pytest.raises(ValueError, match="one distance per anchor required"):
            build_intersection_graph(SQUARE, d)

    def test_pair_in_exactly_one_bucket(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            sc = random_scene(rng)
            m = generate_measurements(sc, AttackSpec(frozenset({0}), 6.0), 1.0, 1, rng)
            g = build_intersection_graph(sc.anchors, m.means)
            assert g.pairs == tuple(sorted(set(g.pairs)))
            # A pair is absent from the graph exactly when its circles do not meet.
            circles = [Circle(x, y, r) for (x, y), r in zip(sc.anchors.tolist(), m.means.tolist())]
            for i, j in itertools.combinations(range(4), 2):
                assert ((i, j) in g.pairs) == (intersect_circles(circles[i], circles[j]) is not None)

    def test_matches_pairwise_classification_oracle(self):
        # Oracle: re-derive intersect/disjoint from the raw triangle inequalities.
        rng = np.random.default_rng(77)
        for _ in range(100):
            sc = random_scene(rng)
            m = generate_measurements(sc, AttackSpec(frozenset({2}), 3.0), 1.0, 1, rng)
            d = m.means
            g = build_intersection_graph(sc.anchors, d)
            for i, j in itertools.combinations(range(4), 2):
                gap = np.linalg.norm(sc.anchors[i] - sc.anchors[j])
                apart = gap > d[i] + d[j] or d[i] > gap + d[j] or d[j] > gap + d[i]
                assert ((i, j) not in g.pairs) == apart

    def test_flags_subset_of_fully_disjoint_anchors(self):
        # At most one flag: only the strictly largest circle can contain
        # every other, and it meets none of them.
        rng = np.random.default_rng(123)
        for n in range(4, 11):
            flagged = 0
            for _ in range(100):
                sc = random_scene(rng, n=n)
                m = generate_measurements(sc, AttackSpec(frozenset({1}), 14.0), 1.0, 1, rng)
                d = m.means
                g = build_intersection_graph(sc.anchors, d)
                assert len(g.geometric_flags) <= 1
                for i in g.geometric_flags:
                    assert not [p for p in g.pairs if i in p]
                    assert all(d[i] > d[j] for j in range(n) if j != i)
                    flagged += 1
            assert flagged, n

    def test_matches_two_call_reference_loop(self):
        # Reference: the loop that classified every pair and then intersected
        # the meeting ones, computing each meeting pair's discriminant twice.
        def reference(anchors, d):
            circles = [Circle(x, y, r) for (x, y), r in zip(anchors.tolist(), d.tolist())]
            n = len(circles)
            points, disjoint, rel = {}, set(), {}
            for i, j in itertools.combinations(range(n), 2):
                rel[i, j] = classify_pair(circles[i], circles[j])
                if rel[i, j] in (CircleRelation.INTERSECTING, CircleRelation.TANGENT):
                    points[i, j] = intersect_circles(circles[i], circles[j])
                else:
                    disjoint.add((i, j))
            flags = {
                i for i in range(n)
                if all(rel[min(i, j), max(i, j)] is (CircleRelation.FIRST_CONTAINS_SECOND if i < j
                                                     else CircleRelation.SECOND_CONTAINS_FIRST)
                       for j in range(n) if j != i)
            }
            return points, disjoint, flags

        def check(anchors, d):
            g = build_intersection_graph(anchors, d)
            points, disjoint, flags = reference(anchors, d)
            assert g.pairs == tuple(points)
            assert g.points.shape == (len(points), 2, 2)
            assert g.points.reshape(-1, 4).tolist() == [list(pts) for pts in points.values()]
            assert set(itertools.combinations(range(len(d)), 2)) - set(g.pairs) == disjoint
            assert g.geometric_flags == flags

        rng = np.random.default_rng(88)
        for _ in range(300):
            n = int(rng.integers(4, 9))
            sc = random_scene(rng, n=n)
            delta = float(rng.choice([0.0, 5.0, 15.0, 40.0]))
            m = generate_measurements(sc, AttackSpec(frozenset({0}), delta), 1.0, 1, rng)
            check(sc.anchors, m.means)
        # Exact ranges on a lattice: opposite anchors are externally tangent.
        target = np.array([10.0, 10.0])
        offsets = np.array([(3, 4), (4, 3), (-3, -4), (-4, -3), (3, -4), (-3, 4)], dtype=float)
        check(target + offsets, np.full(6, 5.0))
        # Internal and external tangencies, exact and inside the tangency band.
        anchors = np.array([[0.0, 0.0], [10.0, 0.0], [2.0, 0.0], [0.0, 9.0]])
        for eps in (0.0, 1e-13, -1e-13):
            check(anchors, np.array([5.0, 5.0 * (1 + eps), 3.0, 30.0]))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.integers(4, 8).flatmap(lambda n: st.tuples(st.integers(0, 2**32 - 1), st.permutations(range(n)))))
    def test_relabelling_the_anchors_relabels_the_graph(self, case):
        # New anchor k is old anchor order[k]. A pair whose anchors swap
        # order swaps its circles, and with them its two candidates, so
        # each row is compared as an unordered pair of points, bit for bit.
        seed, order = case
        rng = np.random.default_rng(seed)
        sc = random_scene(rng, n=len(order))
        delta = float(rng.choice([0.0, 5.0, 15.0, 40.0]))
        d = generate_measurements(sc, AttackSpec(frozenset({0}), delta), 1.0, 1, rng).means
        g = build_intersection_graph(sc.anchors, d)
        h = build_intersection_graph(sc.anchors[list(order)], d[list(order)])
        new = {old: k for k, old in enumerate(order)}

        def relabel(pair):
            return tuple(sorted((new[pair[0]], new[pair[1]])))

        def unordered(pts):
            return frozenset(map(tuple, pts.tolist()))

        want = {relabel(p): unordered(pts) for p, pts in zip(g.pairs, g.points)}
        assert h.pairs == tuple(sorted(want))
        assert [unordered(pts) for pts in h.points] == [want[p] for p in h.pairs]
        assert h.geometric_flags == {new[i] for i in g.geometric_flags}


class TestSelectHonestPoints:
    def test_noiseless_points_all_near_target(self):
        d = square_distances()
        g = build_intersection_graph(SQUARE, d)
        honest = select_honest_points(g, 3)
        for p in honest.points:
            np.testing.assert_allclose(p, CENTER, atol=1e-9)

    def test_at_most_one_point_per_pair(self):
        rng = np.random.default_rng(1)
        sc = random_scene(rng)
        m = generate_measurements(sc, AttackSpec(frozenset({0}), 4.0), 1.0, 1, rng)
        g = build_intersection_graph(sc.anchors, m.means)
        honest = select_honest_points(g, 3)
        pairs = honest.pairs
        assert len(pairs) == len(set(pairs)) == 3

    def test_matches_exhaustive_oracle(self):
        # Oracle: plain itertools enumeration scored by pairwise_distance_sum.
        rng = np.random.default_rng(2)
        checked = 0
        for n in [4] * 30 + [5] * 3:
            sc = random_scene(rng, n=n)
            m = generate_measurements(sc, AttackSpec(frozenset({n - 1}), 8.0), 1.0, 1, rng)
            g = build_intersection_graph(sc.anchors, m.means)
            avail = range(len(g.pairs))
            for size in range(3, min(5, len(avail)) + 1):
                best = np.inf
                for pair_combo in itertools.combinations(avail, size):
                    for signs in itertools.product((0, 1), repeat=size):
                        pts = [g.points[p, s] for p, s in zip(pair_combo, signs)]
                        best = min(best, pairwise_distance_sum(pts))
                got = select_honest_points(g, size)
                assert pairwise_distance_sum(got.points) == pytest.approx(best, abs=1e-12)
                checked += 1
        assert checked > 60

    def test_exact_above_former_enumeration_size(self):
        # C(15, 6) * 2^6 = 320,320 (subset, sign) choices: a brute-force
        # minimum over all of them must be met exactly.
        anchors = np.array([[15.09, 3.05], [18.49, 3.22], [1.26, 10.1],
                            [13.2, 1.42], [1.14, 3.42], [14.69, 12.84]])
        d = np.array([15.08, 17.65, 5.99, 14.77, 12.37, 14.32])
        g = build_intersection_graph(anchors, d)
        size = 6
        pair_ids = g.pairs
        assert len(pair_ids) == 15
        flat = g.points.reshape(-1, 2)
        dist = np.linalg.norm(flat[:, None] - flat[None], axis=-1)
        combos = np.array(list(itertools.combinations(range(len(pair_ids)), size)))
        signs = np.array(list(itertools.product((0, 1), repeat=size)))
        idx = (2 * combos[:, None, :] + signs[None]).reshape(-1, size)
        iu, jv = np.triu_indices(size, 1)
        best = dist[idx[:, iu], idx[:, jv]].sum(axis=1).min()
        got = select_honest_points(g, size)
        assert pairwise_distance_sum(got.points) == pytest.approx(best, rel=1e-12)

    def test_excludes_far_flung_corrupted_intersections(self):
        rng = np.random.default_rng(3)
        sc = random_scene(rng)
        d = sc.true_distances()
        d[1] += 8.0
        g = build_intersection_graph(sc.anchors, d)
        honest = select_honest_points(g, 3)
        # Noiseless honest circles still meet at the target.
        np.testing.assert_allclose(
            honest.points.mean(axis=0), sc.target, atol=1e-6
        )

    def test_tie_break_deterministic(self):
        d = square_distances()
        g = build_intersection_graph(SQUARE, d)
        a = select_honest_points(g, 3)
        b = select_honest_points(g, 3)
        assert a.pairs == b.pairs
        np.testing.assert_array_equal(a.points, b.points)

    def test_too_few_pairs_raises(self):
        g = IntersectionGraph(
            pairs=((0, 1), (2, 3)),
            points=np.stack([np.zeros((2, 2)), np.ones((2, 2))]),
            geometric_flags=frozenset(),
        )
        with pytest.raises(UnlocalizableError, match="intersecting pairs"):
            select_honest_points(g, 3)

    def test_target_below_minimum_raises(self):
        g = build_intersection_graph(SQUARE, square_distances())
        with pytest.raises(UnlocalizableError):
            select_honest_points(g, 2)

    def test_coincident_points_of_many_pairs(self):
        # Exact ranges on a lattice: all 28 pairs meet exactly at the target,
        # so C(28, 7) subsets tie at zero cost. The search stops at the first
        # zero instead of enumerating the ties, which takes over a minute.
        target = np.array([10.0, 10.0])
        offsets = [(3, 4), (4, 3), (-3, 4), (-4, 3), (3, -4), (4, -3), (-3, -4), (-4, -3)]
        g = build_intersection_graph(target + np.array(offsets, dtype=float), np.full(8, 5.0))
        start = time.perf_counter()
        honest = select_honest_points(g, 7)
        assert time.perf_counter() - start < 2.0
        np.testing.assert_array_equal(honest.points, np.tile(target, (7, 1)))

    def test_greedy_finds_obvious_cluster(self):
        # One tight cluster plus scattered decoys, one candidate pair each.
        rng = np.random.default_rng(4)
        n_pairs, size = 12, 5
        cluster = rng.normal(0.0, 0.01, (n_pairs, 2))
        decoys = rng.uniform(20, 60, (n_pairs, 2)) * rng.choice([-1, 1], (n_pairs, 2))
        g = graph_of(np.stack([cluster, decoys], axis=1))
        got = select_honest_points(g, size)
        assert np.abs(got.points).max() < 0.1


def brute_force_selection(g, size):
    """Most compact choice by enumeration, under the selector's tie-break.

    Every choice is scored by the same gather-and-sum over one distance
    matrix; exact ties go to the sorted rounded coordinates, then to
    (pairs, signs) in lexicographic order.
    """
    pair_ids = g.pairs
    flat = g.points.reshape(-1, 2)
    dist = np.linalg.norm(flat[:, None] - flat[None], axis=-1)
    iu, jv = np.triu_indices(size, 1)
    best = None
    for combo in itertools.combinations(range(len(pair_ids)), size):
        for signs in itertools.product((0, 1), repeat=size):
            sel = np.array([2 * p + s for p, s in zip(combo, signs)])
            key = (dist[sel[iu], sel[jv]].sum(), sorted(map(tuple, np.round(flat[sel], 12))), combo, signs)
            if best is None or key < best[0]:
                best = (key, sel)
    return [pair_ids[c // 2] for c in best[1]], flat[best[1]]


def clustered_candidates(rng, n_pairs, spread):
    """One candidate per pair near (10, 10), the other anywhere, in random sign order."""
    points = np.stack([rng.normal(10.0, spread, (n_pairs, 2)), rng.uniform(0, 20, (n_pairs, 2))], axis=1)
    flip = rng.random(n_pairs) < 0.5
    points[flip] = points[flip, ::-1]
    return points


def graph_of(points):
    """Intersection graph holding the given (n_pairs, 2, 2) candidates, one anchor pair each."""
    return IntersectionGraph(
        pairs=tuple((i, i + 1) for i in range(len(points))),
        points=np.asarray(points, dtype=float),
        geometric_flags=frozenset(),
    )


def closes_by_count(steps):
    """Every array step scores two points, or gathers at most the closing budget of distances."""
    return all(r == 2 or math.comb(n_open, r) * math.comb(r, 2) <= detection._CLOSING_BUDGET
               for n_open, r in steps)


class TestClosingStep:
    """A node closes in one array step when its completions fit the budget:
    three points from at most eight pairs (16 slots), so the root of every
    such request."""

    @pytest.fixture
    def subsets(self, monkeypatch):
        calls = []
        original = detection._subsets

        def spy(n_open, r):
            calls.append((n_open, r))
            return original(n_open, r)

        monkeypatch.setattr(detection, "_subsets", spy)
        return calls

    def check(self, g, subsets, array_step=True):
        subsets.clear()
        got = select_honest_points(g, 3)
        pairs, points = brute_force_selection(g, 3)
        assert got.pairs == pairs
        np.testing.assert_array_equal(got.points, points)
        assert ((2 * len(g.points), 3) in subsets) == array_step
        assert closes_by_count(subsets)

    def test_random_candidates_two_to_eight_pairs(self, subsets):
        rng = np.random.default_rng(11)
        with pytest.raises(UnlocalizableError):
            select_honest_points(graph_of(rng.uniform(0, 20, (2, 2, 2))), 3)
        for n_pairs in range(3, 9):
            for _ in range(15):
                points = clustered_candidates(rng, n_pairs, rng.uniform(0.01, 3.0))
                self.check(graph_of(points), subsets)

    def test_random_scenes(self, subsets):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 60:
            n = int(rng.integers(4, 6))
            sc = random_scene(rng, n=n)
            m = generate_measurements(sc, AttackSpec(frozenset({0}), 5.0), 1.0, 1, rng)
            g = build_intersection_graph(sc.anchors, m.means)
            if not 3 <= len(g.points) <= 8:
                continue
            self.check(g, subsets)
            checked += 1

    def test_exact_tie_lattice(self, subsets):
        # Exact ranges: every pair meets exactly at the target, so every
        # choice of three pairs ties at cost zero.
        target = np.array([10.0, 10.0])
        offsets = np.array([(3, 4), (-3, 4), (4, -3), (-4, -3), (4, 3)], dtype=float)
        for n in (4, 5):
            g = build_intersection_graph(target + offsets[:n], np.full(n, 5.0))
            for keep in itertools.combinations(range(len(g.pairs)), min(len(g.pairs), 8)):
                rows = list(keep)
                sub = IntersectionGraph(tuple(g.pairs[r] for r in rows), g.points[rows], frozenset())
                self.check(sub, subsets)
                np.testing.assert_array_equal(select_honest_points(sub, 3).points, np.tile(target, (3, 1)))

    def test_zero_cost_clusters_break_ties_on_coordinates(self, subsets):
        # Pairs 0-2 meet exactly at (10, 10), pairs 3-5 exactly at (5, 5):
        # both triples cost zero, and the smaller coordinates win.
        rng = np.random.default_rng(13)
        far = rng.uniform(15, 20, (6, 2))
        meet = [(10.0, 10.0)] * 3 + [(5.0, 5.0)] * 3
        g = graph_of(np.stack([np.array(meet), far], axis=1))
        self.check(g, subsets)
        assert select_honest_points(g, 3).pairs == [(3, 4), (4, 5), (5, 6)]

    def test_zero_cost_clusters_of_nine_pairs(self, subsets):
        # Pairs 0-2 meet exactly at (10, 10), pairs 3-5 at (5, 5) and pairs
        # 6-8 at (12, 3). Nine pairs run the branch and bound, which stops at
        # its first zero; the tie rule must still pick the smallest
        # coordinates, as the array step does for the first six pairs alone.
        rng = np.random.default_rng(16)
        far = rng.uniform(15, 20, (9, 2))
        meet = [(10.0, 10.0)] * 3 + [(5.0, 5.0)] * 3 + [(12.0, 3.0)] * 3
        points = np.stack([np.array(meet), far], axis=1)
        points[[1, 4, 8]] = points[[1, 4, 8], ::-1]
        self.check(graph_of(points), subsets, array_step=False)
        assert select_honest_points(graph_of(points), 3).pairs == [(3, 4), (4, 5), (5, 6)]
        self.check(graph_of(points[:6]), subsets)
        assert select_honest_points(graph_of(points[:6]), 3).pairs == [(3, 4), (4, 5), (5, 6)]

    def test_nine_pairs_use_the_branch_and_bound(self, subsets):
        # C(18, 3) * 3 = 2448 gathered distances exceed the budget, so the
        # root does not close; the root pass drops candidates, and the
        # search closes on the rest.
        rng = np.random.default_rng(14)
        for _ in range(10):
            self.check(graph_of(clustered_candidates(rng, 9, 1.0)), subsets, array_step=False)
            assert subsets and all(n_open < 18 for n_open, _ in subsets)


@functools.cache
def reference_subsets(n_open, r):
    """The frozen search's closing table: every choice of r of n_open pairs,
    one candidate (2*pair + sign) each, as r index columns."""
    pairs = np.array(list(itertools.combinations(range(n_open), r)), dtype=np.intp).reshape(-1, r)
    signs = np.array(list(itertools.product((0, 1), repeat=r)), dtype=np.intp)
    table = (2 * pairs[:, None, :] + signs).reshape(-1, r)
    return tuple(np.ascontiguousarray(table[:, k]) for k in range(r))


def reference_most_compact(flat, dist, size):
    """The selector's search before it took pairs cluster first, kept frozen.

    Pairs in the caller's order, each node bounded by half the nearest
    distances to candidates of every other pair, closing in one array step
    with two points left or with three from at most 8 open pairs. It reads
    only distances between candidates of distinct pairs.
    """
    closing_pairs = 8
    n_cand = dist.shape[0]
    n_pairs = n_cand // 2
    limit = math.inf
    leaves = []

    def few_open(first):
        return n_pairs - first <= closing_pairs

    def close(chosen, cost, reach, first, r):
        nonlocal limit
        lo = 2 * first
        cols = reference_subsets(n_pairs - first, r)
        tail_dist = dist[lo:, lo:]
        costs = cost + sum(tail_dist[cols[j], cols[k]] for j, k in itertools.combinations(range(r), 2))
        if chosen:
            costs += sum(reach[lo:][col] for col in cols)
        lowest = float(costs.min())
        if lowest > limit:
            return
        limit = min(limit, lowest + 1e-9 * lowest)
        for i in np.flatnonzero(costs <= limit).tolist():
            leaves.append((float(costs[i]), chosen + tuple(lo + int(col[i]) for col in cols)))

    def descend(chosen, cost, reach, first, r):
        if limit == 0.0:
            return
        if r == 2:
            close(chosen, cost, reach, first, r)
            return
        lo = 2 * first
        v = reach[lo:] + half[r - 1, lo:]
        per_pair = v.reshape(-1, 2).min(axis=1)
        smallest = np.sort(np.partition(per_pair, r - 1)[:r]).tolist()
        rest, last = sum(smallest[:-1]), smallest[-1]
        if cost + rest + last > limit:
            return
        if r == 3 and few_open(first):
            close(chosen, cost, reach, first, r)
            return
        own_pair, v_list = per_pair.tolist(), v.tolist()
        for c in np.argsort(v[:2 * (n_pairs - r + 1) - lo], kind="stable").tolist():
            if cost + v_list[c] + rest > limit:
                break
            own = own_pair[c // 2]
            if own <= smallest[-2] and cost + v_list[c] + rest + last - own > limit:
                continue
            c += lo
            descend(chosen + (c,), cost + reach[c], reach + dist[c], c // 2 + 1, r - 1)

    if size == 3 and few_open(0):
        close((), 0.0, np.zeros(n_cand), 0, size)
    else:
        pair_of = np.arange(n_cand) // 2
        nearest = np.sort(np.where(pair_of[:, None] == pair_of[None, :], np.inf, dist), axis=1)
        half = np.zeros((size, n_cand))
        half[1:] = 0.5 * np.cumsum(nearest[:, :size - 1], axis=1).T
        descend((), 0.0, np.zeros(n_cand), 0, size)
    if limit == 0.0:
        return detection._coincident_choice(flat, size)
    near = [sel for c, sel in leaves if c <= limit]
    if len(near) == 1:
        return list(near[0])
    idx = np.array(near)
    iu, jv = np.triu_indices(size, 1)
    comp = dist[idx[:, iu], idx[:, jv]].sum(axis=-1)
    ties = idx[comp == comp.min()]
    # Sorted coordinates rounded to 12 decimals, then pairs, then signs.
    chosen = min(ties, key=lambda sel: (
        tuple(sorted(map(tuple, np.round(flat[sel], 12)))), (sel // 2).tolist(), (sel % 2).tolist()))
    return chosen.tolist()


@st.composite
def candidate_requests(draw):
    """Clustered candidates of 9..14 pairs and a size of 3..8 points.

    Up to four candidates are overwritten with copies of other candidates,
    so some choices tie exactly.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pairs = int(rng.integers(9, 15))
    points = clustered_candidates(rng, n_pairs, rng.uniform(0.01, 3.0))
    slot = st.tuples(st.integers(0, n_pairs - 1), st.integers(0, 1))
    for (dst, s), (src, t) in draw(st.lists(st.tuples(slot, slot), max_size=4)):
        points[dst, s] = points[src, t]
    return points, int(rng.integers(3, 9))


def far_points(n_pairs):
    """One candidate per pair on a 40 m grid far from the test clusters."""
    return np.array([(100.0 + 40.0 * (i % 6), 100.0 + 40.0 * (i // 6)) for i in range(n_pairs)])


class TestSearchOrder:
    """Each node takes its children in its own bound order: same selections
    as the frozen reference, which searches in the caller's order."""

    def same_as_reference(self, g, size, monkeypatch):
        got = select_honest_points(g, size)
        with monkeypatch.context() as m:
            m.setattr(detection, "_most_compact", reference_most_compact)
            want = select_honest_points(g, size)
        assert got.pairs == want.pairs
        np.testing.assert_array_equal(got.points, want.points)
        return got

    def requested(self, rng, n, sigma, delta, monkeypatch):
        """The (graph, size) requests `detect` makes on one seeded scene."""
        sc = random_scene(rng, n=n)
        m = generate_measurements(sc, AttackSpec(frozenset({int(rng.integers(n))}), delta), sigma, 10, rng)
        calls = []
        original = detection.select_honest_points

        def spy(graph, size):
            calls.append((graph, size))
            return original(graph, size)

        with monkeypatch.context() as mp:
            mp.setattr(detection, "select_honest_points", spy)
            try:
                detect(sc.anchors, m.means, 0.3)
            except UnlocalizableError:
                pass
        return calls

    def test_detect_requests_match_reference(self, monkeypatch):
        rng = np.random.default_rng(21)
        sizes = set()
        for n in (6, 8, 10):
            for delta in (0.0, 5.0, 10.0, 15.0):
                for _ in range(8):
                    for g, size in self.requested(rng, n, 1.0, delta, monkeypatch):
                        self.same_as_reference(g, size, monkeypatch)
                        sizes.add(size)
        assert {3, 5, 7, 9} <= sizes

    def test_tight_twelve_anchor_scenes_match_reference(self, monkeypatch):
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(6):
            for g, size in self.requested(rng, 12, 0.1, 0.0, monkeypatch):
                assert size >= 6
                self.same_as_reference(g, size, monkeypatch)
                checked += 1
        assert checked == 6

    def test_scenes_of_eight_to_twelve_anchors_match_reference(self, monkeypatch):
        rng = np.random.default_rng(23)
        checked = 0
        for n in (8, 10, 12):
            for sigma in (0.1, 1.0):
                for delta in (0.0, 5.0, 10.0, 15.0):
                    for _ in range(2):
                        for g, size in self.requested(rng, n, sigma, delta, monkeypatch):
                            self.same_as_reference(g, size, monkeypatch)
                            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("n_pairs, size, cases", [(9, 4, 2), (10, 4, 2), (11, 4, 1), (12, 4, 1),
                                                      (8, 6, 2), (10, 6, 1), (11, 7, 1)])
    def test_matches_brute_force(self, n_pairs, size, cases):
        rng = np.random.default_rng(100 * n_pairs + size)
        for _ in range(cases):
            g = graph_of(clustered_candidates(rng, n_pairs, rng.uniform(0.1, 2.0)))
            pairs, points = brute_force_selection(g, size)
            got = select_honest_points(g, size)
            assert got.pairs == pairs
            np.testing.assert_array_equal(got.points, points)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(candidate_requests())
    def test_random_candidates_match_reference(self, case):
        points, size = case
        flat, dist = detection._candidate_distances(points)
        want = reference_most_compact(flat, dist, size)
        got = select_honest_points(graph_of(points), size)
        assert got.pairs == [(c // 2, c // 2 + 1) for c in want]
        np.testing.assert_array_equal(got.points, flat[want])

    def test_zero_cost_clusters_break_ties_on_coordinates(self, monkeypatch):
        # Pairs 0-5 meet exactly at (10, 10), pairs 6-11 at (12, 3) and the
        # highest, 14-19, at (5, 5). Every member of a zero-cost cluster has
        # a neighbour sum of exactly zero, so the root's bound order keeps
        # the caller's order among them and stops at (10, 10); the tie rule
        # must still pick the smallest coordinates.
        meet = [(10.0, 10.0)] * 6 + [(12.0, 3.0)] * 6 + [(40.0, 40.0)] * 2 + [(5.0, 5.0)] * 6
        points = np.stack([np.array(meet), far_points(20)], axis=1)
        points[[2, 7, 13, 15]] = points[[2, 7, 13, 15], ::-1]
        got = self.same_as_reference(graph_of(points), 6, monkeypatch)
        assert got.pairs == [(i, i + 1) for i in range(14, 20)]
        np.testing.assert_array_equal(got.points, np.tile([5.0, 5.0], (6, 1)))

    def test_exact_ties_reached_out_of_order(self, monkeypatch):
        # Three six-point clusters on horizontal lines with integer spacing,
        # so every cost is an exact integer: the lines at (10, 10) and (5, 5)
        # and five coincident points plus one 7 m away at (30, 3), all
        # costing 35. The last cluster holds the highest pairs and the
        # smallest neighbour sums (7 against 9), so the root's bound order
        # reaches it first; the tie rule must still pick the (5, 5) line.
        line = np.arange(6.0)[:, None] * [1.0, 0.0]
        far = np.array([(30.0, 3.0)] * 5 + [(37.0, 3.0)])
        clusters = np.concatenate([line + [10.0, 10.0], line + [5.0, 5.0], far_points(2) + 300.0, far])
        points = np.stack([clusters, far_points(20)], axis=1)
        gaps = np.linalg.norm(clusters[:, None] - clusters[None], axis=-1)
        np.fill_diagonal(gaps, np.inf)
        neighbour_sums = np.sort(gaps, axis=1)[:, :5].sum(axis=1)
        assert neighbour_sums[14:19].max() < neighbour_sums[:12].min()
        got = self.same_as_reference(graph_of(points), 6, monkeypatch)
        assert got.pairs == [(i, i + 1) for i in range(6, 12)]

    def test_rounding_tie_summed_in_caller_order(self, monkeypatch):
        # The same six points twice, at (5, 5) in one order of their pairs
        # and at (20, 20) in another. The two costs are equal in exact
        # arithmetic, but summed in the caller's pair order the (20, 20)
        # copy is one rounding step cheaper, so it wins although the
        # coordinate rule alone would pick (5, 5). In search order both
        # copies are summed alike, and only the caller's order decides.
        shape = np.array([[0.0, 0.21875], [0.0, 1.3125], [1.03125, 1.28125],
                          [0.5, 1.21875], [1.5, 0.75], [0.90625, 1.96875]])
        low, high = shape + 5.0, shape[[1, 0, 4, 2, 3, 5]] + 20.0
        iu, jv = np.triu_indices(6, 1)

        def caller_sum(p):
            return np.linalg.norm(p[:, None] - p[None], axis=-1)[iu, jv].sum()

        assert caller_sum(high) < caller_sum(low)
        clusters = np.concatenate([low, far_points(6) + 300.0, high])
        g = graph_of(np.stack([clusters, far_points(18)], axis=1))
        got = self.same_as_reference(g, 6, monkeypatch)
        assert got.pairs == [(i, i + 1) for i in range(12, 18)]
        np.testing.assert_array_equal(got.points, high)


class TestRootPass:
    """One pass bounds every candidate at the root, seeds the incumbent and
    drops the candidates no optimal choice can hold."""

    def test_many_pairs_match_reference(self):
        rng = np.random.default_rng(31)
        checked = 0
        for n, sigma in ((10, 0.1), (10, 1.0), (12, 0.1), (12, 1.0)):
            graphs = 0
            while graphs < 2:
                sc = random_scene(rng, n=n)
                m = generate_measurements(sc, AttackSpec(frozenset({0}), 0.0), sigma, 10, rng)
                g = build_intersection_graph(sc.anchors, m.means)
                if len(g.points) <= 30:
                    continue
                flat, dist = detection._candidate_distances(g.points)
                for size in range(3, 10):
                    assert detection._most_compact(flat, dist, size) == reference_most_compact(flat, dist, size)
                    checked += 1
                graphs += 1
        assert checked >= 30

    def test_search_improves_on_a_worse_incumbent(self):
        points = clustered_candidates(np.random.default_rng(32), 10, 2.0)
        g = graph_of(points)
        _, dist = detection._candidate_distances(points)
        _, incumbent = detection._root_pass(dist, 5)
        pairs, chosen = brute_force_selection(g, 5)
        assert incumbent > pairwise_distance_sum(chosen)
        got = select_honest_points(g, 5)
        assert got.pairs == pairs
        np.testing.assert_array_equal(got.points, chosen)


class TestSlotSearch:
    """The search runs over candidates; a pair's two candidates are
    infinitely far apart, so no finite cost holds both."""

    def test_candidate_distances_set_each_pair_infinitely_far(self):
        points = clustered_candidates(np.random.default_rng(33), 5, 1.0)
        flat, dist = detection._candidate_distances(points)
        want = np.linalg.norm(flat[:, None] - flat[None], axis=-1)
        own = np.arange(10)[:, None] // 2 == np.arange(10)[None] // 2
        assert np.isinf(dist[own]).all()
        assert dist[~own].tolist() == want[~own].tolist()

    def test_both_candidates_of_a_pair_stay_in_the_search(self):
        # Pair 3 has both candidates inside the cluster, so the root pass
        # keeps both, and only their infinite distance keeps a choice from
        # holding both.
        descended = 0
        for seed, size in ((40, 6), (41, 4), (41, 5), (41, 6)):
            points = clustered_candidates(np.random.default_rng(seed), 10, 1.0)
            points[3] = [[10.3, 9.8], [9.7, 10.2]]
            _, dist = detection._candidate_distances(points)
            bounds, best = detection._root_pass(dist, size)
            kept = bounds <= best + 1e-9 * best
            assert kept[6] and kept[7]
            descended += not detection._closes(int(kept.sum()), size)
            pairs, chosen = brute_force_selection(graph_of(points), size)
            got = select_honest_points(graph_of(points), size)
            assert got.pairs == pairs
            np.testing.assert_array_equal(got.points, chosen)
        assert descended >= 2


class TestWcmEstimate:
    def make_honest(self, entries):
        return HonestSet(pairs=[pair for pair, _ in entries], points=np.array([p for _, p in entries], dtype=float))

    def test_identical_points(self):
        h = self.make_honest([((0, 1), (2.0, 3.0)), ((1, 2), (2.0, 3.0)), ((0, 2), (2.0, 3.0))])
        np.testing.assert_allclose(wcm_estimate(h, [1.0, 2.0, 3.0]), [2.0, 3.0])

    def test_equal_weights_midpoint(self):
        h = self.make_honest([((0, 1), (0.0, 0.0)), ((2, 3), (2.0, 0.0))])
        np.testing.assert_allclose(wcm_estimate(h, [1.0, 1.0, 1.0, 1.0]), [1.0, 0.0])

    def test_inverse_mean_distance_weights(self):
        # Pair means 1 and 3 give normalized weights 3/4 and 1/4.
        h = self.make_honest([((0, 1), (0.0, 0.0)), ((2, 3), (2.0, 0.0))])
        got = wcm_estimate(h, [1.0, 1.0, 3.0, 3.0])
        np.testing.assert_allclose(got, [0.5, 0.0], atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            wcm_estimate(HonestSet(pairs=[], points=np.empty((0, 2))), [1.0])

    def test_equals_array_form(self):
        # Reference: the numpy form. numpy's 1-D sum adds one value at a time
        # below 8 values and in eight partial sums from 8 on, so a running sum
        # over Python floats equals it bit for bit up to 7 points and to
        # rounding beyond.
        def array_form(honest, d):
            d = np.asarray(d, dtype=float)
            inv = np.array([2.0 / (d[i] + d[j]) for i, j in honest.pairs])
            inv /= inv.sum()
            return (inv[:, None] * honest.points).sum(axis=0)

        rng = np.random.default_rng(51)
        for n in range(4, 11):
            pairs = list(itertools.combinations(range(n), 2))
            for _ in range(300):
                d = rng.uniform(0.5, 30.0, n)
                size = int(rng.integers(3, n))
                chosen = rng.choice(len(pairs), size, replace=False)
                h = self.make_honest([(pairs[k], rng.uniform(-5.0, 25.0, 2)) for k in chosen])
                got, want = wcm_estimate(h, d), array_form(h, d)
                assert got.shape == (2,)
                if size < 8:
                    assert got.tolist() == want.tolist()
                else:
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


class TestRelativeErrors:
    def test_consistent_estimate_gives_zeros(self):
        d = square_distances()
        np.testing.assert_allclose(relative_errors(CENTER, SQUARE, d), 0.0, atol=1e-12)

    def test_single_outlier(self):
        anchors = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
        d = np.array([2.0, 2.0, 2.0, 7.0])
        got = relative_errors([0.0, 0.0], anchors, d)
        np.testing.assert_allclose(got, [0.0, 0.0, 0.0, 2.5])

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(5)
        sc = random_scene(rng)
        m = generate_measurements(sc, AttackSpec(frozenset({1}), 5.0), 1.0, 1, rng)
        d = m.means
        x = rng.uniform(0, 20, 2)
        got = relative_errors(x, sc.anchors, d)
        med = np.median(d)
        for i in range(4):
            want = abs(d[i] - np.linalg.norm(x - sc.anchors[i])) / med
            assert got[i] == pytest.approx(want, rel=1e-12)

    def test_zero_median_raises(self):
        with pytest.raises(ValueError):
            relative_errors(CENTER, SQUARE, np.zeros(4))

    def test_rejects_one_distance_too_many(self):
        # Five distances for four anchors once returned four errors scaled
        # by the median of all five.
        with pytest.raises(ValueError, match="one distance per anchor"):
            relative_errors([2.0, 2.0], SQUARE, np.append(square_distances(), 3.0))

    def test_rejects_an_estimate_that_is_not_one_planar_point(self):
        for x_est in ([0.5, 0.5, 0.5], [[0.5, 0.5]], 0.5):
            with pytest.raises(ValueError, match="one planar point"):
                relative_errors(x_est, SQUARE, square_distances())

    def test_equals_array_form_bit_for_bit(self):
        def array_form(x_est, anchors, d):
            est = np.linalg.norm(anchors - np.asarray(x_est, dtype=float), axis=1)
            return np.abs(d - est) / median_distance(d)

        rng = np.random.default_rng(52)
        for n in range(4, 11):
            for _ in range(300):
                anchors = rng.uniform(0.0, 20.0, (n, 2))
                d = rng.uniform(0.5, 30.0, n)
                x = rng.uniform(-5.0, 25.0, 2)
                assert relative_errors(x, anchors, d).tolist() == array_form(x, anchors, d).tolist()


class TestDetect:
    def test_benign_noiseless_empty_set(self):
        out = detect(SQUARE, square_distances(), tau=0.3)
        assert out.attacker_set == frozenset()
        np.testing.assert_allclose(out.x_init, CENTER, atol=1e-9)

    def test_detects_strong_attacker(self):
        # Sample-mean distances at the pipeline's operating point; trials the
        # stage cannot localize at all are not scored.
        rng = np.random.default_rng(6)
        hits = ran = 0
        for _ in range(1000):
            sc = random_scene(rng)
            att = int(rng.integers(0, 4))
            m = generate_measurements(sc, AttackSpec(frozenset({att}), 15.0), 1.0, 10, rng)
            try:
                out = detect(sc.anchors, m.means, tau=0.3)
            except UnlocalizableError:
                continue
            ran += 1
            hits += att in out.attacker_set
        assert ran > 500
        assert hits / ran > 0.90

    def test_flag_shortcut_concludes_without_estimate(self):
        d = square_distances()
        d[2] = 50.0
        out = detect(SQUARE, d, tau=0.3)
        assert out.attacker_set == frozenset({2})
        assert out.x_init is None
        assert out.relative_errors is None
        assert out.honest is None
        assert out.removed == ()

    def test_removals_follow_decreasing_relative_error(self):
        rng = np.random.default_rng(12)
        several = 0
        for _ in range(200):
            n = int(rng.integers(5, 9))
            sc = random_scene(rng, n=n)
            m = generate_measurements(sc, AttackSpec(frozenset({0, 1}), 8.0), 1.0, 1, rng)
            try:
                out = detect(sc.anchors, m.means, tau=0.1)
            except UnlocalizableError:
                continue
            assert out.attacker_set == out.geometric_flags | set(out.removed)
            assert not out.geometric_flags & set(out.removed)
            err = out.relative_errors.tolist()
            removed = [err[i] for i in out.removed]
            assert removed == sorted(removed, reverse=True)
            assert all(e > 0.1 for e in removed)
            # Every anchor kept past the last removal scores no higher than it.
            if removed:
                assert all(err[i] <= removed[-1] for i in set(range(n)) - out.attacker_set)
            several += len(removed) > 1
        assert several > 20

    @pytest.mark.parametrize("errs, tau, removed", [
        ([0.5, 0.5, 0.2, 0.9, 0.5], 0.3, (3, 0)),
        ([0.5, 0.5, 0.2, 0.9, 0.5], 0.6, (3,)),
        ([0.5, 0.5, 0.2, 0.9, 0.5], 0.95, ()),
        ([0.5, 0.5, 0.2, 0.9, 0.5, 0.1], 0.3, (3, 0, 1)),
    ], ids=["capped", "one-above", "none-above", "six-anchors"])
    def test_threshold_breaks_ties_to_the_lower_index_and_keeps_three(self, monkeypatch, errs, tau, removed):
        # Anchors 0, 1 and 4 tie exactly: the lower index goes first, and
        # removal stops with three anchors left while errors above tau remain.
        n = len(errs)
        angle = 2 * np.pi * np.arange(n) / n
        anchors = np.column_stack([10 + 8 * np.cos(angle), 10 + 8 * np.sin(angle)])
        d = np.linalg.norm(anchors - [9.0, 11.0], axis=1)
        monkeypatch.setattr(detection, "relative_errors", lambda x_est, anchors, d: np.array(errs))
        out = detect(anchors, d, tau)
        assert out.geometric_flags == frozenset()
        assert out.removed == removed

    def test_honest_set_keeps_three_points_when_pairs_are_disjoint(self):
        # Circle 0 contains circles 1 and 3 and meets circle 2, so it is not
        # flagged geometrically; two disjoint pairs must not shrink the honest
        # set below the three points the honest anchors still supply.
        d = square_distances()
        d[0] = 1.9
        out = detect(SQUARE, d, tau=0.3)
        assert out.geometric_flags == frozenset()
        assert len(out.honest.pairs) == len(out.honest.points) == 3
        np.testing.assert_allclose(out.x_init, CENTER, atol=1e-9)
        assert out.attacker_set == frozenset({0})

    def test_huge_threshold_rarely_flags_weak_attacker(self):
        rng = np.random.default_rng(7)
        empty = ran = 0
        for _ in range(1000):
            sc = random_scene(rng)
            att = int(rng.integers(0, 4))
            m = generate_measurements(sc, AttackSpec(frozenset({att}), 1.0), 1.0, 1, rng)
            try:
                out = detect(sc.anchors, m.means, tau=1.0)
            except UnlocalizableError:
                continue
            ran += 1
            empty += not out.attacker_set
        assert empty / ran > 0.95

    def test_attacker_set_size_bounded(self):
        rng = np.random.default_rng(8)
        for n in (4, 5, 6):
            for _ in range(100):
                sc = random_scene(rng, n=n)
                att = int(rng.integers(0, n))
                m = generate_measurements(sc, AttackSpec(frozenset({att}), 10.0), 1.0, 1, rng)
                try:
                    out = detect(sc.anchors, m.means, tau=0.1)
                except UnlocalizableError:
                    continue
                assert len(out.attacker_set) <= n - 3

    def test_false_alarm_rate_monotone_in_tau(self):
        rng = np.random.default_rng(9)
        cases = []
        for _ in range(400):
            sc = random_scene(rng)
            m = generate_measurements(sc, AttackSpec(), 1.0, 1, rng)
            cases.append((sc.anchors, m.means))
        rates = []
        for tau in (0.3, 0.5, 0.7, 0.9):
            fa = ran = 0
            for anchors, d in cases:
                try:
                    out = detect(anchors, d, tau=tau)
                except UnlocalizableError:
                    continue
                ran += 1
                fa += bool(out.attacker_set)
            rates.append(fa / ran)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_disjoint_count_matches_brute_count(self, monkeypatch):
        # The stage sizes the honest set from the disjoint pairs among the
        # active anchors, counted as C(active, 2) minus the graph's rows.
        # Count them pair by pair and compare the size it requests.
        requests = []
        original = detection.select_honest_points

        def spy(graph, size):
            requests.append(size)
            return original(graph, size)

        monkeypatch.setattr(detection, "select_honest_points", spy)
        rng = np.random.default_rng(12)
        flagged = 0
        for _ in range(600):
            n = int(rng.integers(4, 11))
            sc = random_scene(rng, n=n)
            delta = float(rng.choice([0.0, 8.0, 40.0]))
            d = generate_measurements(sc, AttackSpec(frozenset({0}), delta), 1.0, 1, rng).means
            flags = build_intersection_graph(sc.anchors, d).geometric_flags
            active = [i for i in range(n) if i not in flags]
            circles = [Circle(x, y, r) for (x, y), r in zip(sc.anchors.tolist(), d.tolist())]
            brute = sum(intersect_circles(circles[i], circles[j]) is None
                        for i, j in itertools.combinations(active, 2))
            requests.clear()
            try:
                detect(sc.anchors, d, 0.3)
            except UnlocalizableError:
                pass
            if len(active) == 3:
                assert not requests
                continue
            assert requests == [max(3, len(active) - brute) if brute else len(active) - 1]
            flagged += len(flags)
        assert flagged > 50

    def test_rejects_small_network(self):
        # The same error class as locate_secure, from the graph both build.
        with pytest.raises(UnlocalizableError, match="at least 4 anchors"):
            detect(SQUARE[:3], square_distances()[:3], tau=0.3)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        sc = random_scene(rng)
        m = generate_measurements(sc, AttackSpec(frozenset({2}), 9.0), 1.0, 1, rng)
        d = m.means
        a = detect(sc.anchors, d, tau=0.3)
        b = detect(sc.anchors, d, tau=0.3)
        assert a.attacker_set == b.attacker_set
        np.testing.assert_array_equal(a.x_init, b.x_init)
        np.testing.assert_array_equal(a.relative_errors, b.relative_errors)

    def test_rerun_without_detected_uses_no_removed_pairs(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(200):
            sc = random_scene(rng, n=5)
            att = int(rng.integers(0, 5))
            m = generate_measurements(sc, AttackSpec(frozenset({att}), 12.0), 1.0, 10, rng)
            d = m.means
            try:
                out = detect(sc.anchors, d, tau=0.3)
            except UnlocalizableError:
                continue
            if not out.attacker_set:
                continue
            removed = set(out.attacker_set)
            g = build_intersection_graph(sc.anchors, d)
            survivors = set(range(5)) - removed
            # The rows of the graph whose anchors both survive.
            rows = [r for r, p in enumerate(g.pairs) if not removed & set(p)]
            sub = IntersectionGraph(tuple(g.pairs[r] for r in rows), g.points[rows], frozenset())
            n_disjoint = math.comb(len(survivors), 2) - len(rows)
            target = len(survivors) - n_disjoint if n_disjoint else len(survivors) - 1
            if target < 3 or len(sub.points) < target:
                continue
            honest = select_honest_points(sub, target)
            assert all(not (set(p) & removed) for p in honest.pairs)
            checked += 1
        assert checked > 20

    def test_rejects_bad_tau(self):
        d = square_distances()
        with pytest.raises(ValueError, match="tau"):
            detect(SQUARE, d, tau=1.5)
        with pytest.raises(ValueError, match="tau"):
            detect(SQUARE, d, tau=-0.1)

    def test_returns_outcome_type(self):
        out = detect(SQUARE, square_distances(), tau=0.3)
        assert isinstance(out, DetectionOutcome)
        assert out.relative_errors.shape == (4,)
