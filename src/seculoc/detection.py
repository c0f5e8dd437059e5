"""Corrupted-anchor detection from circle-intersection clustering.

Each anchor's measured range draws a circle that passes near the true target
when the measurement is honest, so honest circle pairs intersect close to the
target while an enlarged circle scatters its intersections. Three regimes
drive the stage: every pair of circles intersects; some circle is disjoint
from all others; or only some pairs intersect. A circle disjoint from all
others is flagged as corrupted only when it strictly contains every other
circle, because an attack can only enlarge a range: an isolated circle that
could still be reached by growing its radius may simply be noise-starved.

From the surviving pairs the stage picks the most compact set of candidate
intersection points, one per pair, exactly and by the same branch-and-bound
search at every size. Where the search does not close at its root, one
pass first bounds every candidate as a child of the root, seeds the
incumbent with the cheapest choice those bounds build, and drops the
candidates no optimal choice can hold. From six points on the search takes
the pairs cluster first and bounds each node only over the pairs it can
still choose; the choice does not depend on the order. The stage averages
the chosen points with inverse-distance weights into an initial position
estimate, and thresholds the relative disagreement between measured and
re-estimated ranges to name attackers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnlocalizableError
from .geometry import Circle, CircleRelation, classify_pair, distances_to, intersect_circles
from .measurement import median_distance

@dataclass
class IntersectionGraph:
    """Pairwise circle-intersection structure over the anchors.

    ``points`` maps an anchor pair (i, j), i < j, to the (2, 2) array of its
    candidate intersection points; ``disjoint_pairs`` holds the pairs whose
    circles do not meet; ``geometric_flags`` holds anchors whose circle
    strictly contains every other circle and is therefore corrupted.
    """

    n_anchors: int
    points: dict[tuple[int, int], np.ndarray]
    disjoint_pairs: frozenset[tuple[int, int]]
    geometric_flags: frozenset[int]

    def restricted_to(self, keep) -> "IntersectionGraph":
        """Sub-graph over a subset of anchors; flags are not recomputed.

        Pairs keep their original anchor indices, so the sub-graph keeps the
        parent's index space and anchor count.
        """
        keep = set(keep)
        pts = {p: v for p, v in self.points.items() if p[0] in keep and p[1] in keep}
        disj = frozenset(p for p in self.disjoint_pairs if p[0] in keep and p[1] in keep)
        return IntersectionGraph(
            n_anchors=self.n_anchors, points=pts, disjoint_pairs=disj, geometric_flags=frozenset()
        )


@dataclass
class HonestSet:
    """Candidate intersection points chosen as presumably uncorrupted.

    ``selected`` pairs each chosen point with the anchor pair that produced
    it; at most one point per anchor pair is ever selected.
    """

    selected: list[tuple[tuple[int, int], np.ndarray]]

    @property
    def size(self) -> int:
        return len(self.selected)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [p for p, _ in self.selected]

    @property
    def points(self) -> np.ndarray:
        return np.array([pt for _, pt in self.selected])


@dataclass
class DetectionOutcome:
    """Result of the detection stage.

    ``relative_errors`` covers every input anchor (including ones flagged on
    geometric grounds); ``attacker_set`` holds both geometric flags and
    threshold removals. When the geometric flags alone shrink the network to
    the minimum localizable size, the clustering and thresholding stages are
    skipped and ``x_init``, ``relative_errors``, and ``honest`` are None.
    """

    x_init: np.ndarray | None
    attacker_set: frozenset[int]
    relative_errors: np.ndarray | None
    honest: HonestSet | None
    geometric_flags: frozenset[int]


def build_intersection_graph(anchors, d) -> IntersectionGraph:
    """Intersect all circle pairs; classify the pairs that do not meet.

    An anchor is flagged corrupted when its circle strictly contains every
    other circle: no radius enlargement could ever have produced such a
    configuration honestly.
    """
    anchors = np.asarray(anchors, dtype=float)
    d = np.asarray(d, dtype=float)
    n = anchors.shape[0]
    if n < 4:
        raise UnlocalizableError("secure localization needs at least 4 anchors")
    if d.shape != (n,):
        raise ValueError("one distance per anchor required")
    circles = [Circle(x, y, r) for (x, y), r in zip(anchors.tolist(), d.tolist())]

    points: dict[tuple[int, int], np.ndarray] = {}
    disjoint = set()
    # contained[i]: how many circles circle i strictly contains; only
    # disjoint pairs can hold one inside the other.
    contained = [0] * n
    for i in range(n - 1):
        for j in range(i + 1, n):
            meet = intersect_circles(circles[i], circles[j])
            if meet is not None:
                points[(i, j)] = meet
                continue
            disjoint.add((i, j))
            rel = classify_pair(circles[i], circles[j])
            if rel is CircleRelation.FIRST_CONTAINS_SECOND:
                contained[i] += 1
            elif rel is CircleRelation.SECOND_CONTAINS_FIRST:
                contained[j] += 1

    flags = frozenset(i for i, count in enumerate(contained) if count == n - 1)
    return IntersectionGraph(
        n_anchors=n, points=points, disjoint_pairs=frozenset(disjoint), geometric_flags=flags
    )


def _candidate_distances(pts: np.ndarray):
    """Flatten (n_pairs, 2, 2) candidates to index 2*pair + sign, with all pairwise distances."""
    flat = pts.reshape(-1, 2)
    dx = flat[:, 0, None] - flat[None, :, 0]
    dy = flat[:, 1, None] - flat[None, :, 1]
    return flat, np.sqrt(dx * dx + dy * dy)


def _coord_key(points: np.ndarray) -> tuple:
    return tuple(sorted(map(tuple, np.round(points, 12))))


# A node closes in one array step when its completions, C(open pairs, r)
# choices of pairs times 2^r signs, number at most this: three points from up
# to 8 open pairs, so at four anchors the root is the whole search. Larger
# nodes are pruned faster by the branch and bound than scored by the step.
_CLOSING_BUDGET = 448
# From this many points on, the branch and bound takes the pairs cluster first
# and bounds each node over the pairs still open. Smaller searches visit a
# few nodes above their closing steps, and the reordering mostly enlarges
# those steps: the first ones then span nearly every pair.
_ORDERED_SIZE = 6


def _closes(n_open: int, r: int) -> bool:
    return r == 2 or math.comb(n_open, r) << r <= _CLOSING_BUDGET


@functools.cache
def _subsets(n_open: int, r: int) -> tuple[np.ndarray, ...]:
    """Every choice of r of n_open pairs, one candidate each, as r index columns.

    Column k holds the k-th candidate (offset 2*pair + sign) of each choice.
    The cache keeps one table per open-pair count and r; for two points
    that is 4 * C(n_open, 2) rows, under 1 MB over all counts up to ten
    anchors, and every other table holds at most ``_CLOSING_BUDGET`` rows.
    """
    pairs = np.array(list(itertools.combinations(range(n_open), r)), dtype=np.intp).reshape(-1, r)
    signs = np.array(list(itertools.product((0, 1), repeat=r)), dtype=np.intp)
    table = (2 * pairs[:, None, :] + signs).reshape(-1, r)
    columns = tuple(np.ascontiguousarray(table[:, k]) for k in range(r))
    for col in columns:
        col.flags.writeable = False
    return columns


@functools.cache
def _upper(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs within a choice of ``size`` points."""
    iu, jv = np.triu_indices(size, 1)
    iu.flags.writeable = jv.flags.writeable = False
    return iu, jv


def _coincident_choice(flat: np.ndarray, size: int) -> list[int]:
    """Zero-cost choice under the selector's tie rule, without enumerating ties.

    A choice costs exactly zero when its points coincide, so the candidates
    are grouped by exact coordinates. Within a group the smallest ``size``
    pairs win, each by its smaller sign at that point; across groups the
    sorted rounded coordinates decide, then the pairs, then the signs.
    """
    groups: dict[tuple[float, float], dict[int, int]] = {}
    for c, point in enumerate(map(tuple, flat.tolist())):
        groups.setdefault(point, {}).setdefault(c // 2, c)
    choices = [list(by_pair.values())[:size] for by_pair in groups.values() if len(by_pair) >= size]
    return min(choices, key=lambda sel: (_coord_key(flat[sel]), [c // 2 for c in sel], [c % 2 for c in sel]))


def _half_nearest(apart: np.ndarray, k: int) -> np.ndarray:
    """Row r - 2, column c: half the sum of row c's r - 1 smallest entries, for r - 1 <= k."""
    return 0.5 * np.cumsum(np.sort(apart, axis=1)[:, :k], axis=1).T


def _apart(dist: np.ndarray) -> np.ndarray:
    """Distances to candidates of other pairs: each candidate's own pair, the
    two-by-two block on the diagonal, is set infinitely far."""
    apart = dist.copy()
    cand = np.arange(dist.shape[0])
    apart[cand, cand] = apart[cand, cand ^ 1] = np.inf
    return apart


def _root_pass(dist: np.ndarray, apart: np.ndarray, size: int):
    """Every candidate's root bound, plus the cheapest choice those bounds build.

    ``h[x]`` is half the sum of candidate x's size - 2 nearest candidates of
    other pairs. Row c, pair q holds the smaller over q's two candidates x of
    d(c, x) + h[x], and candidate c's bound is the sum of the size - 1
    smallest entries of its row. Candidate c with the cheaper candidate of
    each of those pairs is a feasible choice. Returns the bounds and the
    least cost among those choices.
    """
    h = 0.5 * np.partition(apart, size - 3, axis=1)[:, :size - 2].sum(axis=1)
    v = apart + h
    even, odd = v[:, 0::2], v[:, 1::2]
    per_pair = np.minimum(even, odd)
    pairs = np.argpartition(per_pair, size - 2, axis=1)[:, :size - 1]
    rows = np.arange(dist.shape[0])[:, None]
    at = pairs + per_pair.shape[1] * rows  # flat offsets: a take gathers faster than a fancy index
    bounds = per_pair.take(at).sum(axis=1)
    choices = np.concatenate([rows, 2 * pairs + (odd < even).take(at)], axis=1)
    iu, jv = _upper(size)
    costs = dist[choices[:, iu], choices[:, jv]].sum(axis=1)
    return bounds, float(costs.min())


def _most_compact(flat: np.ndarray, dist: np.ndarray, size: int) -> list[int]:
    """Candidates (index 2*pair + sign) of the most compact subset, one per pair.

    A depth-first branch and bound over the pairs in one search order: each
    subset is visited once, its pairs added in that order, and children are
    explored cheapest first. The pairs after the last one chosen are open. A
    node with r points still to add is bounded below by its cost so far
    plus, for each of those points, its summed distance to the chosen points
    and half the sum of its r - 1 smallest distances to candidates of other
    pairs; per pair the cheaper sign counts, and the r smallest values over
    the open pairs are added. A node closes in one array step that scores
    every completion at once: always with two points left, and otherwise
    when C(open pairs, r) * 2^r is at most ``_CLOSING_BUDGET``, which at
    four anchors is the root itself.

    A root that does not close at once first takes one root pass
    (``_root_pass``): each candidate c gets the bound it would get as a
    child of the root, and the cheapest of the choices built alongside
    seeds the incumbent. The search stays exact, because the bound holds
    for every choice S of ``size`` candidates from distinct pairs with c
    in S: each x in S minus c has size - 2 partners in S minus c, all from
    pairs other than its own, so cost(S) >= sum over x in S minus c of
    d(c, x) + h[x] >= bound[c]. A candidate whose bound exceeds the
    incumbent by more than the 1e-9 relative slack below is in no choice
    the search could keep, so it leaves the search, and a pair left with
    no candidate leaves with it. The search then runs on the remaining
    pairs, usually about as many as points requested.

    Below ``_ORDERED_SIZE`` points the search order is the caller's and the
    nearest distances run over every other pair. From that size on the
    pairs are searched cluster first, by a stable sort on each pair's
    cheaper-sign sum of its size - 1 nearest distances to other pairs, and
    the distances run over the open pairs only, since a node can no longer
    choose the others (one table per first open pair, built when a node
    first needs it). A node is pruned only when its bound exceeds the
    incumbent by more than 1e-9 relative, so every leaf that ties the
    optimum up to rounding survives, whatever the order. Survivors are
    mapped back to the caller's indices, re-scored by one gather-and-sum in
    the caller's order and exact ties broken on the sorted coordinates,
    then on (pairs, signs) in lexicographic order. A cost of exactly zero,
    which nothing beats, stops the search: its ties are the candidates of
    ``size`` pairs that share one exact point, and ``_coincident_choice``
    applies the same tie rule to them over every candidate.
    """
    n_cand = dist.shape[0]
    n_pairs = n_cand // 2
    limit = math.inf  # the incumbent's cost plus the 1e-9 relative slack
    leaves: list[tuple[float, tuple[int, ...]]] = []
    ordered = size >= _ORDERED_SIZE
    search = dist  # distances in search order
    keep = None  # the caller's index of each searched candidate, once the root pass ran
    # tables[first][r - 2, c - 2 * first]: the half-nearest term of open candidate c.
    tables: dict[int, np.ndarray] = {}

    def close(chosen: tuple[int, ...], cost: float, reach: np.ndarray, first: int, r: int):
        # Every completion by r candidates of pairs from `first` on, at once.
        nonlocal limit
        lo = 2 * first
        cols = _subsets(n_pairs - first, r)
        tail_dist = search[lo:, lo:]
        costs = cost + sum(tail_dist[cols[j], cols[k]] for j, k in itertools.combinations(range(r), 2))
        if chosen:  # reach is zero at the root
            costs += sum(reach[lo:][col] for col in cols)
        lowest = float(costs.min())
        if lowest > limit:
            return
        limit = min(limit, lowest + 1e-9 * lowest)
        for i in np.flatnonzero(costs <= limit).tolist():
            leaves.append((float(costs[i]), chosen + tuple(lo + int(col[i]) for col in cols)))

    def half(first: int) -> np.ndarray:
        lo = 2 * first
        if not ordered:
            return tables[0][:, lo:]
        if first not in tables:
            tables[first] = _half_nearest(apart[lo:, lo:], size - 1)
        return tables[first]

    def descend(chosen: tuple[int, ...], cost: float, reach: np.ndarray, first: int, r: int):
        # reach[c]: summed distance from candidate c to the chosen candidates.
        if limit == 0.0:
            # No cost beats an exact zero, and searching for its exact ties
            # (coincident points of many pairs) would enumerate them all.
            return
        if r == 2:
            close(chosen, cost, reach, first, r)
            return
        lo = 2 * first
        v = reach[lo:] + half(first)[r - 2]
        per_pair = v.reshape(-1, 2).min(axis=1)
        smallest = np.sort(np.partition(per_pair, r - 1)[:r]).tolist()
        rest, last = sum(smallest[:-1]), smallest[-1]
        if cost + rest + last > limit:
            return
        if _closes(n_pairs - first, r):
            close(chosen, cost, reach, first, r)
            return
        own_pair, v_list = per_pair.tolist(), v.tolist()
        # Only candidates that leave r - 1 later pairs can start a subset.
        for c in np.argsort(v[:2 * (n_pairs - r + 1) - lo], kind="stable").tolist():
            if cost + v_list[c] + rest > limit:
                break
            # The other r - 1 points lie in other pairs, so they add at least
            # the r - 1 smallest per-pair values without this pair's own.
            own = own_pair[c // 2]
            if own <= smallest[-2] and cost + v_list[c] + rest + last - own > limit:
                continue
            c += lo
            descend(chosen + (c,), cost + reach[c], reach + search[c], c // 2 + 1, r - 1)

    if not _closes(n_pairs, size):
        # Seed the incumbent and search only the pairs that keep a candidate
        # whose root bound is within it.
        apart = _apart(dist)
        bounds, best = _root_pass(dist, apart, size)
        limit = best + 1e-9 * best
        kept = np.flatnonzero((bounds <= limit).reshape(-1, 2).any(axis=1))
        keep = (2 * kept[:, None] + np.arange(2)).ravel()
        n_pairs, n_cand = len(kept), len(keep)
        search = dist.take(keep, axis=0).take(keep, axis=1)
    if _closes(n_pairs, size):
        # The root closes at once (at four anchors always), so the bound
        # tables, which only interior nodes read, are not built.
        close((), 0.0, np.zeros(n_cand), 0, size)
    else:
        apart = apart.take(keep, axis=0).take(keep, axis=1)
        tables[0] = _half_nearest(apart, size - 1)
        if ordered:
            # Cluster first: a stable sort on each pair's cheaper-sign sum.
            order = np.argsort(tables[0][-1].reshape(-1, 2).min(axis=1), kind="stable")
            perm = (2 * order[:, None] + np.arange(2)).ravel()
            keep = keep[perm]
            search = search.take(perm, axis=0).take(perm, axis=1)
            apart = apart.take(perm, axis=0).take(perm, axis=1)
            tables[0] = tables[0].take(perm, axis=1)
        descend((), 0.0, np.zeros(n_cand), 0, size)
    if limit == 0.0:
        return _coincident_choice(flat, size)
    near = [sel for c, sel in leaves if c <= limit]
    if keep is not None:
        near = [tuple(sorted(keep[list(sel)].tolist())) for sel in near]
    if len(near) == 1:
        return list(near[0])
    idx = np.array(near)
    iu, jv = _upper(size)
    comp = dist[idx[:, iu], idx[:, jv]].sum(axis=-1)
    ties = idx[comp == comp.min()]
    chosen = min(ties, key=lambda sel: (_coord_key(flat[sel]), (sel // 2).tolist(), (sel % 2).tolist()))
    return chosen.tolist()


def select_honest_points(graph: IntersectionGraph, target_size: int) -> HonestSet:
    """Most compact choice of candidate points, at most one per anchor pair.

    Minimizes the pairwise-distance sum exactly over all admissible subsets
    of the given size, by one branch-and-bound search whatever the number
    of pairs. Raises UnlocalizableError when fewer candidate pairs than
    requested points exist or the request drops below the three points
    needed to fix a planar position.
    """
    if target_size < 3:
        raise UnlocalizableError("fewer than 3 honest points cannot fix a planar position")
    pair_ids = sorted(graph.points)
    if len(pair_ids) < target_size:
        raise UnlocalizableError(
            f"only {len(pair_ids)} intersecting pairs available for {target_size} honest points"
        )
    flat, dist = _candidate_distances(np.array([graph.points[p] for p in pair_ids]))
    chosen = _most_compact(flat, dist, target_size)
    return HonestSet(selected=[(pair_ids[c // 2], flat[c].copy()) for c in chosen])


def wcm_estimate(honest: HonestSet, d) -> np.ndarray:
    """Weighted central mass of the honest points.

    Each point is weighted by the inverse of its pair's mean measured
    distance, normalized to a convex combination, so points backed by long
    (and therefore less trusted) ranges pull the estimate less.
    """
    if honest.size == 0:
        raise ValueError("cannot average an empty honest set")
    dist = np.asarray(d, dtype=float).tolist()
    inv = [2.0 / (dist[i] + dist[j]) for (i, j), _ in honest.selected]
    total = 0.0
    for v in inv:
        total += v
    x = y = 0.0
    for v, (_, point) in zip(inv, honest.selected):
        w = v / total
        px, py = point.tolist()
        x += w * px
        y += w * py
    return np.array([x, y])


def relative_errors(x_est, anchors, d) -> np.ndarray:
    """Per-anchor |measured - re-estimated| distance, scaled by the measured median.

    The median keeps the scale robust to a grossly enlarged measurement.
    """
    anchors = np.asarray(anchors, dtype=float)
    d = np.asarray(d, dtype=float)
    med = median_distance(d)
    if med <= 0:
        raise ValueError("median of distance measurements must be positive")
    est = distances_to(anchors.tolist(), np.asarray(x_est, dtype=float).tolist())
    return np.array([abs(r - e) / med for r, e in zip(d.tolist(), est)])


def detect(anchors, d, tau: float) -> DetectionOutcome:
    """Full detection stage: geometric flags, honest points, thresholded removal.

    Geometric flags are removed first; then anchors are stripped in order of
    decreasing relative error while the largest error exceeds ``tau`` and
    more than 3 anchors remain. The initial estimate is computed once and
    not revised between removals. If flag removal alone leaves exactly 3
    anchors the stage concludes immediately with the flagged set.
    """
    anchors = np.asarray(anchors, dtype=float)
    d = np.asarray(d, dtype=float)
    graph = build_intersection_graph(anchors, d)
    return _detect_from_graph(anchors, d, tau, graph)


def _detect_from_graph(anchors, d, tau, graph) -> DetectionOutcome:
    """``detect`` on a built graph; ``locate_secure`` enters here too."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    n = graph.n_anchors
    active = set(range(n))
    attackers: set[int] = set()
    for i in sorted(graph.geometric_flags):
        if len(active) <= 3:
            break
        attackers.add(i)
        active.discard(i)
    if attackers and len(active) == 3:
        # The pre-filter alone fixed the verdict; nothing left to threshold.
        return DetectionOutcome(
            x_init=None,
            attacker_set=frozenset(attackers),
            relative_errors=None,
            honest=None,
            geometric_flags=graph.geometric_flags,
        )

    restricted = graph.restricted_to(active)
    disjoint = restricted.disjoint_pairs
    # Never ask for fewer points than fix a position: with three honest
    # anchors left, their three mutually intersecting pairs still supply them.
    target = max(3, len(active) - len(disjoint)) if disjoint else len(active) - 1
    honest = select_honest_points(restricted, target)

    x_init = wcm_estimate(honest, d)
    errs = relative_errors(x_init, anchors, d)

    err = errs.tolist()
    while len(active) > 3:
        worst = max(active, key=lambda i: (err[i], -i))
        if err[worst] <= tau:
            break
        attackers.add(worst)
        active.discard(worst)

    return DetectionOutcome(
        x_init=x_init,
        attacker_set=frozenset(attackers),
        relative_errors=errs,
        honest=honest,
        geometric_flags=graph.geometric_flags,
    )
