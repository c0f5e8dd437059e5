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
search at every size. The search runs over the candidates themselves
(slots): a candidate is infinitely far from the other candidate of its
pair, so no choice that holds both can win. Where the search does not
close at its root, one pass first bounds every candidate as a child of
the root, seeds the incumbent with the choice built from the candidate of
least bound, and drops each candidate no optimal choice can hold. From six
points on the search takes the slots cluster first and bounds each node
only over the slots it can still choose; the choice does not depend on the
order. The stage averages the chosen points with inverse-distance weights
into an initial position estimate, and thresholds the relative
disagreement between measured and re-estimated ranges to name attackers.
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


@functools.cache
def _own_pairs(n_cand: int) -> tuple[np.ndarray, np.ndarray]:
    """Each candidate's index and its sibling's, the other candidate of its pair."""
    cand = np.arange(n_cand)
    sibling = cand ^ 1
    cand.flags.writeable = sibling.flags.writeable = False
    return cand, sibling


def _candidate_distances(pts: np.ndarray):
    """Flatten (n_pairs, 2, 2) candidates to index 2*pair + sign, with all pairwise distances.

    Each candidate's own pair, the two-by-two block on the diagonal, is set
    infinitely far, so no finite cost holds two candidates of one pair.
    """
    flat = pts.reshape(-1, 2)
    dx = flat[:, 0, None] - flat[None, :, 0]
    dy = flat[:, 1, None] - flat[None, :, 1]
    dist = np.sqrt(dx * dx + dy * dy)
    cand, sibling = _own_pairs(len(flat))
    dist[cand, cand] = dist[cand, sibling] = np.inf
    return flat, dist


def _coord_key(points: np.ndarray) -> tuple:
    return tuple(sorted(map(tuple, np.round(points, 12))))


# A node closes in one array step when scoring its completions gathers at
# most this many distances: C(open slots, r) choices of r points with
# C(r, 2) distances each. 1680 = C(16, 3) * 3, three points from up to 8
# pairs, so at four anchors the root is the whole search. Larger nodes are
# pruned faster by the branch and bound than scored by the step.
_CLOSING_BUDGET = 1680
# From this many points on, the branch and bound takes the slots cluster
# first and bounds each node over the slots still open. Smaller searches
# visit a few nodes above their closing steps, and the reordering mostly
# enlarges those steps: the first ones then span nearly every slot.
_ORDERED_SIZE = 6


def _closes(n_open: int, r: int) -> bool:
    return r == 2 or math.comb(n_open, r) * math.comb(r, 2) <= _CLOSING_BUDGET


@functools.cache
def _upper(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs within a choice of ``size`` points."""
    iu, jv = np.triu_indices(size, 1)
    iu.flags.writeable = jv.flags.writeable = False
    return iu, jv


@functools.cache
def _subsets(n_open: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every choice of r of n_open slots, with the slot pairs its cost sums over.

    Returns the (M, r) table of r-combinations in lexicographic order and
    its two (M, C(r, 2)) columns of row and column slots, so one gather and
    a row sum score every choice. The cache keeps one table per open-slot
    count and r; a two-point table has C(n_open, 2) rows, and every other
    table gathers at most ``_CLOSING_BUDGET`` distances.
    """
    table = np.array(list(itertools.combinations(range(n_open), r)), dtype=np.intp).reshape(-1, r)
    iu, jv = _upper(r)
    rows, cols = table[:, iu], table[:, jv]
    for arr in (table, rows, cols):
        arr.flags.writeable = False
    return table, rows, cols


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


def _half_nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Row r - 2, column c: half the sum of row c's r - 1 smallest entries, for r - 1 <= k."""
    return 0.5 * np.cumsum(np.sort(dist, axis=1)[:, :k], axis=1).T


def _root_pass(dist: np.ndarray, size: int):
    """Every candidate's root bound, plus the cost of one choice to seed the incumbent.

    ``h[x]`` is half the sum of candidate x's size - 2 nearest candidates,
    all of other pairs since its own pair is infinitely far. Row c, pair q
    holds the smaller over q's two candidates x of d(c, x) + h[x], and
    candidate c's bound is the sum of the size - 1 smallest entries of its
    row. The candidate with the least bound, with the cheaper candidate of
    each of those pairs, is a feasible choice. Returns the bounds and that
    choice's cost.
    """
    h = 0.5 * np.sort(dist, axis=1)[:, :size - 2].sum(axis=1)
    v = dist + h
    even, odd = v[:, 0::2], v[:, 1::2]
    per_pair = np.minimum(even, odd)
    bounds = np.sort(per_pair, axis=1)[:, :size - 1].sum(axis=1)
    c = int(bounds.argmin())
    pairs = np.argpartition(per_pair[c], size - 2)[:size - 1]
    choice = np.concatenate([[c], 2 * pairs + (odd[c, pairs] < even[c, pairs])])
    iu, jv = _upper(size)
    return bounds, float(dist[choice[iu], choice[jv]].sum())


def _most_compact(flat: np.ndarray, dist: np.ndarray, size: int) -> list[int]:
    """Candidates (index 2*pair + sign) of the most compact subset, one per pair.

    A depth-first branch and bound over the candidates, here called slots,
    in one search order: each subset is visited once, its slots added in
    that order, and children are explored cheapest first. The slots after
    the last one chosen are open. ``dist`` sets each slot's own pair
    infinitely far (``_candidate_distances``), so a completion that holds
    both slots of one pair costs +inf and never reaches the incumbent,
    which is finite once any valid choice has been scored: a root that
    closes at once scores every choice, and otherwise the root pass seeds
    one. A node with r points still to add is bounded below by its cost
    so far plus the r smallest values, over the open slots, of v[x] =
    reach[x] + half the sum of x's r - 1 smallest distances to other
    slots, where reach[x] is x's summed distance to the chosen slots. The
    bound holds because a completion takes r distinct open slots, and each
    has r - 1 partners among them; it is weaker than a per-pair bound only
    where both slots of a pair stay open. A node closes in one array step
    that scores every completion at once: always with two points left, and
    otherwise when its C(open slots, r) choices gather at most
    ``_CLOSING_BUDGET`` distances, which at four anchors is the root itself.

    A root that does not close at once first takes one root pass
    (``_root_pass``): each candidate c gets the bound it would get as a
    child of the root, and one choice built alongside seeds the incumbent.
    The search stays exact, because the bound holds for every choice S of
    ``size`` candidates from distinct pairs with c in S: each x in S minus
    c has size - 2 partners in S minus c, all from pairs other than its
    own, so cost(S) >= sum over x in S minus c of d(c, x) + h[x] >=
    bound[c]. A candidate whose bound exceeds the incumbent by more than
    the 1e-9 relative slack below is in no choice the search could keep,
    so it leaves the search, whatever its sibling's bound. The search then
    runs on the remaining slots, usually about as many as points requested.

    Below ``_ORDERED_SIZE`` points the search order is the caller's and the
    nearest distances run over every slot. From that size on the slots are
    searched cluster first, by a stable sort on each slot's sum of its
    size - 1 nearest distances, and the distances run over the open slots
    only, since a node can no longer choose the others (one table per
    first open slot, built when a node first needs it). A node is pruned
    only when its bound exceeds the incumbent by more than 1e-9 relative,
    so every leaf that ties the optimum up to rounding survives, whatever
    the order. Survivors are mapped back to the caller's indices,
    re-scored by one gather-and-sum in the caller's order and exact ties
    broken on the sorted coordinates, then on (pairs, signs) in
    lexicographic order. A cost of exactly zero, which nothing beats,
    stops the search: its ties are the candidates of ``size`` pairs that
    share one exact point, and ``_coincident_choice`` applies the same tie
    rule to them over every candidate.
    """
    n_slots = dist.shape[0]
    limit = math.inf  # the incumbent's cost plus the 1e-9 relative slack
    leaves: list[tuple[float, tuple[int, ...]]] = []
    ordered = size >= _ORDERED_SIZE
    search = dist  # distances in search order
    keep = None  # the caller's index of each slot, once the root pass ran
    # tables[first][r - 2, x - first]: the half-nearest term of open slot x.
    tables: dict[int, np.ndarray] = {}

    def close(chosen: tuple[int, ...], cost: float, reach: np.ndarray, first: int, r: int):
        # Every completion by r slots from `first` on, at once.
        nonlocal limit
        table, rows, cols = _subsets(n_slots - first, r)
        costs = search[first:, first:][rows, cols].sum(axis=1)
        if chosen:  # cost and reach are zero at the root
            costs += reach[first:][table].sum(axis=1)
            costs += cost
        lowest = float(costs.min())
        if lowest > limit:
            return
        limit = min(limit, lowest + 1e-9 * lowest)
        near = np.flatnonzero(costs <= limit)
        for c, sel in zip(costs[near].tolist(), (table[near] + first).tolist()):
            leaves.append((c, chosen + tuple(sel)))

    def half(first: int) -> np.ndarray:
        if not ordered:
            return tables[0][:, first:]
        if first not in tables:
            tables[first] = _half_nearest(search[first:, first:], size - 1)
        return tables[first]

    def descend(chosen: tuple[int, ...], cost: float, reach: np.ndarray, first: int, r: int):
        # reach[x]: summed distance from slot x to the chosen slots.
        if limit == 0.0:
            # No cost beats an exact zero, and searching for its exact ties
            # (coincident points of many pairs) would enumerate them all.
            return
        if r == 2:
            close(chosen, cost, reach, first, r)
            return
        v = reach[first:] + half(first)[r - 2]
        smallest = np.sort(np.partition(v, r - 1)[:r]).tolist()
        rest = sum(smallest[:-1])
        if cost + rest + smallest[-1] > limit:
            return
        if _closes(n_slots - first, r):
            close(chosen, cost, reach, first, r)
            return
        v_list = v.tolist()
        # Only slots that leave r - 1 later slots can start a completion.
        for c in np.argsort(v[:n_slots - first - r + 1], kind="stable").tolist():
            if cost + v_list[c] + rest > limit:
                break
            c += first
            descend(chosen + (c,), cost + reach[c], reach + search[c], c + 1, r - 1)

    if not _closes(n_slots, size):
        # Seed the incumbent and search only the candidates whose root bound
        # is within it.
        bounds, best = _root_pass(dist, size)
        limit = best + 1e-9 * best
        keep = np.flatnonzero(bounds <= limit)
        n_slots = len(keep)
        search = dist.take(keep, axis=0).take(keep, axis=1)
    if _closes(n_slots, size):
        # The root closes at once (at four anchors always), so the bound
        # tables, which only interior nodes read, are not built.
        close((), 0.0, np.zeros(n_slots), 0, size)
    else:
        tables[0] = _half_nearest(search, size - 1)
        if ordered:
            # Cluster first: a stable sort on each slot's half-nearest sum.
            order = np.argsort(tables[0][-1], kind="stable")
            keep = keep[order]
            search = search.take(order, axis=0).take(order, axis=1)
            tables[0] = tables[0].take(order, axis=1)
        descend((), 0.0, np.zeros(n_slots), 0, size)
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

    # With every anchor active the geometric flags are empty, so the graph
    # equals its own restriction.
    restricted = graph if len(active) == n else graph.restricted_to(active)
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
