"""Corrupted-anchor detection from circle-intersection clustering.

Each anchor's measured range draws a circle that passes near the true target
when the measurement is honest, so honest circle pairs intersect close to the
target while an enlarged circle scatters its intersections. Three regimes
drive the stage: every pair of circles intersects; some circle is disjoint
from all others; or only some pairs intersect. A circle disjoint from all
others is flagged as corrupted only when it strictly contains every other
circle, because an attack can only enlarge a range: an isolated circle that
could still be reached by growing its radius may simply be noise-starved.
Containment needs a strictly larger radius, so only the strictly largest
circle can be flagged: at most one anchor, which meets no other circle.

From the surviving pairs the stage picks the most compact set of candidate
intersection points, one per pair, exactly and by the same branch-and-bound
search at every size. The search runs over the candidates themselves
(slots): a candidate is infinitely far from the other candidate of its
pair, so no choice that holds both can win. Where the search does not
close at its root, one pass first bounds every candidate as a child of
the root, seeds the incumbent with the choice built from the candidate of
least bound, and drops each candidate no optimal choice can hold. Every
node bounds its completions over the slots it can still choose, takes its
children in the order of those bounds, and stops at the first child whose
sliding window of bounds exceeds the incumbent; the choice does not depend
on the order. The stage averages the chosen points with inverse-distance
weights into an initial position estimate, and thresholds the relative
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

    ``pairs`` holds the anchor pairs (i, j), i < j, whose circles meet, in
    sorted order; row p of the (P, 2, 2) array ``points`` holds the two
    candidate intersection points of ``pairs[p]``; the circles of every
    other pair do not meet. ``geometric_flags`` holds anchors whose circle
    strictly contains every other circle and is therefore corrupted. Only
    the strictly largest circle can contain all the others, so at most one
    anchor is flagged, and it meets none of them: no row of ``pairs`` holds
    a flagged anchor.
    """

    pairs: tuple[tuple[int, int], ...]
    points: np.ndarray
    geometric_flags: frozenset[int]


@dataclass
class HonestSet:
    """Candidate intersection points chosen as presumably uncorrupted.

    Row k of the (k, 2) array ``points`` is the point chosen from anchor
    pair ``pairs[k]``; at most one point per anchor pair is ever selected.
    """

    pairs: list[tuple[int, int]]
    points: np.ndarray


@dataclass
class DetectionOutcome:
    """Result of the detection stage.

    ``relative_errors`` covers every input anchor (including one flagged on
    geometric grounds); ``removed`` holds the threshold's removals in order,
    and the ``attacker_set`` property adds the geometric flag to them. When
    the geometric flag alone shrinks the network to the minimum localizable
    size, the clustering and thresholding stages are skipped: ``x_init``,
    ``relative_errors`` and ``honest`` are None and ``removed`` is empty.
    """

    geometric_flags: frozenset[int]
    removed: tuple[int, ...] = ()
    x_init: np.ndarray | None = None
    relative_errors: np.ndarray | None = None
    honest: HonestSet | None = None

    @property
    def attacker_set(self) -> frozenset[int]:
        return self.geometric_flags.union(self.removed)


def build_intersection_graph(anchors, d) -> IntersectionGraph:
    """Intersect all circle pairs; classify the pairs that do not meet.

    An anchor is flagged corrupted when its circle strictly contains every
    other circle: no radius enlargement could ever have produced such a
    configuration honestly.
    """
    anchors = np.asarray(anchors, dtype=float)
    d = np.asarray(d, dtype=float)
    if anchors.ndim != 2 or anchors.shape[1] != 2:
        raise ValueError("anchors must be an (N, 2) array")
    n = anchors.shape[0]
    if n < 4:
        raise UnlocalizableError("secure localization needs at least 4 anchors")
    if d.shape != (n,):
        raise ValueError("one distance per anchor required")
    circles = [Circle(x, y, r) for (x, y), r in zip(anchors.tolist(), d.tolist())]

    pairs = []
    coords: list[float] = []  # four per meeting pair, the two points in turn
    # contained[i]: how many circles circle i strictly contains; only
    # disjoint pairs can hold one inside the other.
    contained = [0] * n
    for i in range(n - 1):
        for j in range(i + 1, n):
            meet = intersect_circles(circles[i], circles[j])
            if meet is not None:
                pairs.append((i, j))
                coords.extend(meet)
                continue
            rel = classify_pair(circles[i], circles[j])
            if rel is CircleRelation.FIRST_CONTAINS_SECOND:
                contained[i] += 1
            elif rel is CircleRelation.SECOND_CONTAINS_FIRST:
                contained[j] += 1

    flags = frozenset(i for i, count in enumerate(contained) if count == n - 1)
    points = np.array(coords, dtype=float).reshape(-1, 2, 2)  # (0, 2, 2) when no pair meets
    return IntersectionGraph(tuple(pairs), points, flags)


def _candidate_distances(pts: np.ndarray):
    """Flatten (n_pairs, 2, 2) candidates to index 2*pair + sign, with all pairwise distances.

    Each candidate's own pair, the two-by-two block on the diagonal, is set
    infinitely far, so no finite cost holds two candidates of one pair.
    """
    flat = pts.reshape(-1, 2)
    dx = flat[:, 0, None] - flat[None, :, 0]
    dy = flat[:, 1, None] - flat[None, :, 1]
    dist = np.sqrt(dx * dx + dy * dy)
    pair = np.arange(len(pts))
    dist.reshape(len(pts), 2, len(pts), 2)[pair, :, pair] = np.inf
    return flat, dist


def _coord_key(points: np.ndarray) -> tuple:
    return tuple(sorted(map(tuple, np.round(points, 12))))


def _tie_key(flat: np.ndarray, sel: list[int]) -> tuple:
    """The selector's one tie rule: sorted rounded coordinates, then pairs, then signs."""
    return _coord_key(flat[sel]), [c // 2 for c in sel], [c % 2 for c in sel]


# A node closes in one array step when scoring its completions gathers at
# most this many distances: C(open slots, r) choices of r points with
# C(r, 2) distances each. 1680 = C(16, 3) * 3, three points from up to 8
# pairs, so at four anchors the root is the whole search. Larger nodes are
# pruned faster by the branch and bound than scored by the step.
_CLOSING_BUDGET = 1680


def _closes(n_open: int, r: int) -> bool:
    return r == 2 or math.comb(n_open, r) * math.comb(r, 2) <= _CLOSING_BUDGET


@functools.cache
def _upper(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs within a choice of ``size`` points."""
    iu, jv = np.triu_indices(size, 1)
    iu.flags.writeable = jv.flags.writeable = False
    return iu, jv


@functools.cache
def _subsets(n_open: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Every choice of r of n_open slots, with the slot pairs its cost sums over.

    Returns the (M, r) table of r-combinations in lexicographic order and
    the flat (n_open-square) indices of its C(r, 2) slot pairs, so one
    ``take`` and a row sum score every choice. The cache keeps one table
    per open-slot count and r; a two-point table has C(n_open, 2) rows, and
    every other table gathers at most ``_CLOSING_BUDGET`` distances.
    """
    table = np.array(list(itertools.combinations(range(n_open), r)), dtype=np.intp).reshape(-1, r)
    iu, jv = _upper(r)
    pair_idx = table[:, iu] * n_open + table[:, jv]
    table.flags.writeable = pair_idx.flags.writeable = False
    return table, pair_idx


def _coincident_choice(flat: np.ndarray, size: int) -> list[int]:
    """Zero-cost choice under the selector's tie rule, without enumerating ties.

    A choice costs exactly zero when its points coincide, so the candidates
    are grouped by exact coordinates. Within a group the smallest ``size``
    pairs win, each by its smaller sign at that point; across groups
    ``_tie_key`` decides.
    """
    groups: dict[tuple[float, float], dict[int, int]] = {}
    for c, point in enumerate(map(tuple, flat.tolist())):
        groups.setdefault(point, {}).setdefault(c // 2, c)
    choices = [list(by_pair.values())[:size] for by_pair in groups.values() if len(by_pair) >= size]
    return min(choices, key=lambda sel: _tie_key(flat, sel))


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

    A depth-first branch and bound over the candidates, here called slots.
    ``dist`` sets each slot's own pair infinitely far
    (``_candidate_distances``), so a completion that holds both slots of one
    pair costs +inf and never reaches the incumbent, which is finite once
    any valid choice has been scored: a root that closes at once scores
    every choice, and otherwise the root pass seeds one.

    A root that does not close at once first takes one root pass
    (``_root_pass``): each candidate c gets the bound it would get as a
    child of the root, and one choice built alongside seeds the incumbent.
    The search stays exact, because the bound holds for every choice S of
    ``size`` candidates from distinct pairs with c in S: each x in S minus
    c has size - 2 partners in S minus c, all from pairs other than its
    own, so cost(S) >= sum over x in S minus c of d(c, x) + h[x] >=
    bound[c]. A candidate whose bound exceeds the incumbent by more than
    the 1e-9 relative slack below is in no choice the search could keep,
    so it leaves the search, whatever its sibling's bound.

    A node holds the slots chosen so far, their cost, each candidate's
    summed distance to them (reach) and the slots it may still add (open),
    with r points left to add. It closes in one array step that scores
    every completion at once: always with two points left, and otherwise
    when its C(open, r) choices gather at most ``_CLOSING_BUDGET``
    distances, which at four anchors is the root itself. Any other node
    gives each open slot x the value v[x] = reach[x] + half the sum of x's
    r - 1 smallest distances to the other open slots, and takes its
    children in increasing v. The search stays exact:

    - A completion R of r open slots costs at least cost + the sum of v
      over R, because each x in R has r - 1 partners in R, all open.
    - Child i holds every completion whose first slot in this order is the
      i-th; its open slots are the ones after it. So each subset is visited
      once, and cost plus the i-th value plus the r - 1 values after it
      bounds every completion in child i.
    - That window sum never decreases with i, so the children stop at the
      first window above the incumbent.
    - A window is cut only when it exceeds the incumbent by more than 1e-9
      relative, so every leaf that ties the optimum up to rounding
      survives, whatever the order.
    - The +inf distances only enter sums, sorts and comparisons, never an
      inf - inf.

    The search keeps the caller's indices: the root pass only narrows the
    open slots, and each leaf is the sorted tuple of its candidates.
    Survivors are re-scored by one gather-and-sum in that order and exact
    ties broken by ``_tie_key``. A cost of exactly zero, which nothing beats,
    stops the search: its ties are the candidates of ``size`` pairs that
    share one exact point, and ``_coincident_choice`` applies the same tie
    rule to them over every candidate.
    """
    limit = math.inf  # the incumbent's cost plus the 1e-9 relative slack
    leaves: list[tuple[float, tuple[int, ...]]] = []

    def descend(chosen: tuple[int, ...], cost: float, reach: np.ndarray, opn: np.ndarray, r: int):
        # reach[x]: summed distance from candidate x to the chosen slots.
        nonlocal limit
        if limit == 0.0:
            # No cost beats an exact zero, and searching for its exact ties
            # (coincident points of many pairs) would enumerate them all.
            return
        sub = dist if len(opn) == len(dist) else dist.take(opn, axis=0).take(opn, axis=1)
        if _closes(len(opn), r):
            table, pair_idx = _subsets(len(opn), r)
            costs = sub.take(pair_idx).sum(axis=1)
            if chosen:  # cost and reach are zero at the root
                costs += reach.take(opn)[table].sum(axis=1)
                costs += cost
            lowest = float(costs.min())
            if lowest > limit:
                return
            limit = min(limit, lowest + 1e-9 * lowest)
            near = np.flatnonzero(costs <= limit)
            for c, sel in zip(costs[near].tolist(), opn[table[near]].tolist()):
                leaves.append((c, chosen + tuple(sel)))
            return
        v = reach.take(opn) + 0.5 * np.sort(sub, axis=1)[:, :r - 1].sum(axis=1)
        order = np.argsort(v, kind="stable")
        vs, slots = v[order].tolist(), opn[order]
        for i in range(len(opn) - r + 1):
            if cost + vs[i] + sum(vs[i + 1:i + r]) > limit:
                break
            c = int(slots[i])
            descend(chosen + (c,), cost + float(reach[c]), reach + dist[c], slots[i + 1:], r - 1)

    slots = np.arange(len(dist))
    if not _closes(len(dist), size):
        # Seed the incumbent and search only the candidates whose root bound
        # is within it.
        bounds, best = _root_pass(dist, size)
        limit = best + 1e-9 * best
        slots = np.flatnonzero(bounds <= limit)
    descend((), 0.0, np.zeros(len(dist)), slots, size)
    if limit == 0.0:
        return _coincident_choice(flat, size)
    near = [sorted(sel) for c, sel in leaves if c <= limit]
    if len(near) == 1:
        return near[0]
    idx = np.array(near)
    iu, jv = _upper(size)
    comp = dist[idx[:, iu], idx[:, jv]].sum(axis=-1)
    ties = idx[comp == comp.min()].tolist()
    return min(ties, key=lambda sel: _tie_key(flat, sel))


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
    if len(graph.pairs) < target_size:
        raise UnlocalizableError(
            f"only {len(graph.pairs)} intersecting pairs available for {target_size} honest points"
        )
    flat, dist = _candidate_distances(graph.points)
    chosen = _most_compact(flat, dist, target_size)
    return HonestSet(pairs=[graph.pairs[c // 2] for c in chosen], points=flat[chosen])


def wcm_estimate(honest: HonestSet, d) -> np.ndarray:
    """Weighted central mass of the honest points.

    Each point is weighted by the inverse of its pair's mean measured
    distance, normalized to a convex combination, so points backed by long
    (and therefore less trusted) ranges pull the estimate less.
    """
    if not honest.pairs:
        raise ValueError("cannot average an empty honest set")
    dist = np.asarray(d, dtype=float).tolist()
    inv = [2.0 / (dist[i] + dist[j]) for i, j in honest.pairs]
    total = 0.0
    for v in inv:
        total += v
    x = y = 0.0
    for v, (px, py) in zip(inv, honest.points.tolist()):
        w = v / total
        x += w * px
        y += w * py
    return np.array([x, y])


def relative_errors(x_est, anchors, d) -> np.ndarray:
    """Per-anchor |measured - re-estimated| distance, scaled by the measured median.

    The median keeps the scale robust to a grossly enlarged measurement.
    Raises ValueError unless the position, anchors and distances are finite.
    """
    anchors = np.asarray(anchors, dtype=float)
    d = np.asarray(d, dtype=float)
    x_est = np.asarray(x_est, dtype=float)
    if d.ndim != 1 or anchors.shape != (len(d), 2):
        raise ValueError("one distance per anchor required")
    if x_est.shape != (2,):
        raise ValueError("x_est must be one planar point")
    med = median_distance(d)
    if med <= 0:
        raise ValueError("median of distance measurements must be positive")
    est = distances_to(anchors.tolist(), x_est.tolist())
    errs = [abs(r - e) / med for r, e in zip(d.tolist(), est)]
    if not all(map(math.isfinite, errs)):
        raise ValueError("x_est, anchors and distances must be finite")
    return np.array(errs)


def detect(anchors, d, tau: float) -> DetectionOutcome:
    """Full detection stage: geometric flags, honest points, thresholded removal.

    The flagged anchor, if any, is removed first; then anchors are stripped
    in order of decreasing relative error while the largest error exceeds
    ``tau`` and more than 3 anchors remain. The initial estimate is computed
    once and not revised between removals. If the flag alone leaves exactly
    3 anchors the stage concludes immediately with the flagged set.
    """
    anchors = np.asarray(anchors, dtype=float)
    d = np.asarray(d, dtype=float)
    graph = build_intersection_graph(anchors, d)
    return _detect_from_graph(anchors, d, tau, graph)


def _detect_from_graph(anchors, d, tau, graph) -> DetectionOutcome:
    """``detect`` on a built graph; ``locate_secure`` enters here too."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    flags = graph.geometric_flags
    active = set(range(len(d))) - flags
    if len(active) == 3:
        # The pre-filter alone fixed the verdict; nothing left to threshold.
        return DetectionOutcome(flags)

    # The flagged anchor meets no circle, so every row of the graph joins
    # two active anchors and the other active pairs are the disjoint ones.
    n_disjoint = math.comb(len(active), 2) - len(graph.pairs)
    # Never ask for fewer points than fix a position: with three honest
    # anchors left, their three mutually intersecting pairs still supply them.
    target = max(3, len(active) - n_disjoint) if n_disjoint else len(active) - 1
    honest = select_honest_points(graph, target)

    x_init = wcm_estimate(honest, d)
    errs = relative_errors(x_init, anchors, d)

    removed = []
    err = errs.tolist()
    while len(active) > 3:
        worst = max(active, key=lambda i: (err[i], -i))
        if err[worst] <= tau:
            break
        removed.append(worst)
        active.discard(worst)

    return DetectionOutcome(flags, tuple(removed), x_init, errs, honest)
