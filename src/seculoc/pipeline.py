"""End-to-end secure localization: detect attackers, then refine exactly.

The pipeline runs the geometric pre-filter, forms an initial estimate from
the honest intersection points, names attackers by thresholded relative
error, and re-solves on the surviving anchors through the exact squared-range
solver. The refined estimate is returned, and the initial estimate only
when the re-solve fails: a bias-compensated likelihood cost could not choose
between them, because a per-anchor bias fitted at a position absorbs that
position, so every position scores the scatter of each anchor's samples
about their mean. When the geometric pre-filter alone shrinks the network
to the minimum localizable size, the initial estimate is skipped entirely
and the refined estimate is returned outright.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .detection import DetectionOutcome, _detect_from_graph, build_intersection_graph
from .errors import LocalizationError, UnlocalizableError
from .gtrs import build_system, solve
from .measurement import MeasurementSet


@dataclass(kw_only=True)
class SecureLocResult(DetectionOutcome):
    """The detection outcome of one measurement set, with its refined estimate.

    ``chose_gtrs`` is True exactly when ``x_final`` is the refined estimate.
    Otherwise its solve failed and ``x_final`` is ``x_init``; on the
    pre-filter branch, where ``x_init`` is None, a failed solve raises.
    """

    x_final: np.ndarray
    chose_gtrs: bool


def _gtrs_estimate(anchors, d, indices) -> np.ndarray:
    # take() gathers the rows for about half the cost of fancy indexing.
    idx = sorted(indices)
    system = build_system(anchors.take(idx, axis=0), d.take(idx))
    return solve(system).x


def locate_secure(anchors, m: MeasurementSet, tau: float) -> SecureLocResult:
    """Run the full secure localization pipeline on one measurement set.

    Detection and geometry consume the per-anchor sample means. The refined
    estimate is kept whenever its solve succeeds. Raises UnlocalizableError
    when the network has fewer than 4 anchors, or when fewer than 3 usable
    anchors or honest candidate points remain at any stage.
    """
    anchors = np.asarray(anchors, dtype=float)
    d = m.means
    graph = build_intersection_graph(anchors, d)
    outcome = _detect_from_graph(anchors, d, tau, graph)
    try:
        x_gtrs = _gtrs_estimate(anchors, d, set(range(anchors.shape[0])) - outcome.attacker_set)
    except LocalizationError:
        if outcome.x_init is None:
            raise
        return SecureLocResult(**vars(outcome), x_final=outcome.x_init, chose_gtrs=False)
    return SecureLocResult(**vars(outcome), x_final=x_gtrs, chose_gtrs=True)


def locate_no_detection(anchors, m: MeasurementSet) -> np.ndarray:
    """Benchmark: solve on every anchor, corrupted or not."""
    anchors = np.asarray(anchors, dtype=float)
    return _gtrs_estimate(anchors, m.means, range(anchors.shape[0]))


def locate_perfect_detection(anchors, m: MeasurementSet, true_attackers) -> np.ndarray:
    """Benchmark: solve with the true attacker set removed."""
    anchors = np.asarray(anchors, dtype=float)
    n = anchors.shape[0]
    attackers = [operator.index(i) for i in true_attackers]
    bad = [i for i in attackers if not 0 <= i < n]
    if bad:
        raise ValueError(f"attacker indices {bad} outside anchor range 0..{n - 1}")
    survivors = sorted(set(range(n)) - set(attackers))
    if len(survivors) < 3:
        raise UnlocalizableError("fewer than 3 honest anchors remain")
    return _gtrs_estimate(anchors, m.means, survivors)
