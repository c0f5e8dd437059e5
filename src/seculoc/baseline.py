"""Comparison method: unconstrained weighted least squares plus a GLRT detector.

The estimator solves the same squared-range linear system as the exact
solver but drops the norm constraint, so it reduces to ordinary weighted
normal equations. Its detector tests each anchor's mean sample residual
against a threshold calibrated from a chosen false-alarm probability; the
residual of an honest anchor is zero-mean Gaussian with variance sigma^2/K
when evaluated at the true position, which makes the calibration exact there
and only approximate at the estimated position.
"""

from __future__ import annotations

import math
import operator
from statistics import NormalDist

import numpy as np

from .geometry import distances_to
from .gtrs import build_system
from .measurement import MeasurementSet


def wls_locate(anchors, d) -> np.ndarray:
    """Weighted linear least-squares position from squared ranges.

    Uses inverse-distance weights and the lifted squared-range system, but
    solves the plain normal equations without tying the lifted coordinate to
    the squared norm. Raises DegenerateGeometryError on collinear anchors.
    """
    system = build_system(anchors, d)
    # Centred on the weighted centroid c, the lifted coordinate decouples and
    # the normal equations reduce to x = c - M^-1 g / 2, with M and g the
    # centred scatter and right-hand-side moments.
    (cx, cy), (sxx, sxy, syy), (gx, gy) = system.centroid, system.scatter, system.g
    det = sxx * syy - sxy * sxy
    return np.array([cx - 0.5 * (syy * gx - sxy * gy) / det, cy - 0.5 * (sxx * gy - sxy * gx) / det])


def estimate_attack_intensity(x_est, m: MeasurementSet, anchors) -> np.ndarray:
    """Per-anchor mean residual of the samples against an assumed position.

    This is the maximum-likelihood estimate of a constant additive bias on
    each anchor's samples; honest anchors yield values near zero, possibly
    negative through noise.
    """
    anchors = np.asarray(anchors, dtype=float)
    if m.samples.shape[0] != anchors.shape[0]:
        raise ValueError("one sample row per anchor required")
    if not np.isfinite(anchors).all():
        raise ValueError("anchors must be finite")
    point = np.asarray(x_est, dtype=float).tolist()
    if not all(map(math.isfinite, point)):
        raise ValueError("x_est must be finite")
    return m.means - np.array(distances_to(anchors.tolist(), point))


def glrt_threshold(p_fa: float, sigma: float, k_samples: int) -> float:
    """Decision threshold on the mean residual for the target false alarm.

    Equals sigma * Qinv(p_fa) / sqrt(K): the mean residual of an honest
    anchor has std sigma/sqrt(K), so exceeding the threshold under the
    no-attack hypothesis happens with probability p_fa. A K that is not an
    integer raises TypeError; numpy integers are accepted.
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie strictly inside (0, 1)")
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if operator.index(k_samples) < 1:
        raise ValueError("need at least one sample per anchor")
    return sigma * NormalDist().inv_cdf(1.0 - p_fa) / math.sqrt(k_samples)


def glrt_detect(x_wls, m: MeasurementSet, anchors, p_fa: float) -> frozenset[int]:
    """Flag anchors whose estimated bias exceeds the threshold for the sigma and K of ``m``."""
    delta_hat = estimate_attack_intensity(x_wls, m, anchors)
    thresh = glrt_threshold(p_fa, m.sigma, m.samples.shape[1])
    return frozenset(i for i, v in enumerate(delta_hat.tolist()) if v > thresh)
