"""Closed-form bounds on the probability of flagging the corrupted anchor.

The per-anchor relative errors are absolute values of Gaussians that share a
standard deviation, so every tail quantity reduces to Gaussian Q-function
evaluations. The pairwise comparison P(|A| < |B|) follows from rotating the
joint density by a quarter turn, which maps the wedge |A| < |B| onto two
quadrants and factorizes the probability into Q-function products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_SQRT2 = math.sqrt(2.0)


def _q(z: float) -> float:
    return 0.5 * math.erfc(z / _SQRT2)


def q_function(z):
    """Gaussian upper-tail probability Q(z) = P(Z > z) for standard normal Z.

    Accepts scalars or arrays; evaluated element by element through the
    complementary error function, accurate to well below 1e-12 over |z| <= 8.
    """
    if np.ndim(z) == 0:
        return _q(float(z))
    z = np.asarray(z, dtype=float)
    return np.array([_q(v) for v in z.ravel().tolist()]).reshape(z.shape)


def prob_abs_leq(tau: float, mu: float, sigma: float) -> float:
    """P(|Y| <= tau) for Y ~ N(mu, sigma^2)."""
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be non-negative and finite")
    p = 1.0 - (_q((tau + mu) / sigma) + _q((tau - mu) / sigma))
    return min(1.0, max(0.0, p))


def prob_abs_less(mu_a: float, mu_i: float, sigma: float) -> float:
    """P(|A| < |B|) for independent A ~ N(mu_a, sigma^2), B ~ N(mu_i, sigma^2).

    The equal variances are essential: they keep the rotated coordinates
    independent, which is what makes the quadrant factorization exact.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    rot_a = (mu_a - mu_i) / _SQRT2
    rot_i = (mu_a + mu_i) / _SQRT2
    p = _q(rot_a / sigma) * _q(-rot_i / sigma) + _q(-rot_a / sigma) * _q(rot_i / sigma)
    return min(1.0, max(0.0, p))


@dataclass
class ErrorStats:
    """Means and shared std of the per-anchor relative-error Gaussians.

    ``mu[i]`` is the mean of the signed relative error of anchor i (the
    attacker's entry includes the attack bias), ``sigma_y`` the shared
    standard deviation, both in units of the measured-distance median.
    """

    mu: np.ndarray
    sigma_y: float
    attacker_index: int
    tau: float

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        if self.mu.ndim != 1 or self.mu.size < 2:
            raise ValueError("mu must hold one mean per anchor, at least two")
        if not 0.0 < self.sigma_y < math.inf:
            raise ValueError("sigma_y must be positive and finite")
        if not 0 <= self.attacker_index < self.mu.size:
            raise ValueError("attacker_index outside anchor range")
        if not 0.0 <= self.tau < math.inf:
            raise ValueError("tau must be non-negative and finite")


class DetectionBounds(NamedTuple):
    lpd1: float
    lpd2: float
    lp_d: float
    up_d: float


def detection_bounds(s: ErrorStats) -> DetectionBounds:
    """Lower and upper bounds on the probability of detecting the attacker.

    Detection means the attacker's relative error exceeds both the threshold
    and every honest anchor's error. The upper bound keeps only the
    threshold event; the first lower bound subtracts a union bound over the
    ways detection can fail; the second multiplies the attacker exceeding
    the threshold with every honest anchor staying below it. All outputs are
    clamped to [0, 1] after floating arithmetic.
    """
    a = s.attacker_index
    mu = s.mu.tolist()
    mu_a, sigma, tau = mu[a], s.sigma_y, s.tau
    p_exceed = _q((tau + mu_a) / sigma) + _q((tau - mu_a) / sigma)
    honest = mu[:a] + mu[a + 1:]

    # Union bound: 1 - sum_i P(|y_a| < |y_i|) - P(|y_a| <= tau).
    lpd1 = 1.0 - sum(prob_abs_less(mu_a, mu_i, sigma) for mu_i in honest)
    lpd1 -= prob_abs_leq(tau, mu_a, sigma)
    lpd1 = min(1.0, max(0.0, lpd1))

    lpd2 = math.prod((prob_abs_leq(tau, mu_i, sigma) for mu_i in honest), start=p_exceed)
    lpd2 = min(1.0, max(0.0, lpd2))

    up_d = min(1.0, max(0.0, p_exceed))
    return DetectionBounds(lpd1=lpd1, lpd2=lpd2, lp_d=max(lpd1, lpd2), up_d=up_d)
