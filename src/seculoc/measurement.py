"""Two-way ranging samples: Gaussian noise, enlargement attacks, reductions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Generated ranges become circle radii, so they must stay positive.
_DISTANCE_FLOOR = 1e-6


@dataclass
class Scene:
    """True target position plus anchor layout inside a rectangular region."""

    target: np.ndarray
    anchors: np.ndarray
    region: tuple[float, float, float, float] = (0.0, 0.0, 20.0, 20.0)

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=float)
        self.anchors = np.asarray(self.anchors, dtype=float)
        if self.target.shape != (2,):
            raise ValueError("target must be a planar point")
        if self.anchors.ndim != 2 or self.anchors.shape[1] != 2:
            raise ValueError("anchors must be an (N, 2) array")
        if self.anchors.shape[0] < 4:
            raise ValueError("secure operation needs at least 4 anchors")
        pts = np.vstack([self.target[None, :], self.anchors])
        if not np.isfinite(pts).all():
            raise ValueError("scene coordinates must be finite")
        xmin, ymin, xmax, ymax = self.region
        inside = (
            (pts[:, 0] >= xmin) & (pts[:, 0] <= xmax)
            & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax)
        )
        if not inside.all():
            raise ValueError("all scene points must lie inside the region")

    @property
    def n_anchors(self) -> int:
        return self.anchors.shape[0]

    def true_distances(self) -> np.ndarray:
        return np.linalg.norm(self.anchors - self.target, axis=1)


@dataclass(frozen=True)
class AttackSpec:
    """Which anchor indices are spoofed and by how many meters of enlargement."""

    corrupted: frozenset[int] = frozenset()
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "corrupted", frozenset(self.corrupted))
        if self.delta < 0:
            raise ValueError("an enlargement attack cannot shrink a distance")


@dataclass
class MeasurementSet:
    """K range samples per anchor plus the common per-sample noise level."""

    samples: np.ndarray
    sigma: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] < 1:
            raise ValueError("samples must be an (N, K) array with K >= 1")
        if not np.isfinite(self.samples).all():
            raise ValueError("samples must be finite")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")


def generate_measurements(
    scene: Scene,
    attack: AttackSpec,
    sigma: float,
    k_samples: int,
    rng: np.random.Generator,
) -> MeasurementSet:
    """Draw K noisy range samples per anchor, enlarging the corrupted ones.

    Sample (i, k) is the true target-anchor distance, plus the attack bias
    for corrupted anchors, plus independent zero-mean Gaussian noise of
    standard deviation ``sigma``. Deterministic for a given generator state.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if k_samples < 1:
        raise ValueError("need at least one sample per anchor")
    n = scene.n_anchors
    bad = [i for i in attack.corrupted if not 0 <= i < n]
    if bad:
        raise ValueError(f"corrupted indices {bad} outside anchor range 0..{n - 1}")
    mean = scene.true_distances()
    if attack.corrupted:
        mean = mean.copy()
        mean[sorted(attack.corrupted)] += attack.delta
    samples = mean[:, None] + rng.normal(0.0, sigma, size=(n, k_samples))
    np.maximum(samples, _DISTANCE_FLOOR, out=samples)
    return MeasurementSet(samples=samples, sigma=sigma)


def reduce_samples(m: MeasurementSet) -> np.ndarray:
    """Per-anchor sample means; their noise std is sigma / sqrt(K).

    The row sum divided by K is the reduction ``mean`` runs, bit for bit,
    without its dispatch cost.
    """
    return m.samples.sum(axis=1) / m.samples.shape[1]


def median_distance(d) -> float:
    """Sample median; for even lengths, the mean of the two middle values.

    Sorted as a Python list: on a handful of values that is a fraction of
    ``np.median``'s fixed cost, and the value is the same bit for bit.
    """
    s = sorted(np.asarray(d, dtype=float).ravel().tolist())
    if not s:
        raise ValueError("median of an empty distance list")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2
