"""Two-way ranging samples: Gaussian noise, enlargement attacks, sample means."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .geometry import distances_to

# Generated ranges become circle radii, so they must stay positive.
_DISTANCE_FLOOR = 1e-6


@dataclass
class Scene:
    """True target position plus anchor layout, anywhere in the plane."""

    target: np.ndarray
    anchors: np.ndarray

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

    @property
    def n_anchors(self) -> int:
        return self.anchors.shape[0]

    def true_distances(self) -> np.ndarray:
        return np.array(distances_to(self.anchors.tolist(), self.target.tolist()))


@dataclass(frozen=True)
class AttackSpec:
    """Which anchor indices are spoofed and by how many meters of enlargement."""

    corrupted: frozenset[int] = frozenset()
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "corrupted", frozenset(map(operator.index, self.corrupted)))
        if not math.isfinite(self.delta):
            raise ValueError("attack intensity delta must be finite")
        if self.delta < 0:
            raise ValueError("an enlargement attack cannot shrink a distance")


@dataclass
class MeasurementSet:
    """K range samples per anchor plus the common per-sample noise level.

    The one source of a trial's sigma, K and per-anchor means: ``samples`` is
    a read-only copy of the given array, and ``means`` its read-only row sums
    divided by K, computed once (``mean`` bit for bit, without its dispatch cost).
    """

    samples: np.ndarray
    sigma: float
    means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.samples = np.array(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] < 1:
            raise ValueError("samples must be an (N, K) array with K >= 1")
        if not np.isfinite(self.samples).all():
            raise ValueError("samples must be finite")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        self.means = self.samples.sum(axis=1) / self.samples.shape[1]
        self.samples.flags.writeable = self.means.flags.writeable = False

    def __reduce__(self):
        # Rebuilt through the constructor: unpickled arrays would be writable.
        return MeasurementSet, (self.samples, self.sigma)


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
        mean[sorted(attack.corrupted)] += attack.delta
    samples = mean[:, None] + rng.normal(0.0, sigma, size=(n, k_samples))
    np.maximum(samples, _DISTANCE_FLOOR, out=samples)
    return MeasurementSet(samples=samples, sigma=sigma)


def median_distance(d) -> float:
    """Sample median; for even lengths, the mean of the two middle values.

    Sorted as a Python list: on a handful of values that is a fraction of
    ``np.median``'s fixed cost, and on finite values the value is the same
    bit for bit. Raises ValueError for an empty input, and for a non-finite
    one: a NaN leaves the sorted order, and so the answer, to its position.
    """
    s = np.asarray(d, dtype=float).ravel().tolist()
    if not s:
        raise ValueError("median of an empty distance list")
    if not all(map(math.isfinite, s)):
        raise ValueError("distances must be finite to take their median")
    s.sort()
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2
