"""Helpers shared by the test modules."""

import math

import numpy as np

from seculoc.measurement import Scene


def random_scene(rng, n=4, side=20.0):
    """A uniform target and ``n`` anchors in a square of ``side``.

    A layout is redrawn while an anchor lies within 0.5 of the target or the
    anchors are collinear.
    """
    while True:
        t = rng.uniform(0, side, 2)
        a = rng.uniform(0, side, (n, 2))
        if np.linalg.norm(a - t, axis=1).min() < 0.5:
            continue
        if np.linalg.svd(a - a.mean(0), compute_uv=False)[1] <= 1e-6:
            continue
        return Scene(target=t, anchors=a)


def q_erfc(z):
    # Oracle: the Gaussian upper tail Q(z) from math.erfc.
    return 0.5 * math.erfc(z / math.sqrt(2.0))
