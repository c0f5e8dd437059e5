"""Property tests for seculoc.gtrs.solve: the solution moves with the anchors.

Rotating and translating the anchors, scaling every coordinate and distance
by 10^-3 .. 10^7, or listing the anchors in another order must move the
estimate the same way, to a relative 1e-9, and no solve may spend its whole
iteration budget.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seculoc.gtrs import _MAX_ITER, build_system, solve

SIDE = 20.0
REL = 1e-9

coordinate = st.floats(0.0, SIDE, allow_nan=False)
point = st.tuples(coordinate, coordinate)


@st.composite
def instances(draw):
    """Anchors well away from collinear, a target in the region, noisy ranges."""
    anchors = np.array(draw(st.lists(point, min_size=3, max_size=8)))
    centred = anchors - anchors.mean(axis=0)
    sv = np.linalg.svd(centred, compute_uv=False)
    assume(sv[1] > 0.05 * sv[0] and sv[1] > 0.5)
    target = np.array(draw(point))
    noise = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=len(anchors), max_size=len(anchors))))
    d = np.linalg.norm(anchors - target, axis=1) + noise
    assume((d > 0.1).all())
    return anchors, d


def _solve(anchors, d):
    sol = solve(build_system(anchors, d))
    assert sol.iterations < _MAX_ITER
    return sol.x


PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True)


@PROPERTIES
@given(instances(), st.floats(0.0, 2.0 * math.pi), point, st.integers(-3, 7))
def test_rigid_motion_and_scaling(inst, angle, shift, exponent):
    anchors, d = inst
    scale = 10.0 ** exponent
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    offset = scale * 5.0 * np.asarray(shift)
    moved = scale * anchors @ rot.T + offset
    x = _solve(anchors, d)
    x_moved = _solve(moved, scale * d)
    expected = scale * rot @ x + offset
    assert np.linalg.norm(x_moved - expected) <= REL * scale * SIDE


@PROPERTIES
@given(instances(), st.randoms(use_true_random=False))
def test_anchor_relabelling(inst, rnd):
    anchors, d = inst
    order = list(range(len(anchors)))
    rnd.shuffle(order)
    x = _solve(anchors, d)
    x_relabelled = _solve(anchors[order], d[order])
    assert np.linalg.norm(x_relabelled - x) <= REL * SIDE
