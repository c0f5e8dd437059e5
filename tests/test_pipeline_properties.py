"""Property tests for seculoc.pipeline.locate_secure: the answer moves with the scene.

Rotating and translating the anchors, scaling every coordinate, range and
noise level by 10^-3 .. 10^4, or listing the anchors in another order must
move the final estimate the same way, to a relative 1e-9, and must name the
same attackers (relabelled with the anchors). A call that fails must fail
with the same error after the change.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seculoc.errors import LocalizationError
from seculoc.measurement import AttackSpec, MeasurementSet, Scene, generate_measurements
from seculoc.pipeline import locate_secure

SIDE = 20.0
REL = 1e-9
TAU = 0.3


@st.composite
def instances(draw):
    """N = 4..8 anchors in the region, one enlarged range, K = 5 noisy samples each."""
    n = draw(st.integers(4, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    anchors = rng.uniform(0.0, SIDE, (n, 2))
    centred = anchors - anchors.mean(axis=0)
    sv = np.linalg.svd(centred, compute_uv=False)
    assume(sv[1] > 0.05 * sv[0] and sv[1] > 0.5)
    scene = Scene(target=rng.uniform(0.0, SIDE, 2), anchors=anchors)
    attack = AttackSpec(frozenset({int(rng.integers(n))}), draw(st.sampled_from([0.0, 5.0, 10.0, 15.0])))
    return anchors, generate_measurements(scene, attack, 1.0, 5, rng)


def _locate(anchors, m):
    """(x_final, attackers) or the error class the call raised."""
    try:
        res = locate_secure(anchors, m, TAU)
    except LocalizationError as exc:
        return type(exc)
    return res.x_final, res.attacker_set


PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True)


@PROPERTIES
@given(instances(), st.floats(0.0, 2.0 * math.pi), st.tuples(st.floats(0.0, SIDE), st.floats(0.0, SIDE)),
       st.integers(-3, 4))
def test_rigid_motion_and_scaling(inst, angle, shift, exponent):
    anchors, m = inst
    scale = 10.0 ** exponent
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    offset = scale * 5.0 * np.asarray(shift)
    moved = _locate(scale * anchors @ rot.T + offset, MeasurementSet(scale * m.samples, scale * m.sigma))
    base = _locate(anchors, m)
    if isinstance(base, type):
        assert moved is base
        return
    assert not isinstance(moved, type), moved
    (x, attackers), (x_moved, attackers_moved) = base, moved
    assert attackers_moved == attackers
    assert np.linalg.norm(x_moved - (scale * rot @ x + offset)) <= REL * scale * SIDE


@PROPERTIES
@given(instances(), st.randoms(use_true_random=False))
def test_anchor_relabelling(inst, rnd):
    anchors, m = inst
    order = list(range(len(anchors)))
    rnd.shuffle(order)
    relabelled = _locate(anchors[order], MeasurementSet(m.samples[order], m.sigma))
    base = _locate(anchors, m)
    if isinstance(base, type):
        assert relabelled is base
        return
    assert not isinstance(relabelled, type), relabelled
    (x, attackers), (x_relabelled, attackers_relabelled) = base, relabelled
    assert attackers_relabelled == frozenset(i for i, j in enumerate(order) if j in attackers)
    assert np.linalg.norm(x_relabelled - x) <= REL * SIDE
