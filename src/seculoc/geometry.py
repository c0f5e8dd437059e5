"""Planar circle geometry: intersections, pair classification, distances, collinearity.

Points are plain length-2 float arrays throughout the library; circles carry
an anchor position as center and a measured range as radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateGeometryError

# The intersection discriminant scales like (r_i + r_j)^4; values inside this
# relative band are treated as tangencies.
_TANGENT_RTOL = 1e-12
# Eigenvalue ratio of a point scatter at or below which the points count as
# collinear: a singular-value ratio of 1e-6 for the centred points.
_COLLINEAR_RATIO = 1e-12


@dataclass(frozen=True)
class Circle:
    """Circle with center (x, y) and radius r, all in meters."""

    x: float
    y: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.r)):
            raise ValueError("circle parameters must be finite")
        if self.r <= 0:
            raise ValueError(f"radius must be positive, got {self.r}")


class CircleRelation(Enum):
    INTERSECTING = "intersecting"
    TANGENT = "tangent"
    EXTERNALLY_DISJOINT = "externally_disjoint"
    FIRST_CONTAINS_SECOND = "first_contains_second"
    SECOND_CONTAINS_FIRST = "second_contains_first"


def _discriminant(ci: Circle, cj: Circle) -> tuple[float, float, float, float, float]:
    """Shared setup for intersection and classification.

    Returns (k, tol, sep2, dx, dy) where k is the intersection discriminant,
    tol the tangency band for k, and sep2 the squared center separation.
    """
    dx = cj.x - ci.x
    dy = cj.y - ci.y
    sep2 = dx * dx + dy * dy
    if sep2 == 0.0:
        raise DegenerateGeometryError("circle centers coincide")
    rsum = ci.r + cj.r
    rdiff = cj.r - ci.r
    k = (rsum * rsum - sep2) * (sep2 - rdiff * rdiff)
    tol = _TANGENT_RTOL * rsum ** 4
    return k, tol, sep2, dx, dy


def intersect_circles(ci: Circle, cj: Circle) -> np.ndarray | None:
    """Intersection points of two circles.

    Returns a (2, 2) array whose rows are the two intersection points, or
    None when the circles do not meet. A tangency (discriminant within the
    scale-relative band of zero) returns the tangent point twice. Coincident
    centers raise DegenerateGeometryError.
    """
    k, tol, sep2, dx, dy = _discriminant(ci, cj)
    if k < -tol:
        return None
    shift = (ci.r * ci.r - cj.r * cj.r) / (2.0 * sep2)
    px = 0.5 * (ci.x + cj.x) + shift * dx
    py = 0.5 * (ci.y + cj.y) + shift * dy
    # A flat tuple reshaped builds the array faster than nested lists.
    if k <= tol:
        return np.array((px, py, px, py)).reshape(2, 2)
    half = math.sqrt(k) / (2.0 * sep2)
    # Quarter-turn of the center offset spans the chord direction.
    tx = -half * dy
    ty = half * dx
    return np.array((px + tx, py + ty, px - tx, py - ty)).reshape(2, 2)


def classify_pair(ci: Circle, cj: Circle) -> CircleRelation:
    """Classify a circle pair as crossing, tangent, or one of three disjoint modes.

    Disjoint pairs split by whether the circles are externally separated or
    one strictly contains the other. The direction of containment matters
    downstream: growing the radius of a circle that already contains the
    other can never create an intersection, while growing a contained or
    external circle eventually can.
    """
    k, tol, sep2, _, _ = _discriminant(ci, cj)
    if k > tol:
        return CircleRelation.INTERSECTING
    if k >= -tol:
        return CircleRelation.TANGENT
    rsum = ci.r + cj.r
    if sep2 > rsum * rsum:
        return CircleRelation.EXTERNALLY_DISJOINT
    # Separation below |r_i - r_j|: the larger circle contains the smaller.
    if ci.r > cj.r:
        return CircleRelation.FIRST_CONTAINS_SECOND
    return CircleRelation.SECOND_CONTAINS_FIRST


def distances_to(points, point) -> list[float]:
    """Euclidean distance from each of ``points`` to ``point``, as Python floats.

    Takes sequences of (x, y) floats. Each distance is sqrt(dx*dx + dy*dy),
    which equals ``np.linalg.norm`` over the two columns bit for bit
    (``math.hypot`` rounds differently).
    """
    px, py = point
    out = []
    for x, y in points:
        dx, dy = x - px, y - py
        out.append(math.sqrt(dx * dx + dy * dy))
    return out


def collinear_scatter(sxx: float, sxy: float, syy: float) -> bool:
    """Whether the 2x2 scatter [[sxx, sxy], [sxy, syy]] of a point set is collinear.

    True when its smaller eigenvalue is at most 1e-12 times its larger one,
    which includes the all-zero scatter of coincident points. The test reads
    det <= ratio * larger^2, since det is the product of the eigenvalues and
    the larger one, unlike the smaller, carries no cancellation.
    """
    larger = 0.5 * (sxx + syy) + math.hypot(0.5 * (sxx - syy), sxy)
    return sxx * syy - sxy * sxy <= _COLLINEAR_RATIO * larger * larger
