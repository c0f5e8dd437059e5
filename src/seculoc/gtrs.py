"""Weighted squared-range localization solved exactly on its secular function.

Squaring the range equations makes the objective quadratic in the lifted
variable y = (x, alpha) with alpha tied to ||x||^2 by one quadratic equality.
A quadratic objective over a single quadratic constraint admits an exact
solution: the stationarity system is linear in y for each multiplier value,
and the constraint residual of that stationary point is strictly decreasing
in the multiplier. Centring the anchors on their weighted centroid makes the
lifted Gram matrix block-diagonal, so that residual becomes an explicit
two-term secular function of the multiplier (Beck, Stoica & Li, 2008) whose
root is found by safeguarded Newton steps (Moré, 1993). The problem is thus
fixed by the weighted moments about that centroid, and ``build_system``
reduces the anchors and ranges to exactly those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, NoRootError
from .geometry import collinear_scatter

_TOL = 1e-10
_MAX_ITER = 100
_MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class GtrsSystem:
    """Weighted squared-range system as its moments about the weighted centroid.

    With weights w, the weighted anchor centroid c and u = a - c: ``w_sum`` is
    sum w, ``scatter`` is sum w u u' as (Mxx, Mxy, Myy), ``g`` is sum w u b and
    ``g_alpha`` is sum w b, where b = d^2 - ||a||^2 + (a + u) . c is the
    squared-range right-hand side in the frame centred on c: shifting the frame
    leaves the objective, the constraint value and the multiplier unchanged,
    and ||a||^2 - ||a - c||^2 = (a + (a - c)) . c.
    """

    w_sum: float
    centroid: tuple[float, float]
    scatter: tuple[float, float, float]
    g: tuple[float, float]
    g_alpha: float


@dataclass
class GtrsSolution:
    y: np.ndarray
    x: np.ndarray
    lam: float
    phi_residual: float
    iterations: int


def build_system(anchors, d) -> GtrsSystem:
    """Reduce anchors and measured distances to the weighted squared-range system.

    Weights are proportional to inverse measured distance (nearby links get
    more belief) and normalized to sum to one. Anchors whose weighted scatter
    about their weighted centroid fails ``geometry.collinear_scatter`` leave
    the system rank-deficient and raise DegenerateGeometryError.
    """
    anchors = np.asarray(anchors, dtype=float)
    d = np.asarray(d, dtype=float)
    if anchors.ndim != 2 or anchors.shape[1] != 2:
        raise ValueError("anchors must be an (N, 2) array")
    n = anchors.shape[0]
    if n < 3:
        raise DegenerateGeometryError("planar localization needs at least 3 anchors")
    if d.shape != (n,):
        raise ValueError("one distance per anchor required")
    # Python floats from here on: at N <= 10 a numpy call costs more than its arithmetic.
    pts, dist = anchors.tolist(), d.tolist()
    if not all(0.0 < r < math.inf for r in dist):
        raise ValueError("distances must be positive and finite")
    inv = [1.0 / r for r in dist]
    total = 0.0
    for v in inv:
        total += v
    weights = [v / total for v in inv]
    w_sum = cx = cy = 0.0
    for w, (x, y) in zip(weights, pts):
        w_sum += w
        cx += w * x
        cy += w * y
    cx, cy = cx / w_sum, cy / w_sum
    # The weights are positive and finite, so the centroid is finite exactly when every anchor is.
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError("anchors must be finite")
    sxx = sxy = syy = gx = gy = g_alpha = 0.0
    for w, (x, y), r in zip(weights, pts, dist):
        ux, uy = x - cx, y - cy
        # d^2 - ||a||^2, then the shift to the centred frame added as one term.
        b = r * r - (x * x + y * y)
        b += (x + ux) * cx + (y + uy) * cy
        wx, wy = w * ux, w * uy
        sxx += ux * wx
        sxy += ux * wy
        syy += uy * wy
        gx += wx * b
        gy += wy * b
        g_alpha += w * b
    if collinear_scatter(sxx, sxy, syy):
        raise DegenerateGeometryError("anchors are collinear")
    return GtrsSystem(w_sum, (cx, cy), (sxx, sxy, syy), (gx, gy), g_alpha)


def solve(s: GtrsSystem) -> GtrsSolution:
    """Minimize the weighted squared-range objective subject to alpha = ||x||^2.

    With the anchors centred on their weighted centroid and the scatter
    S = 4 sum w (a - c)(a - c)' = U diag(s) U', the constraint residual of the
    stationary point is the secular function

        phi(lam) = sum_k z_k^2 / (s_k + lam)^2 - (g_alpha + lam / 2) / sum w,

    z = U' g_x, strictly decreasing and convex on lam > -min s. Its root lies
    in a bracket from just inside that open left end up to a right end found
    by doubling from trace(S) until phi turns negative. Newton steps start
    at the larger of 0 (the unconstrained least-squares point) and
    -2 g_alpha (left of which alpha < 0 <= ||x||^2); a step that leaves the
    bracket is replaced by the bracket's midpoint. The stop is relative to
    the coordinate scale: |phi| <= _TOL * rho, with rho = trace(S) / (4 sum w)
    the weighted mean squared anchor distance from the centroid, so the
    tolerance is in m^2 for anchors about a metre from their centroid. One
    more step follows the stop, which by quadratic convergence leaves |phi|
    near rounding. At most _MAX_ITER evaluations; the best iterate seen is
    returned with its achieved residual, in the original frame, where
    (G + lam Q) y = g + (lam / 2) e3 holds. When phi is already negative at
    the bracket's left end (the hard case, z_0 = 0), the root sits at the
    pole: lam = -min s, and the free component of x along the smallest
    eigenvector takes the length that makes y feasible, with no Newton step.
    """
    (cx, cy), (sxx, sxy, syy), (gx, gy), g_alpha = s.centroid, s.scatter, s.g, s.g_alpha
    inv_w = 1.0 / s.w_sum

    # Closed-form eigenpairs of S / 4: s0 <= s1, and the rotation by theta
    # takes the first axis onto the eigenvector of s1.
    half_trace = 0.5 * (sxx + syy)
    radius = math.hypot(0.5 * (sxx - syy), sxy)
    s0, s1 = 4.0 * (half_trace - radius), 4.0 * (half_trace + radius)
    if s0 <= 0.0:
        raise DegenerateGeometryError("weighted anchor scatter is not positive definite")
    theta = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    # z = U' g_x with g_x = -2 sum w (a - c) rhs.
    z0 = 2.0 * (sin_t * gx - cos_t * gy)
    z1 = -2.0 * (cos_t * gx + sin_t * gy)
    zz0, zz1 = z0 * z0, z1 * z1

    def phi_at(lam: float) -> float:
        r0, r1 = s0 + lam, s1 + lam
        return zz0 / (r0 * r0) + zz1 / (r1 * r1) - (g_alpha + 0.5 * lam) * inv_w

    lo = -s0 * (1.0 - 1e-9)
    margin = s0 + lo
    if margin * margin == 0.0:
        # From a coordinate scale of about 1e-78 down, the pole term's
        # squared denominator underflows to 0 at the left end, where phi
        # then cannot be evaluated.
        raise NoRootError(f"the bracket's left end underflows: (s0 + lam)^2 is 0 at s0 = {s0:g}")
    if phi_at(lo) < 0.0:
        # Hard case: z0 = 0 (or so small that the root lies within the
        # bracket's margin of the pole), so the multiplier is -s0 and x is free
        # along the s0 eigenvector; the length of that component closes the
        # constraint.
        best_lam, iterations = -s0, 0
        e1 = z1 / (s1 - s0) if s1 > s0 else 0.0
        e0 = math.copysign(math.sqrt(max(0.0, (g_alpha - 0.5 * s0) * inv_w - e1 * e1)), z0)
        best_phi = e0 * e0 + e1 * e1 - (g_alpha - 0.5 * s0) * inv_w
    else:
        hi = 8.0 * half_trace
        phi = phi_at(hi)
        doublings = 0
        while phi >= 0.0:
            if doublings == _MAX_DOUBLINGS:
                raise NoRootError("constraint residual never turned negative while expanding the bracket")
            hi *= 2.0
            doublings += 1
            phi = phi_at(hi)

        stop = _TOL * 2.0 * half_trace * inv_w
        best_phi, best_lam = phi, hi
        lam = max(0.0, -2.0 * g_alpha)
        converged = False
        iterations = 0
        for iterations in range(1, _MAX_ITER + 1):
            q0, q1 = 1.0 / (s0 + lam), 1.0 / (s1 + lam)
            t0, t1 = zz0 * q0 * q0, zz1 * q1 * q1
            b = (g_alpha + 0.5 * lam) * inv_w
            phi = t0 + t1 - b
            if abs(phi) < abs(best_phi):
                best_phi, best_lam = phi, lam
            if converged:
                break
            converged = abs(phi) <= stop
            if phi > 0.0:
                lo = lam
            else:
                hi = lam
            # Every candidate lands at or below the root, so the largest is kept:
            # Newton on phi (convex), Newton on psi = a^-1/2 - b^-1/2 (concave,
            # nearly linear beside the pole) and, from the right, the root of the
            # s0 pole term against the rest of phi, which only grows leftwards.
            a = t0 + t1
            dsum = t0 * q0 + t1 * q1
            step = lam + phi / (2.0 * dsum + 0.5 * inv_w)
            if b > 0.0 and a > 0.0:
                step = max(step, lam - (a ** -0.5 - b ** -0.5) / (a ** -1.5 * dsum + 0.25 * inv_w * b ** -1.5))
            if phi < 0.0:
                step = max(step, abs(z0) / math.sqrt(b - t1) - s0)
            lam = step if lo < step < hi else 0.5 * (lo + hi)
        if not converged:
            raise NoRootError(f"constraint residual did not converge in {_MAX_ITER} evaluations")
        e0, e1 = z0 / (s0 + best_lam), z1 / (s1 + best_lam)
    if not math.isfinite(best_phi):
        raise NoRootError(f"constraint residual is not finite ({best_phi})")

    # x in the eigenbasis of S, rotated back and moved to the original frame.
    x0, x1 = cos_t * e1 - sin_t * e0, sin_t * e1 + cos_t * e0
    # alpha re-expressed in the original frame; the residual is unchanged.
    alpha = (g_alpha + 0.5 * best_lam) * inv_w + 2.0 * (cx * x0 + cy * x1) + cx * cx + cy * cy
    x = np.array([x0 + cx, x1 + cy])
    return GtrsSolution(
        y=np.array([x0 + cx, x1 + cy, alpha]),
        x=x,
        lam=best_lam,
        phi_residual=best_phi,
        iterations=iterations,
    )
