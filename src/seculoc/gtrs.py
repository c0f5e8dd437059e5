"""Weighted squared-range localization solved exactly on its secular function.

Squaring the range equations makes the objective quadratic in the lifted
variable y = (x, alpha) with alpha tied to ||x||^2 by one quadratic equality.
A quadratic objective over a single quadratic constraint admits an exact
solution: the stationarity system is linear in y for each multiplier value,
and the constraint residual of that stationary point is strictly decreasing
in the multiplier. Centring the anchors on their weighted centroid makes the
lifted Gram matrix block-diagonal, so that residual becomes an explicit
two-term secular function of the multiplier (Beck, Stoica & Li, 2008) whose
root is found by safeguarded Newton steps (Moré, 1993). The solver needs the
standard (-2a, 1) design that ``build_system`` produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, NoRootError

# The constraint alpha = ||x||^2 reads y' Q y - y[2] = 0 with this Q.
CONSTRAINT_QUAD = np.diag([1.0, 1.0, 0.0])

_DEFAULT_TOL = 1e-10
_DEFAULT_MAX_ITER = 100
_MAX_DOUBLINGS = 60
# Eigenvalue ratio of the anchor scatter at or below which anchors count as
# collinear: the square of the singular-value ratio the campaign resamples at.
_COLLINEAR_RATIO = 1e-12


@dataclass
class GtrsSystem:
    """Weighted linear system for squared-range localization.

    ``design`` rows are (-2*ax, -2*ay, 1), ``rhs`` entries are d^2 - ||a||^2,
    and ``weights`` are the normalized inverse-distance weights (their square
    roots form the diagonal weighting matrix).
    """

    design: np.ndarray
    rhs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.design = np.asarray(self.design, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        n = self.design.shape[0]
        if self.design.ndim != 2 or self.design.shape[1] != 3:
            raise ValueError("design must be an (N, 3) matrix")
        if self.rhs.shape != (n,) or self.weights.shape != (n,):
            raise ValueError("rhs and weights must match the design rows")
        if any(w <= 0.0 for w in self.weights.tolist()):
            raise ValueError("weights must be positive")

    @property
    def n_anchors(self) -> int:
        return self.design.shape[0]

    def gram(self) -> np.ndarray:
        """Weighted Gram matrix of the design."""
        return self.design.T @ (self.weights[:, None] * self.design)

    def gram_rhs(self) -> np.ndarray:
        return self.design.T @ (self.weights * self.rhs)


@dataclass
class GtrsSolution:
    y: np.ndarray
    x: np.ndarray
    lam: float
    phi_residual: float
    iterations: int


def build_system(anchors, d) -> GtrsSystem:
    """Assemble the weighted squared-range system for the given anchors.

    Weights are proportional to inverse measured distance (nearby links get
    more belief) and normalized to sum to one. Anchors whose 2x2 scatter
    about their weighted centroid has an eigenvalue ratio of about 1e-12 or
    less are collinear: they leave the design rank-deficient and raise
    DegenerateGeometryError.
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
    if min(dist) <= 0:
        raise ValueError("distances must be positive")
    inv = [1.0 / r for r in dist]
    total = 0.0
    for v in inv:
        total += v
    weights = [v / total for v in inv]
    cx = cy = 0.0
    for w, (x, y) in zip(weights, pts):
        cx += w * x
        cy += w * y
    sxx = sxy = syy = 0.0
    for x, y in pts:
        ux, uy = x - cx, y - cy
        sxx += ux * ux
        sxy += ux * uy
        syy += uy * uy
    # det / trace^2 lies between a quarter of the eigenvalue ratio and the ratio.
    if sxx * syy - sxy * sxy <= _COLLINEAR_RATIO * (sxx + syy) ** 2:
        raise DegenerateGeometryError("anchors are collinear")
    return GtrsSystem(
        design=np.array([(-2.0 * x, -2.0 * y, 1.0) for x, y in pts]),
        rhs=np.array([r * r - (x * x + y * y) for (x, y), r in zip(pts, dist)]),
        weights=np.array(weights),
    )


def max_generalized_eigenvalue(s: GtrsSystem) -> float:
    """Largest eigenvalue of G^{-1/2} Q G^{-1/2} for weighted Gram G.

    Its negative reciprocal is the open left end of the multiplier interval
    on which the shifted system stays positive definite.
    """
    gram = s.gram()
    evals, evecs = np.linalg.eigh(gram)
    if evals[0] <= 0:
        raise DegenerateGeometryError("weighted Gram matrix is not positive definite")
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.T
    mat = inv_sqrt @ CONSTRAINT_QUAD @ inv_sqrt
    return float(np.linalg.eigvalsh(mat)[-1])


def objective(s: GtrsSystem, y) -> float:
    """Weighted squared residual of the lifted variable y."""
    r = s.design @ np.asarray(y, dtype=float) - s.rhs
    return float(np.sum(s.weights * r * r))


def _centred_moments(s: GtrsSystem):
    """Weighted moments of the system about the weighted anchor centroid c.

    Returns (sum w, c, (Mxx, Mxy, Myy), g, g_alpha) with u = a - c, the
    scatter M = sum w u u', g = sum w u b and g_alpha = sum w b, where
    b = rhs + (a + u) . c is the right-hand side in the centred frame:
    shifting the frame leaves the objective, the constraint value and the
    multiplier unchanged, and ||a||^2 - ||a - c||^2 = (a + (a - c)) . c.
    Two passes over Python floats. Needs the standard (-2a, 1) design; any
    other raises ValueError.
    """
    rows, rhs, weights = s.design.tolist(), s.rhs.tolist(), s.weights.tolist()
    pts = []
    w_sum = cx = cy = 0.0
    for w, (ex, ey, one) in zip(weights, rows):
        if one != 1.0:
            raise ValueError("solve needs the standard (-2a, 1) design")
        x, y = -0.5 * ex, -0.5 * ey
        pts.append((x, y))
        w_sum += w
        cx += w * x
        cy += w * y
    cx, cy = cx / w_sum, cy / w_sum
    sxx = sxy = syy = gx = gy = g_alpha = 0.0
    for w, (x, y), b in zip(weights, pts, rhs):
        ux, uy = x - cx, y - cy
        b += (x + ux) * cx + (y + uy) * cy
        wx, wy = w * ux, w * uy
        sxx += ux * wx
        sxy += ux * wy
        syy += uy * wy
        gx += wx * b
        gy += wy * b
        g_alpha += w * b
    return w_sum, (cx, cy), (sxx, sxy, syy), (gx, gy), g_alpha


def solve(s: GtrsSystem, tol: float = _DEFAULT_TOL, max_iter: int = _DEFAULT_MAX_ITER) -> GtrsSolution:
    """Minimize the weighted squared-range objective subject to alpha = ||x||^2.

    Needs the standard (-2a, 1) design; any other raises ValueError. With the
    anchors centred on their weighted centroid and the scatter
    S = 4 sum w (a - c)(a - c)' = U diag(s) U', the constraint residual of the
    stationary point is the secular function

        phi(lam) = sum_k z_k^2 / (s_k + lam)^2 - (g_alpha + lam / 2) / sum w,

    z = U' g_x, strictly decreasing and convex on lam > -min s. Its root lies
    in a bracket from just inside that open left end up to a right end found
    by doubling from trace(S) until phi turns negative. Newton steps start
    at the larger of 0 (the unconstrained least-squares point) and
    -2 g_alpha (left of which alpha < 0 <= ||x||^2); a step that leaves the
    bracket is replaced by the bracket's midpoint. The stop is relative to
    the coordinate scale: |phi| <= tol * rho, with rho = trace(S) / (4 sum w)
    the weighted mean squared anchor distance from the centroid, so ``tol``
    is in m^2 for anchors about a metre from their centroid. One more step
    follows the stop, which by quadratic convergence leaves |phi| near
    rounding. At most ``max_iter`` evaluations; the best iterate seen is
    returned with its achieved residual, in the original frame, where
    (G + lam Q) y = g + (lam / 2) e3 holds. When phi is already negative at
    the bracket's left end (the hard case, z_0 = 0), the root sits at the
    pole: lam = -min s, and the free component of x along the smallest
    eigenvector takes the length that makes y feasible, with no Newton step.
    """
    w_sum, (cx, cy), (sxx, sxy, syy), (gx, gy), g_alpha = _centred_moments(s)
    inv_w = 1.0 / w_sum

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

        stop = tol * 2.0 * half_trace * inv_w
        best_phi, best_lam = phi, hi
        lam = max(0.0, -2.0 * g_alpha)
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
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
        e0, e1 = z0 / (s0 + best_lam), z1 / (s1 + best_lam)

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
