"""Weighted squared-range localization solved exactly by bisection.

Squaring the range equations makes the objective quadratic in the lifted
variable y = (x, alpha) with alpha tied to ||x||^2 by one quadratic equality.
A quadratic objective over a single quadratic constraint admits an exact
solution: the stationarity system is linear in y for each multiplier value,
and the constraint residual of that stationary point is strictly decreasing
in the multiplier. Centring the anchors on their weighted centroid makes the
lifted Gram matrix block-diagonal, so that residual becomes an explicit
two-term secular function of the multiplier (Beck, Stoica & Li, 2008) whose
root is found by plain bisection. The solver needs the standard (-2a, 1)
design that ``build_system`` produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, NoRootError

# The constraint alpha = ||x||^2 reads y' Q y - y[2] = 0 with this Q.
CONSTRAINT_QUAD = np.diag([1.0, 1.0, 0.0])

_DEFAULT_TOL = 1e-10
_DEFAULT_MAX_ITER = 100
_MAX_DOUBLINGS = 60


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
        if (self.weights <= 0).any():
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
    more belief) and normalized to sum to one. Collinear anchors leave the
    design rank-deficient and raise DegenerateGeometryError.
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
    if (d <= 0).any():
        raise ValueError("distances must be positive")
    design = np.column_stack([-2.0 * anchors, np.ones(n)])
    if np.linalg.matrix_rank(design) < 3:
        raise DegenerateGeometryError("anchors are collinear")
    rhs = d * d - (anchors * anchors).sum(axis=1)
    weights = 1.0 / d
    weights /= weights.sum()
    return GtrsSystem(design=design, rhs=rhs, weights=weights)


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


def solve(s: GtrsSystem, tol: float = _DEFAULT_TOL, max_iter: int = _DEFAULT_MAX_ITER) -> GtrsSolution:
    """Minimize the weighted squared-range objective subject to alpha = ||x||^2.

    Needs the standard (-2a, 1) design; any other raises ValueError. With the
    anchors centred on their weighted centroid and the scatter
    S = 4 sum w (a - c)(a - c)' = U diag(s) U', the constraint residual of the
    stationary point is the secular function

        phi(lam) = sum_k z_k^2 / (s_k + lam)^2 - (g_alpha + lam / 2) / sum w,

    z = U' g_x, strictly decreasing on lam > -min s. It is bisected from just
    inside that open left end up to a bracket found by doubling from 1 until
    phi turns negative. Stops when |phi| <= tol or the iteration budget runs
    out; the best iterate seen is returned with its achieved residual, in the
    original frame, where (G + lam Q) y = g + (lam / 2) e3 holds.
    """
    design = s.design
    if not np.array_equal(design[:, 2], np.ones(design.shape[0])):
        raise ValueError("solve needs the standard (-2a, 1) design")
    w = s.weights
    w_sum = float(w.sum())
    anchors = -0.5 * design[:, :2]
    center = w @ anchors / w_sum
    shifted = anchors - center
    # Shifting the frame leaves the objective, the constraint value and the
    # multiplier unchanged; only the right-hand side picks up the shift.
    rhs = s.rhs + 2.0 * (anchors @ center) - center @ center
    evals, evecs = np.linalg.eigh(4.0 * shifted.T @ (w[:, None] * shifted))
    if evals[0] <= 0:
        raise DegenerateGeometryError("weighted anchor scatter is not positive definite")
    s0, s1 = evals.tolist()
    z0, z1 = (evecs.T @ (-2.0 * shifted.T @ (w * rhs))).tolist()
    g_alpha = float(w @ rhs)
    zz0, zz1 = z0 * z0, z1 * z1

    def phi_at(lam: float) -> float:
        r0, r1 = s0 + lam, s1 + lam
        return zz0 / (r0 * r0) + zz1 / (r1 * r1) - (g_alpha + 0.5 * lam) / w_sum

    lower = -s0
    lower += 1e-9 * (1.0 + abs(lower))
    upper = 1.0
    phi = phi_at(upper)
    doublings = 0
    while phi >= 0.0:
        if doublings == _MAX_DOUBLINGS:
            raise NoRootError("constraint residual never turned negative while expanding the bracket")
        upper *= 2.0
        doublings += 1
        phi = phi_at(upper)

    lo, hi = lower, upper
    best_phi, best_lam = phi, upper
    iterations = 0
    for iterations in range(1, max_iter + 1):
        lam = 0.5 * (lo + hi)
        phi = phi_at(lam)
        if abs(phi) < abs(best_phi):
            best_phi, best_lam = phi, lam
        if abs(phi) <= tol:
            break
        if phi > 0.0:
            lo = lam
        else:
            hi = lam

    x_shifted = evecs @ np.array([z0 / (s0 + best_lam), z1 / (s1 + best_lam)])
    alpha_shifted = (g_alpha + 0.5 * best_lam) / w_sum
    x = x_shifted + center
    # alpha re-expressed in the original frame; the residual is unchanged.
    alpha = alpha_shifted + 2.0 * (center @ x_shifted) + center @ center
    return GtrsSolution(
        y=np.array([x[0], x[1], alpha]),
        x=x,
        lam=best_lam,
        phi_residual=best_phi,
        iterations=iterations,
    )
