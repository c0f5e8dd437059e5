"""Weighted squared-range localization solved exactly by bisection.

Squaring the range equations makes the objective quadratic in the lifted
variable y = (x, alpha) with alpha tied to ||x||^2 by one quadratic equality.
A quadratic objective over a single quadratic constraint admits an exact
solution: the stationarity system is linear in y for each multiplier value,
and the constraint residual of that stationary point is strictly decreasing
in the multiplier over an interval fixed by a generalized eigenvalue. Finding
the multiplier is therefore a one-dimensional root problem, solved here by
plain bisection on closed-form 3x3 solves.
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


def _solve3(m, v):
    """Closed-form 3x3 solve (Cramer); returns None on an exactly singular matrix."""
    (a, b, c), (d, e, f), (g, h, i) = m
    co_a = e * i - f * h
    co_b = d * i - f * g
    co_c = d * h - e * g
    det = a * co_a - b * co_b + c * co_c
    if det == 0.0:
        return None
    v0, v1, v2 = v
    x0 = (v0 * co_a - b * (v1 * i - f * v2) + c * (v1 * h - e * v2)) / det
    x1 = (a * (v1 * i - f * v2) - v0 * co_b + c * (d * v2 - v1 * g)) / det
    x2 = (a * (e * v2 - v1 * h) - b * (d * v2 - v1 * g) + v0 * co_c) / det
    return (x0, x1, x2)


def _centered(s: GtrsSystem) -> tuple[GtrsSystem, np.ndarray]:
    """Translate anchors to their centroid for numerical conditioning.

    Shifting coordinates leaves the objective and the constraint value
    unchanged (and with them the optimal multiplier), but keeps the Gram
    matrix entries of comparable size. Only applies to systems in the
    standard (-2a, 1) design form.
    """
    design = s.design
    if not np.array_equal(design[:, 2], np.ones(design.shape[0])):
        return s, np.zeros(2)
    anchors = -0.5 * design[:, :2]
    center = anchors.mean(axis=0)
    if not center.any():
        return s, np.zeros(2)
    shifted = np.column_stack([-2.0 * (anchors - center), np.ones(design.shape[0])])
    rhs = s.rhs + 2.0 * (anchors @ center) - center @ center
    return GtrsSystem(design=shifted, rhs=rhs, weights=s.weights), center


def solve(s: GtrsSystem, tol: float = _DEFAULT_TOL, max_iter: int = _DEFAULT_MAX_ITER) -> GtrsSolution:
    """Minimize the weighted squared-range objective subject to alpha = ||x||^2.

    Bisects the constraint residual of the stationary point over the
    admissible multiplier interval. The lower bracket sits just inside the
    interval's open left end; the upper bracket is found by doubling from 1
    until the residual turns negative. Stops when |residual| <= tol or the
    iteration budget runs out; the best iterate seen is returned with its
    achieved residual.
    """
    work, center = _centered(s)
    gram = work.gram()
    b = work.gram_rhs()
    lam_max = max_generalized_eigenvalue(work)
    lower = -1.0 / lam_max
    lower += 1e-9 * (1.0 + abs(lower))

    g00, g01, g02 = float(gram[0, 0]), float(gram[0, 1]), float(gram[0, 2])
    g11, g12, g22 = float(gram[1, 1]), float(gram[1, 2]), float(gram[2, 2])
    b0, b1, b2 = float(b[0]), float(b[1]), float(b[2])

    def eval_at(lam: float):
        # A singular shifted matrix is nudged toward the interval's interior.
        for _ in range(8):
            row = (
                (g00 + lam, g01, g02),
                (g01, g11 + lam, g12),
                (g02, g12, g22),
            )
            rhs = (b0, b1, b2 + 0.5 * lam)
            y = _solve3(row, rhs)
            if y is not None:
                return y, y[0] * y[0] + y[1] * y[1] - y[2]
            lam += 1e-12 * (1.0 + abs(lam))
        raise DegenerateGeometryError("shifted system stays singular near the multiplier")

    upper = 1.0
    y, phi = eval_at(upper)
    doublings = 0
    while phi >= 0.0:
        if doublings == _MAX_DOUBLINGS:
            raise NoRootError("constraint residual never turned negative while expanding the bracket")
        upper *= 2.0
        doublings += 1
        y, phi = eval_at(upper)

    lo, hi = lower, upper
    best_y, best_phi, best_lam = y, phi, upper
    iterations = 0
    for iterations in range(1, max_iter + 1):
        lam = 0.5 * (lo + hi)
        y, phi = eval_at(lam)
        if abs(phi) < abs(best_phi):
            best_y, best_phi, best_lam = y, phi, lam
        if abs(phi) <= tol:
            break
        if phi > 0.0:
            lo = lam
        else:
            hi = lam

    x = np.array(best_y[:2]) + center
    # alpha re-expressed in the original frame; the residual is unchanged.
    alpha = best_y[2] + 2.0 * (center @ best_y[:2]) + center @ center
    return GtrsSolution(
        y=np.array([x[0], x[1], alpha]),
        x=x,
        lam=best_lam,
        phi_residual=best_phi,
        iterations=iterations,
    )
