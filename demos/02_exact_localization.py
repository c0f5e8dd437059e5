"""Exact squared-range localization on the secular function, next to its fragile cousin.

Squared ranges make the problem linear in (x, ||x||^2) except for the tie
between the two. Dropping the tie gives ordinary weighted least squares,
which an enlarged range can throw far off. Keeping it yields a quadratic
problem with a single quadratic constraint whose multiplier is found by
safeguarded Newton steps on a strictly decreasing residual function; this demo prints that
function, the solver trace, and an attacked comparison of both estimators.

Run:  python demos/02_exact_localization.py
"""

import numpy as np

from seculoc.baseline import wls_locate
from seculoc.gtrs import build_system, solve
from seculoc.measurement import AttackSpec, Scene, generate_measurements

rng = np.random.default_rng(3)

scene = Scene(
    target=np.array([6.0, 13.0]),
    anchors=np.array([[2.0, 2.0], [17.0, 3.0], [4.0, 18.0], [15.0, 16.0]]),
)
mset = generate_measurements(scene, AttackSpec(), sigma=1.0, k_samples=10, rng=rng)
d = mset.means

system = build_system(scene.anchors, d)
print("=== the multiplier residual function is strictly decreasing ===")
# The lifted system stays positive definite for lambda above -4 times the
# smaller eigenvalue of the weighted anchor scatter about its centroid.
sxx, sxy, syy = system.scatter
pole = 4.0 * np.linalg.eigvalsh([[sxx, sxy], [sxy, syy]])[0]
print(f"admissible interval: ({-pole:.4f}, inf)")
# Weighted normal equations of the lifted variable y = (x, alpha): design rows
# (-2a, 1), right-hand side d^2 - ||a||^2, normalized inverse-distance weights.
design = np.column_stack([-2.0 * scene.anchors, np.ones(len(d))])
w = (1.0 / d) / (1.0 / d).sum()
gram = design.T @ (w[:, None] * design)
b = design.T @ (w * (d * d - (scene.anchors ** 2).sum(axis=1)))
for lam in (-0.9 * pole, 0.0, 2.0, 20.0, 200.0):
    y = np.linalg.solve(gram + lam * np.diag([1.0, 1.0, 0.0]), b + [0.0, 0.0, 0.5 * lam])
    print(f"lambda {lam:10.3f}  constraint residual {y[0]**2 + y[1]**2 - y[2]:14.4f}")

print("\n=== exact solve ===")
sol = solve(system)
print(f"multiplier {sol.lam:.6f} after {sol.iterations} evaluations, residual {sol.phi_residual:.1e}")
print(f"estimate {np.round(sol.x, 3)}, true target {scene.target}")

print("\n=== attacked comparison over 500 fresh scenes ===")
se_exact = se_wls = 0.0
for _ in range(500):
    t = rng.uniform(0.5, 19.5, 2)
    while True:
        a = rng.uniform(0, 20, (4, 2))
        if np.linalg.norm(a - t, axis=1).min() > 0.5:
            break
    sc = Scene(target=t, anchors=a)
    m = generate_measurements(sc, AttackSpec(frozenset({0}), 12.0), sigma=1.0, k_samples=10, rng=rng)
    dd = m.means
    se_exact += np.sum((solve(build_system(sc.anchors, dd)).x - t) ** 2)
    se_wls += np.sum((wls_locate(sc.anchors, dd) - t) ** 2)
print(f"constrained solver rmse: {np.sqrt(se_exact / 500):7.2f} m  (attacked range still in the data)")
print(f"unconstrained wls rmse:  {np.sqrt(se_wls / 500):7.2f} m")
print("the constraint tames the squared-range blowup; detection removes it entirely")
