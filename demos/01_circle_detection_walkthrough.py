"""Walk through the attacker-detection stage on a single scene.

A target sits among four anchors. Each anchor measures its range; one anchor's
measurement is enlarged by an external attacker. The detection stage draws a
circle per anchor, intersects all pairs, picks the most compact cluster of
intersection points as presumably honest, averages them into an initial
position estimate, and thresholds the relative disagreement between measured
and re-estimated ranges.

Run:  python demos/01_circle_detection_walkthrough.py
"""

import itertools

import numpy as np

from seculoc.detection import build_intersection_graph, detect
from seculoc.measurement import AttackSpec, Scene, generate_measurements

rng = np.random.default_rng(7)

scene = Scene(
    target=np.array([8.0, 11.0]),
    anchors=np.array([[1.0, 1.0], [18.0, 2.0], [3.0, 17.0], [16.0, 15.0]]),
)
attacker = 2
delta = 9.0

print("=== scene ===")
print(f"target  {scene.target}")
for i, a in enumerate(scene.anchors):
    mark = "  <-- attacker enlarges this range" if i == attacker else ""
    print(f"anchor {i} at {a}, true range {np.linalg.norm(a - scene.target):.2f} m{mark}")

mset = generate_measurements(scene, AttackSpec(frozenset({attacker}), delta), sigma=0.3, k_samples=10, rng=rng)
d = mset.means
print(f"\nmeasured ranges (sample means): {np.round(d, 2)}")

print("\n=== circle intersections ===")
graph = build_intersection_graph(scene.anchors, d)
for pair, pts in zip(graph.pairs, graph.points):
    print(f"pair {pair}: points {np.round(pts[0], 2)} / {np.round(pts[1], 2)}")
# Every pair absent from graph.pairs has circles that do not meet.
for pair in sorted(set(itertools.combinations(range(len(d)), 2)) - set(graph.pairs)):
    print(f"pair {pair}: circles do not meet")
if graph.geometric_flags:
    print(f"geometrically impossible circles (flagged corrupted): {set(graph.geometric_flags)}")
else:
    print("no circle is impossibly large on its own; clustering must decide")

print("\n=== honest cluster and initial estimate ===")
outcome = detect(scene.anchors, d, tau=0.3)
for pair, p in zip(outcome.honest.pairs, outcome.honest.points):
    print(f"kept point {np.round(p, 2)} from pair {pair}")
x_init = outcome.x_init
print(f"inverse-distance weighted center: {np.round(x_init, 3)} "
      f"(true target {scene.target}, off by {np.linalg.norm(x_init - scene.target):.2f} m)")

print("\n=== thresholded verdict ===")
print(f"relative errors: {np.round(outcome.relative_errors, 3)} (threshold 0.3)")
print(f"flagged anchors: {set(outcome.attacker_set) or '{}'}")
print("correct!" if outcome.attacker_set == frozenset({attacker}) else "missed the attacker")
