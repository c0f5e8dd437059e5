"""Secure range-based localization under distance-enlargement spoofing.

Library layout:

- ``geometry``: circle intersections, pair classification, distances, collinearity
- ``measurement``: ranging model, attack model, per-anchor sample means
- ``detection``: intersection graph, honest-point clustering, thresholding
- ``gtrs``: exact squared-range solver via Newton steps on the multiplier
- ``pipeline``: the end-to-end secure localization algorithm and benchmarks
- ``bounds``: analytic detection-probability bounds
- ``baseline``: weighted least squares with a GLRT detector
- ``campaign``: seeded Monte Carlo campaigns and CSV emission
"""

from .baseline import estimate_attack_intensity, glrt_detect, glrt_threshold, wls_locate
from .bounds import DetectionBounds, detection_bounds, prob_abs_leq, prob_abs_less
from .campaign import CampaignConfig, CampaignStats, MethodDeltaStats, emit_csv, run_campaign
from .detection import (
    DetectionOutcome,
    HonestSet,
    IntersectionGraph,
    build_intersection_graph,
    detect,
    relative_errors,
    select_honest_points,
    wcm_estimate,
)
from .errors import DegenerateGeometryError, LocalizationError, NoRootError, UnlocalizableError
from .geometry import Circle, CircleRelation, classify_pair, intersect_circles
from .gtrs import GtrsSolution, GtrsSystem, build_system
from .measurement import (
    AttackSpec,
    MeasurementSet,
    Scene,
    generate_measurements,
    median_distance,
)
from .pipeline import (
    SecureLocResult,
    locate_no_detection,
    locate_perfect_detection,
    locate_secure,
)

__all__ = [
    "AttackSpec",
    "CampaignConfig",
    "CampaignStats",
    "Circle",
    "CircleRelation",
    "DegenerateGeometryError",
    "DetectionBounds",
    "DetectionOutcome",
    "GtrsSolution",
    "GtrsSystem",
    "HonestSet",
    "IntersectionGraph",
    "LocalizationError",
    "MeasurementSet",
    "MethodDeltaStats",
    "NoRootError",
    "Scene",
    "SecureLocResult",
    "UnlocalizableError",
    "build_intersection_graph",
    "build_system",
    "classify_pair",
    "detect",
    "detection_bounds",
    "emit_csv",
    "estimate_attack_intensity",
    "generate_measurements",
    "glrt_detect",
    "glrt_threshold",
    "intersect_circles",
    "locate_no_detection",
    "locate_perfect_detection",
    "locate_secure",
    "median_distance",
    "prob_abs_leq",
    "prob_abs_less",
    "relative_errors",
    "run_campaign",
    "select_honest_points",
    "wcm_estimate",
    "wls_locate",
]
