"""Spans and timing stamps recorded from outside the library.

Both recorders work by replacing a function attribute in the module that
calls it (``seculoc.pipeline.solve``, not ``seculoc.gtrs.solve``) and
restoring it afterwards, so the library itself carries no timing code.

``Tracer`` records one span per wrapped call: layer, start, end, parent
span, measurement-set id and anchor count. A layer's self time is its span
minus the spans of its direct children. ``Stamps`` is the much lighter
recorder kept in the untraced run: the start of every measurement set and
the duration of every ``locate_secure`` call.
"""

from __future__ import annotations

import csv
import importlib
import math
import time
from collections import Counter, defaultdict

import numpy as np

from workloads import MIXED_NS

_ns = time.perf_counter_ns
# |phi| above this is an unconverged solve (the solver's default tolerance).
_PHI_TOL = 1e-10


class TraceGuardError(RuntimeError):
    """A wrapped name vanished, or a layer that must run recorded no call."""


class _Patches:
    """Module attributes replaced inside each ``with`` block, restored after it.

    Every name is looked up when it is registered, so a name that has
    disappeared from its calling module fails before anything runs.
    """

    def __init__(self):
        self._plan: list[tuple[object, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module_name: str, attr: str, make):
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise TraceGuardError(f"{module_name}.{attr} no longer exists; the trace plan is stale")
        self._plan.append((module, attr, make))

    def __enter__(self):
        for module, attr, make in self._plan:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ------------------------------------------------------------------ tracing


def _solve_info(args, kwargs, result):
    return (result.iterations, abs(result.phi_residual)) if result is not None else None


def _select_space(args, kwargs, result):
    graph, k = args
    return math.comb(len(graph.points), k) * 2 ** k if k >= 0 else 0


def _branch(args, kwargs, result):
    if result is None:
        return None
    if result.x_init is None:
        return "prefilter"
    return "gtrs_kept" if result.chose_gtrs else "init_kept"


# (module the caller looks the name up in, name, layer, info extractor)
_CORE_PLAN = [
    ("seculoc.pipeline", "build_intersection_graph", "detection.graph", None),
    ("seculoc.detection", "select_honest_points", "detection.select", _select_space),
    ("seculoc.pipeline", "build_system", "gtrs.build", None),
    ("seculoc.pipeline", "solve", "gtrs.solve", _solve_info),
]
_CAMPAIGN_PLAN = [
    ("seculoc.cli", "main", "cli", None),
    ("seculoc.cli", "run_campaign", "campaign", None),
    ("seculoc.campaign", "generate_measurements", "measurement.generate", None),
    ("seculoc.campaign", "locate_secure", "pipeline.locate_secure", _branch),
    ("seculoc.campaign", "locate_no_detection", "pipeline.locate_no_detection", None),
    ("seculoc.campaign", "locate_perfect_detection", "pipeline.locate_perfect_detection", None),
    ("seculoc.campaign", "wls_locate", "baseline.wls", None),
    ("seculoc.campaign", "glrt_detect", "baseline.glrt", None),
    ("seculoc.campaign", "detection_bounds", "bounds", None),
    ("seculoc.baseline", "build_system", "gtrs.build", None),
]
_MIXED_PLAN = [("seculoc.pipeline", "locate_secure", "pipeline.locate_secure", _branch)]
_COUNTED = [
    ("seculoc.detection", "classify_pair", "geometry.classify"),
    ("seculoc.detection", "intersect_circles", "geometry.intersect"),
]

# Layers that must record at least one call per repetition of each workload.
_MIXED_LAYERS = {"pipeline.locate_secure", "detection.graph", "detection.select", "gtrs.build",
                 "gtrs.solve", "geometry.classify", "geometry.intersect"}
EXPECTED_LAYERS = {
    "campaign-n4": _MIXED_LAYERS | {
        "cli", "campaign", "measurement.generate", "pipeline.locate_no_detection",
        "pipeline.locate_perfect_detection", "baseline.wls", "baseline.glrt", "bounds"},
    "locate-mixed": _MIXED_LAYERS,
}


class Tracer(_Patches):
    """Span recorder; ``set_id`` and ``n`` tag every span opened after they change.

    A span is ``[layer, start_ns, end_ns, parent, set_id, n, error, info]``.
    """

    def __init__(self, workload: str):
        super().__init__()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.set_id = -1
        self.n = 0
        self._stack: list[int] = []
        campaign = workload != "locate-mixed"
        for module, attr, layer, info in (_CAMPAIGN_PLAN if campaign else _MIXED_PLAN) + _CORE_PLAN:
            self.patch(module, attr, lambda f, layer=layer, info=info: self._span(f, layer, info))
        for module, attr, layer in _COUNTED:
            self.patch(module, attr, lambda f, layer=layer: self._count(f, layer))

    def _span(self, func, layer, info):
        spans, stack = self.spans, self._stack
        new_set = layer == "measurement.generate"

        def wrapper(*args, **kwargs):
            if new_set:
                self.set_id += 1
            span = [layer, 0, 0, stack[-1] if stack else -1, self.set_id, self.n, None, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = _ns()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = _ns()
                stack.pop()
                if info is not None:
                    span[7] = info(args, kwargs, result)

        return wrapper

    def write(self, path) -> None:
        """Spans as CSV, one row per call, in the order the calls began."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["layer", "start_ns", "end_ns", "parent", "set_id", "n", "error"])
            out.writerows(span[:7] for span in self.spans)

    def _count(self, func, layer):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return func(*args, **kwargs)

        return wrapper


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, reps: int, workload: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from ``reps`` traced repetitions of one workload.

    Counts and self times are per repetition; percentiles pool every call.
    A layer that made no call reports 0. Raises TraceGuardError when a
    layer the workload must exercise recorded nothing.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for layer, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    dur_us: dict[str, list[float]] = defaultdict(list)
    dur_us_by_n: dict[tuple[str, int], list[float]] = defaultdict(list)
    self_ns: Counter = Counter()
    calls: Counter = Counter(tracer.counts)
    info: dict[str, list] = defaultdict(list)
    errors: Counter = Counter()
    for idx, (layer, t0, t1, parent, _set_id, n, error, extra) in enumerate(spans):
        group = layer.split(".")[0]
        calls[layer] += 1
        self_ns[group] += t1 - t0 - child_ns[idx]
        if error is None:
            dur_us[layer].append((t1 - t0) / 1e3)
            dur_us_by_n[layer, n].append((t1 - t0) / 1e3)
        elif group == "pipeline":
            errors[error] += 1
        if extra is not None:
            info[layer].append(extra)

    missing = sorted(layer for layer in EXPECTED_LAYERS[workload] if calls[layer] == 0)
    if missing:
        raise TraceGuardError(f"{workload}: no call recorded for {', '.join(missing)}")

    iters = [it for it, _ in info["gtrs.solve"]]
    branches = Counter(info["pipeline.locate_secure"])
    per_rep = 1.0 / reps
    m: dict[str, tuple[float, str]] = {
        "gtrs.solve_calls": (calls["gtrs.solve"] * per_rep, "count"),
        "gtrs.solve_us_p50": (_pct(dur_us["gtrs.solve"], 50), "us"),
        "gtrs.solve_iters_mean": (float(np.mean(iters)) if iters else 0.0, "iter"),
        "gtrs.solve_iters_max": (float(max(iters, default=0)), "iter"),
        "gtrs.solve_unconverged": (
            sum(phi > _PHI_TOL for _, phi in info["gtrs.solve"]) * per_rep, "count"),
        "gtrs.build_us_p50": (_pct(dur_us["gtrs.build"], 50), "us"),
        "detection.select_calls": (calls["detection.select"] * per_rep, "count"),
        "detection.select_us_p50": (_pct(dur_us["detection.select"], 50), "us"),
        "detection.select_us_p99": (_pct(dur_us["detection.select"], 99), "us"),
        "detection.select_space": (sum(info["detection.select"]) * per_rep, "count"),
        "detection.graph_us_p50": (_pct(dur_us["detection.graph"], 50), "us"),
        "geometry.classify_calls": (calls["geometry.classify"] * per_rep, "count"),
        "geometry.intersect_calls": (calls["geometry.intersect"] * per_rep, "count"),
        "pipeline.locate_secure_us_p50": (_pct(dur_us["pipeline.locate_secure"], 50), "us"),
        "pipeline.locate_secure_us_p99": (_pct(dur_us["pipeline.locate_secure"], 99), "us"),
        "pipeline.self_s": (self_ns["pipeline"] * per_rep / 1e9, "s"),
        "pipeline.branch_prefilter": (branches["prefilter"] * per_rep, "count"),
        "pipeline.branch_gtrs_kept": (branches["gtrs_kept"] * per_rep, "count"),
        "pipeline.branch_init_kept": (branches["init_kept"] * per_rep, "count"),
        "pipeline.failed_unlocalizable": (errors["UnlocalizableError"] * per_rep, "count"),
        "pipeline.failed_degenerate": (errors["DegenerateGeometryError"] * per_rep, "count"),
        "pipeline.failed_noroot": (errors["NoRootError"] * per_rep, "count"),
    }
    for layer, name in (("pipeline.locate_secure", "pipeline.locate_secure_us_p50"),
                        ("detection.select", "detection.select_us_p50"),
                        ("gtrs.solve", "gtrs.solve_us_p50")):
        for n in MIXED_NS:
            m[f"{name}.n{n}"] = (_pct(dur_us_by_n[layer, n], 50), "us")
    m.update({
        "measurement.generate_us_p50": (_pct(dur_us["measurement.generate"], 50), "us"),
        "bounds.calls": (calls["bounds"] * per_rep, "count"),
        "bounds.us_p50": (_pct(dur_us["bounds"], 50), "us"),
        "campaign.self_s": (self_ns["campaign"] * per_rep / 1e9, "s"),
        "baseline.wls_us_p50": (_pct(dur_us["baseline.wls"], 50), "us"),
        "baseline.glrt_us_p50": (_pct(dur_us["baseline.glrt"], 50), "us"),
        "cli.self_s": (self_ns["cli"] * per_rep / 1e9, "s"),
    })
    return m


# ------------------------------------------------------------------- stamps


class Stamps(_Patches):
    """Set-start stamps and ``locate_secure`` durations inside a campaign."""

    def __init__(self):
        super().__init__()
        self.set_starts: list[int] = []
        self.locate: list[tuple[int, bool]] = []
        self.patch("seculoc.campaign", "generate_measurements", self._stamp)
        self.patch("seculoc.campaign", "locate_secure", self._time)

    def _stamp(self, func):
        starts = self.set_starts

        def wrapper(*args, **kwargs):
            starts.append(_ns())
            return func(*args, **kwargs)

        return wrapper

    def _time(self, func):
        out = self.locate

        def wrapper(*args, **kwargs):
            t0 = _ns()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                out.append((_ns() - t0, False))
                raise
            out.append((_ns() - t0, True))
            return result

        return wrapper
