"""Workload inputs, warm-up and output checks for the seculoc benchmark.

Two workloads, both driven from one process with ``--threads 1``:

- ``campaign-n4``: ``seculoc rmse`` with all four methods, N=4, one
  attacker. Every set runs three or four GTRS solves, the bounds and the
  sample generator, while honest-point selection stays cheap, so solver,
  sampling and campaign-loop changes show here and selection changes do not.
- ``locate-mixed``: one caller in a closed loop makes one ``locate_secure``
  call per pre-generated measurement set, N drawn from {4, 5, 6, 8, 10}.
  It spans both sides of the exhaustive/greedy selection switch and uses the
  pipeline one call at a time, so selection changes show here, and so does
  a batched engine that speeds up campaigns but slows a single call.

The campaign workload repeats one fixed campaign per seed; ``locate-mixed``
repeats one fixed stream of calls. Outcome rates therefore depend on the
seed alone, while timings are taken over the repetitions.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import seculoc
import seculoc.cli
from seculoc.errors import DegenerateGeometryError, NoRootError, UnlocalizableError

LOCALIZATION_ERRORS = (UnlocalizableError, DegenerateGeometryError, NoRootError)

CSV_HEADER = [
    "method", "delta_m", "rmse_m", "detection_rate", "false_alarm_rate",
    "lpd1", "lpd2", "lp_d", "up_d", "trials", "excluded_trials",
]
_RATE_COLUMNS = ("detection_rate", "false_alarm_rate", "lpd1", "lpd2", "lp_d", "up_d")

METHODS = ("proposed", "no_detection", "perfect_detection", "wls_glrt")
DELTA_GRID = (0.0, 5.0, 10.0, 15.0)
MIXED_NS = (4, 5, 6, 8, 10)
REGION_SIDE = 20.0
SIGMA = 1.0
K_SAMPLES = 10
TAU = 0.3
N_ANCHORS = 4

# Inputs per repetition. A full repetition takes several seconds at the
# parent commit, so a run holds several of them. Campaign rates vary with the
# deployments drawn, so the campaign spends its sets on many deployments with
# one noise repeat each.
CAMPAIGN_DEPLOYMENTS = {"full": 400, "smoke": 2}
MIXED_CALLS = {"full": 1500, "smoke": 60}


class CheckError(Exception):
    """An output broke a documented property of the program."""


@dataclass(frozen=True)
class CampaignSpec:
    """``seculoc rmse`` with all four methods, N=4, one attacker, one repeat."""

    n_deployments: int

    @property
    def trials_per_cell(self) -> int:
        return self.n_deployments * N_ANCHORS

    @property
    def n_sets(self) -> int:
        return self.trials_per_cell * len(DELTA_GRID)

    def argv(self, seed: int, out: Path) -> list[str]:
        return [
            "rmse",
            "--methods", ",".join(METHODS),
            "--n-anchors", str(N_ANCHORS),
            "--delta-grid", ",".join(f"{d:g}" for d in DELTA_GRID),
            "--n-deployments", str(self.n_deployments),
            "--n-corruptions", "1",
            "--seed", str(seed),
            "--threads", "1",
            "--out", str(out),
        ]


# ----------------------------------------------------------------- campaigns


@dataclass
class CampaignOutcome:
    """Checked content of one campaign CSV."""

    sha256: str
    attempted: int       # method-trials
    excluded: int
    detect_hits: int     # proposed, delta > 0
    detect_attempted: int
    false_alarms: int    # proposed, every delta
    proposed_attempted: int


def run_campaign_cli(spec: CampaignSpec, seed: int, out: Path) -> None:
    """One campaign through the CLI entry point; its summary goes nowhere."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = seculoc.cli.main(spec.argv(seed, out))
    if code != 0:
        raise CheckError(f"seculoc rmse exited with {code}")


def _rate(row, col) -> float:
    value = float(row[col])
    if not (math.isnan(value) or 0.0 <= value <= 1.0):
        raise CheckError(f"{row['method']} at delta {row['delta_m']}: {col}={value} outside [0, 1]")
    return value


def check_campaign_csv(spec: CampaignSpec, path: Path) -> CampaignOutcome:
    """Parse a campaign CSV against the documented schema and the config.

    Every (method, delta) cell must be present exactly once, each cell must
    account for every attempted trial as kept or excluded, and every rate
    must lie in [0, 1] (or be nan where it does not apply).
    """
    data = path.read_bytes()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise CheckError(f"CSV header {reader.fieldnames} != {CSV_HEADER}")
        rows = list(reader)
    cells = {(r["method"], float(r["delta_m"])): r for r in rows}
    expected = {(m, d) for m in METHODS for d in DELTA_GRID}
    if len(rows) != len(expected) or set(cells) != expected:
        raise CheckError(f"CSV cells {sorted(cells)} != {sorted(expected)}")

    out = CampaignOutcome(hashlib.sha256(data).hexdigest(), 0, 0, 0, 0, 0, 0)
    for (method, delta), row in cells.items():
        trials, excluded = int(row["trials"]), int(row["excluded_trials"])
        if trials < 0 or excluded < 0 or trials + excluded != spec.trials_per_cell:
            raise CheckError(
                f"{method} at delta {delta}: trials {trials} + excluded {excluded}"
                f" != attempted {spec.trials_per_cell}"
            )
        rates = {col: _rate(row, col) for col in _RATE_COLUMNS}
        rmse = float(row["rmse_m"])
        if trials and not (math.isfinite(rmse) and rmse >= 0.0):
            raise CheckError(f"{method} at delta {delta}: rmse {rmse}")
        out.attempted += trials + excluded
        out.excluded += excluded
        if method != "proposed":
            continue
        if trials and math.isnan(rates["detection_rate"]):
            raise CheckError(f"proposed at delta {delta}: detection rate missing")
        # Rates are printed with 9 significant digits, so rounding recovers counts.
        hits = round(rates["detection_rate"] * trials) if trials else 0
        alarms = round(rates["false_alarm_rate"] * trials) if trials else 0
        out.proposed_attempted += trials + excluded
        out.false_alarms += alarms
        if delta > 0:
            out.detect_hits += hits
            out.detect_attempted += trials + excluded
    return out


# --------------------------------------------------------------- locate-mixed


@dataclass(frozen=True)
class LocateInput:
    anchors: np.ndarray
    mset: seculoc.MeasurementSet
    attacker: int
    delta: float

    @property
    def n(self) -> int:
        return self.anchors.shape[0]


def _deployment(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform target and anchors, redrawn while an anchor sits on the target
    or the anchors are collinear (the campaign runner's admission rule)."""
    while True:
        target = rng.uniform(0.0, REGION_SIDE, 2)
        anchors = rng.uniform(0.0, REGION_SIDE, (n, 2))
        if np.linalg.norm(anchors - target, axis=1).min() < 0.5:
            continue
        sv = np.linalg.svd(anchors - anchors.mean(axis=0), compute_uv=False)
        if sv[1] > 1e-6 * sv[0]:
            return target, anchors


def _draw(rng: np.random.Generator, n: int, attacker: int, delta: float) -> LocateInput:
    target, anchors = _deployment(rng, n)
    mean = np.linalg.norm(anchors - target, axis=1)
    mean[attacker] += delta
    samples = np.maximum(mean[:, None] + rng.normal(0.0, SIGMA, (n, K_SAMPLES)), 1e-6)
    return LocateInput(anchors, seculoc.MeasurementSet(samples, SIGMA), attacker, delta)


def mixed_inputs(seed: int, n_calls: int) -> list[LocateInput]:
    """Measurement sets drawn here, not by the program's own generator.

    Every N and every delta appears equally often (in shuffled order), so the
    mix, and with it the latency percentiles, varies less from seed to seed.
    """
    rng = np.random.default_rng([seed, 0x10CA7E])
    ns = rng.permutation(np.resize(MIXED_NS, n_calls))
    deltas = rng.permutation(np.resize(DELTA_GRID, n_calls))
    return [_draw(rng, n, int(rng.integers(n)), delta) for n, delta in zip(ns.tolist(), deltas.tolist())]


@dataclass
class LocateOutcome:
    error: str | None
    x_final: np.ndarray | None = None
    attackers: frozenset[int] = frozenset()


def locate_outcome(inp: LocateInput, result=None, error: Exception | None = None) -> LocateOutcome:
    """Check one call's result; only the library's own errors count as a trial failure."""
    if error is not None:
        if not isinstance(error, LOCALIZATION_ERRORS):
            raise CheckError(f"locate_secure raised {type(error).__name__}: {error}") from error
        return LocateOutcome(type(error).__name__)
    x = np.asarray(result.x_final, dtype=float)
    if x.shape != (2,) or not np.isfinite(x).all():
        raise CheckError(f"locate_secure returned x_final={result.x_final!r}")
    attackers = frozenset(int(i) for i in result.attacker_set)
    if not attackers <= set(range(inp.n)):
        raise CheckError(f"attacker set {sorted(attackers)} outside 0..{inp.n - 1}")
    return LocateOutcome(None, x, attackers)


def outcome_digest(outcomes: list[LocateOutcome]) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        if o.error:
            h.update(o.error.encode())
        else:
            h.update(o.x_final.tobytes())
            h.update(bytes(sorted(o.attackers)))
        h.update(b"\n")
    return h.hexdigest()


# ------------------------------------------------------------------- warm-up


def warm_up(out_dir: Path) -> None:
    """Touch every code path once so lazy imports and caches are filled.

    Same fixed inputs for every workload: a one-deployment campaign with all
    four methods and one ``locate_secure`` call per anchor count of the mixed
    stream.
    """
    run_campaign_cli(CampaignSpec(n_deployments=1), 0, out_dir / "warm-up.csv")
    rng = np.random.default_rng(0)
    for n in MIXED_NS:
        inp = _draw(rng, n, 0, 0.0)
        try:
            seculoc.locate_secure(inp.anchors, inp.mset, TAU)
        except LOCALIZATION_ERRORS:
            pass
