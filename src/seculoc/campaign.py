"""Seeded Monte Carlo campaigns over random deployments and attacker rotations.

A campaign sweeps a grid of attack intensities. For every deployment the
target and anchors are drawn uniformly inside a square region (degenerate
layouts are resampled); every admissible attacker assignment is then applied
a fixed number of times with fresh noise, and every requested method runs on
the same measurement set. Per-trial random streams are derived from the
campaign seed together with the deployment, assignment, repeat, and grid
indices, so results do not depend on execution order or worker count.

Detection is scored as flagging the true attacker (for pair attacks, exact
identification of the pair); a false alarm is any honest anchor flagged.
Trials a method cannot localize are counted and excluded from that method's
statistics. Analytic detection bounds are averaged over single-attacker
trials of the proposed method in which the thresholding stage actually ran
with the attacker in play, evaluated at each trial's realized initial
estimate and measured-distance median with the sample-mean noise level; the
threshold-stage detection rate over that same population is reported next
to the bounds, since the geometric pre-filter detects through a mechanism
the bounds deliberately ignore.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields
from numbers import Real

import numpy as np

from .baseline import glrt_detect, wls_locate
from .bounds import detection_bounds
from .errors import LocalizationError
from .geometry import collinear_scatter, distances_to
from .measurement import AttackSpec, Scene, generate_measurements, median_distance
from .pipeline import locate_no_detection, locate_perfect_detection, locate_secure

_DETECTING = ("proposed", "wls_glrt")

# Stream tags keep deployment sampling and trial noise on disjoint substreams.
_DEPLOY_STREAM = 1
_TRIAL_STREAM = 2

_MIN_ANCHOR_TARGET_GAP = 0.5
# Largest region side, noise level or attack intensity, in meters: a 20 m
# scene scaled by 1e50 still solves exactly, and from about 1e52 the exact
# solver's secular function overflows.
_MAX_LENGTH = 1e50

# Accumulator field layout per (method, delta) cell.
_CELL = (
    _SQERR, _OK, _EXCLUDED, _HITS, _FAS,
    _LPD1, _LPD2, _LPD, _UPD, _NBOUNDS, _THRESH_HITS,
) = range(11)
_N_FIELDS = len(_CELL)


# One function per method: (cfg, scene, attack_set, mset) -> (position, flagged
# anchors or None, SecureLocResult or None). Each looks its entry point up as a
# module global when called, so a wrapper patched into this module sees every trial.
def _proposed(cfg, scene, attack_set, mset):
    res = locate_secure(scene.anchors, mset, cfg.tau)
    return res.x_final, res.attacker_set, res


def _no_detection(cfg, scene, attack_set, mset):
    return locate_no_detection(scene.anchors, mset), None, None


def _perfect_detection(cfg, scene, attack_set, mset):
    return locate_perfect_detection(scene.anchors, mset, attack_set), None, None


def _wls_glrt(cfg, scene, attack_set, mset):
    x_hat = wls_locate(scene.anchors, mset.means)
    return x_hat, glrt_detect(x_hat, mset, scene.anchors, cfg.p_fa), None


_METHODS = {
    "proposed": _proposed,
    "no_detection": _no_detection,
    "perfect_detection": _perfect_detection,
    "wls_glrt": _wls_glrt,
}
METHOD_NAMES = tuple(_METHODS)


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign; defaults are the desk-scale operating point.

    The CLI derives one flag and one INI key per field, typed by the default
    and documented by the field's ``help`` metadata.
    """

    region_side: float = field(default=20.0, metadata={"help": "side of the square region in meters"})
    n_anchors: int = field(default=4, metadata={"help": "number of anchors"})
    n_deployments: int = field(default=100, metadata={"help": "random deployments"})
    n_corruptions: int = field(default=20, metadata={"help": "noise repeats per attacker assignment"})
    k_samples: int = field(default=10, metadata={"help": "range samples per anchor"})
    sigma: float = field(default=1.0, metadata={"help": "per-sample noise std in meters"})
    tau: float = field(default=0.3, metadata={"help": "relative-error detection threshold in [0, 1]"})
    delta_grid: tuple[float, ...] = field(default=(0.0, 5.0, 10.0, 15.0), metadata={
        "help": "comma-separated attack intensities in meters; '...' continues the "
                "progression (0,5,10,15 or 0,1,...,15)"})
    attackers_per_trial: int = field(default=1, metadata={"help": "attackers per trial (1 or 2)"})
    seed: int = field(default=0, metadata={"help": "campaign seed"})
    methods: tuple[str, ...] = field(default=("proposed",), metadata={
        "help": f"comma-separated subset of {','.join(METHOD_NAMES)}"})
    p_fa: float = field(default=0.05, metadata={"help": "GLRT false-alarm target"})

    def __post_init__(self):
        # A string is a sequence too, of one-letter methods or digit intensities.
        for name in ("delta_grid", "methods"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise ValueError(f"{name} must be a sequence, not {value!r}")
            object.__setattr__(self, name, tuple(value))
        if not all(isinstance(v, Real) for v in self.delta_grid):
            raise ValueError(f"delta_grid values must be real numbers, got {self.delta_grid!r}")
        if not all(isinstance(m, str) for m in self.methods):
            raise ValueError(f"methods must be names, got {self.methods!r}")
        object.__setattr__(self, "delta_grid", tuple(map(float, self.delta_grid)))
        # A field with an int default holds an int, and one with a float
        # default a float; numpy numbers become Python ones.
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int:
                try:
                    object.__setattr__(self, f.name, operator.index(value))
                except TypeError:
                    raise ValueError(f"{f.name} must be an integer, got {value!r}") from None
            elif type(f.default) is float:
                if not isinstance(value, Real):
                    raise ValueError(f"{f.name} must be a real number, got {value!r}")
                object.__setattr__(self, f.name, float(value))
        problems = []
        if not (math.isfinite(self.region_side) and self.region_side > 0):
            problems.append("region_side must be positive and finite")
        elif self.region_side > _MAX_LENGTH:
            problems.append(f"region_side must be at most {_MAX_LENGTH:g} m, got {self.region_side:g}")
        if self.n_anchors < 4:
            problems.append("n_anchors must be at least 4")
        if self.attackers_per_trial not in (1, 2):
            problems.append("attackers_per_trial must be 1 or 2")
        if self.attackers_per_trial == 2 and self.n_anchors < 5:
            problems.append("two-attacker campaigns need at least 5 anchors")
        if self.n_deployments < 1 or self.n_corruptions < 1:
            problems.append("deployment and corruption counts must be at least 1")
        if self.k_samples < 1:
            problems.append("k_samples must be at least 1")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            problems.append("sigma must be positive and finite")
        elif self.sigma > _MAX_LENGTH:
            problems.append(f"sigma must be at most {_MAX_LENGTH:g} m, got {self.sigma:g}")
        if not 0.0 <= self.tau <= 1.0:
            problems.append("tau must lie in [0, 1]")
        if self.seed < 0:
            problems.append("seed must be non-negative")
        if not self.delta_grid:
            problems.append("delta_grid must not be empty")
        elif not all(math.isfinite(v) and v >= 0 for v in self.delta_grid):
            problems.append("delta_grid values must be finite and non-negative")
        elif max(self.delta_grid) > _MAX_LENGTH:
            problems.append(f"delta_grid values must be at most {_MAX_LENGTH:g} m, got {max(self.delta_grid):g}")
        if len(set(self.delta_grid)) != len(self.delta_grid):
            problems.append("delta_grid values must not repeat")
        if not self.methods:
            problems.append("at least one method is required")
        if len(set(self.methods)) != len(self.methods):
            problems.append("methods must not repeat")
        unknown = [m for m in self.methods if m not in METHOD_NAMES]
        if unknown:
            problems.append(f"unknown methods {unknown}; choose from {METHOD_NAMES}")
        if not 0.0 < self.p_fa < 1.0:
            problems.append("p_fa must lie strictly inside (0, 1)")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class MethodDeltaStats:
    """Aggregates for one (method, attack intensity) cell.

    The fields up to ``excluded_trials`` are the CSV row, in column order.
    ``threshold_detection_rate`` and ``bound_trials`` describe the
    sub-population of trials whose thresholding stage ran with the attacker
    in play; the analytic bound columns average over exactly that
    population. They are diagnostics and not part of the CSV schema.
    """

    method: str
    delta: float
    rmse: float
    detection_rate: float
    false_alarm_rate: float
    lpd1: float
    lpd2: float
    lp_d: float
    up_d: float
    trials: int
    excluded_trials: int
    threshold_detection_rate: float = math.nan
    bound_trials: int = 0


@dataclass
class CampaignStats:
    rows: list[MethodDeltaStats] = field(default_factory=list)
    resampled_deployments: int = 0

    def get(self, method: str, delta: float) -> MethodDeltaStats:
        for row in self.rows:
            if row.method == method and row.delta == delta:
                return row
        raise KeyError(f"no row for {method!r} at delta={delta}")


def _attack_sets(cfg: CampaignConfig) -> list[frozenset[int]]:
    idx = range(cfg.n_anchors)
    if cfg.attackers_per_trial == 1:
        return [frozenset({i}) for i in idx]
    return [frozenset(p) for p in itertools.combinations(idx, 2)]


def _degenerate(target: np.ndarray, anchors: np.ndarray) -> bool:
    if min(distances_to(anchors.tolist(), target.tolist())) < _MIN_ANCHOR_TARGET_GAP:
        return True
    centred = anchors - anchors.mean(axis=0)
    (sxx, sxy), (_, syy) = (centred.T @ centred).tolist()
    return collinear_scatter(sxx, sxy, syy)


def _stream(*indices: int) -> np.random.Generator:
    """``np.random.default_rng(list(indices))``, seeded from 32-bit words.

    Each non-negative index is split into little-endian 32-bit words, as
    ``SeedSequence`` splits a Python integer, so the stream is the same; a
    ``uint32`` array skips most of the cost of converting a Python list.
    """
    words = []
    for value in indices:
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


def _sample_deployment(cfg: CampaignConfig, dep: int) -> tuple[Scene, int]:
    rng = _stream(cfg.seed, _DEPLOY_STREAM, dep)
    side = cfg.region_side
    for attempt in range(1000):
        target = rng.uniform(0.0, side, 2)
        anchors = rng.uniform(0.0, side, (cfg.n_anchors, 2))
        if not _degenerate(target, anchors):
            return Scene(target=target, anchors=anchors), attempt
    raise ValueError(
        f"deployment {dep}: 1000 draws placed no layout of n_anchors={cfg.n_anchors} anchors, "
        f"each at least {_MIN_ANCHOR_TARGET_GAP} m from the target and not all collinear, "
        f"in a square of region_side={side} m"
    )


def _trial_bounds(scene, attack_set, delta, x_init, mset, tau):
    m_d = median_distance(mset.means)
    anchors = scene.anchors.tolist()
    mu = distances_to(anchors, scene.target.tolist())
    attacker = next(iter(attack_set))
    mu[attacker] += delta
    mu = [(t - e) / m_d for t, e in zip(mu, distances_to(anchors, x_init.tolist()))]
    sigma_y = mset.sigma / (math.sqrt(mset.samples.shape[1]) * m_d)
    return detection_bounds(mu, sigma_y, attacker, tau)


def _run_trial(cfg, scene, attack_set, delta, mset, method, cell):
    """Run one method on one measurement set and fold results into a cell."""
    try:
        x_hat, detected, res = _METHODS[method](cfg, scene, attack_set, mset)
    except LocalizationError:
        cell[_EXCLUDED] += 1
        return

    (x, y), (tx, ty) = x_hat.tolist(), scene.target.tolist()
    dx, dy = x - tx, y - ty
    cell[_SQERR] += dx * dx + dy * dy
    cell[_OK] += 1
    if detected is not None:
        if cfg.attackers_per_trial == 1:
            cell[_HITS] += attack_set <= detected
        else:
            cell[_HITS] += detected == attack_set
        cell[_FAS] += bool(detected - attack_set)
    if (
        res is not None
        and cfg.attackers_per_trial == 1
        and res.x_init is not None
        and not (attack_set & res.geometric_flags)
    ):
        cell[_LPD1:_UPD + 1] += _trial_bounds(scene, attack_set, delta, res.x_init, mset, cfg.tau)
        cell[_NBOUNDS] += 1
        # The event the bounds describe: the threshold removes the attacker first.
        cell[_THRESH_HITS] += res.removed[:1] == tuple(attack_set)


def _deployment_partial(args: tuple[CampaignConfig, int]):
    """All trials of one deployment; returns (accumulator, resample count)."""
    cfg, dep = args
    scene, resamples = _sample_deployment(cfg, dep)
    sets = _attack_sets(cfg)
    acc = np.zeros((len(cfg.methods), len(cfg.delta_grid), _N_FIELDS))
    for corr, attack_set in enumerate(sets):
        for rep in range(cfg.n_corruptions):
            for di, delta in enumerate(cfg.delta_grid):
                rng = _stream(cfg.seed, _TRIAL_STREAM, dep, corr, rep, di)
                mset = generate_measurements(
                    scene, AttackSpec(attack_set, delta), cfg.sigma, cfg.k_samples, rng
                )
                for mi, method in enumerate(cfg.methods):
                    _run_trial(cfg, scene, attack_set, delta, mset, method, acc[mi, di])
    return acc, resamples


def _ratio(total: float, count: int) -> float:
    return total / count if count else math.nan


def _finalize(cfg: CampaignConfig, acc: np.ndarray) -> list[MethodDeltaStats]:
    rows = []
    for mi, method in enumerate(cfg.methods):
        for di, delta in enumerate(cfg.delta_grid):
            cell = acc[mi, di]
            ok = int(cell[_OK])
            detecting = ok if method in _DETECTING else 0
            nb = int(cell[_NBOUNDS])
            rows.append(
                MethodDeltaStats(
                    method=method,
                    delta=delta,
                    rmse=math.sqrt(_ratio(cell[_SQERR], ok)),
                    detection_rate=_ratio(cell[_HITS], detecting),
                    false_alarm_rate=_ratio(cell[_FAS], detecting),
                    lpd1=_ratio(cell[_LPD1], nb),
                    lpd2=_ratio(cell[_LPD2], nb),
                    lp_d=_ratio(cell[_LPD], nb),
                    up_d=_ratio(cell[_UPD], nb),
                    trials=ok,
                    excluded_trials=int(cell[_EXCLUDED]),
                    threshold_detection_rate=_ratio(cell[_THRESH_HITS], nb),
                    bound_trials=nb,
                )
            )
    return rows


def run_campaign(cfg: CampaignConfig, threads: int = 1) -> CampaignStats:
    """Execute a campaign; identical results for any worker count.

    ``threads`` is the number of worker processes, an integer of at least 1.

    Per-deployment partial sums are folded in deployment order, so the
    floating-point reduction is the same whether trials run inline or on a
    process pool.
    """
    try:
        threads = operator.index(threads)
    except TypeError:
        raise ValueError(f"threads must be an integer, got {threads!r}") from None
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    jobs = [(cfg, dep) for dep in range(cfg.n_deployments)]
    # A worker without a deployment would only cost a fork.
    workers = min(threads, cfg.n_deployments)
    if workers > 1:
        chunk = max(1, cfg.n_deployments // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_deployment_partial, jobs, chunksize=chunk))
    else:
        partials = [_deployment_partial(job) for job in jobs]

    total = np.zeros((len(cfg.methods), len(cfg.delta_grid), _N_FIELDS))
    resamples = 0
    for acc, rs in partials:
        total += acc
        resamples += rs
    return CampaignStats(rows=_finalize(cfg, total), resampled_deployments=resamples)


# One column per leading MethodDeltaStats field, in field order.
_CSV_COLUMNS = (
    "method", "delta_m", "rmse_m", "detection_rate", "false_alarm_rate",
    "lpd1", "lpd2", "lp_d", "up_d", "trials", "excluded_trials",
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def emit_csv(stats: CampaignStats, path) -> None:
    """Write one row per (method, delta): UTF-8, LF endings, 9 significant digits."""
    lines = [",".join(_CSV_COLUMNS)]
    for r in stats.rows:
        lines.append(",".join(map(_fmt, astuple(r)[:len(_CSV_COLUMNS)])))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write campaign CSV to {path}: {exc}") from exc
