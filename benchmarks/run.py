"""seculoc benchmark: campaign throughput and per-call locate latency.

Run from the repository root; the library is imported from ``src/``:

    python3 benchmarks/run.py --workload campaign-n4 --seed 1 --seconds 45 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced repetitions of the same inputs and prints
the per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. ``attempted`` counts measurement sets processed; ``failed`` is
nonzero when an output broke a check. A trial the library rejects with one
of its own errors is a documented outcome, not a failed operation; those are
what ``fail_frac`` reports.

To damp a noisy machine, every repetition of a run replays the same
inputs, each measurement set (or call) keeps the median of its times over
the repetitions, and throughput and percentiles come from those medians. Outcome rates depend on the seed alone and must repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("campaign-n4", "locate-mixed")
SETUP_PROBES = 7
# Repetitions a run makes even past --seconds: untraced, and traced pairs.
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
# Stop starting repetitions once a run would pass this, whatever --seconds says.
HARD_LIMIT_S = 140.0


def _median_per_item(reps: list[list[float]]) -> list[float]:
    return [statistics.median(col) for col in zip(*reps)]


def _pct(values, q) -> float:
    return float(np.percentile(values, q))


class Run:
    """Repetitions of one workload for one seed."""

    def __init__(self, workload: str, seed: int, size: str):
        import workloads as W

        self.W = W
        self.workload = workload
        self.seed = seed
        self.campaign = workload != "locate-mixed"
        if self.campaign:
            self.spec = W.CampaignSpec(W.CAMPAIGN_DEPLOYMENTS[size])
            self.n_sets = self.spec.n_sets
        else:
            self.inputs = W.mixed_inputs(seed, W.MIXED_CALLS[size])
            self.n_sets = len(self.inputs)
        self.digest: str | None = None
        self.outcome = None

    def rep(self, tracer=None, stamps=False):
        """One repetition, with its outputs checked against the first one.

        Returns the wall seconds and, with ``stamps`` (campaign) or always
        (``locate-mixed``), the seconds of every measurement set and every
        ``locate_secure`` call with its success flag.
        """
        import spans

        if self.campaign:
            csv_path = OUT_DIR / f"{self.workload}.csv"
            if tracer is not None:
                tracer.n = self.W.N_ANCHORS
            with spans.Stamps() if stamps else contextlib.nullcontext() as probe:
                t0 = time.perf_counter_ns()
                self.W.run_campaign_cli(self.spec, self.seed, csv_path)
                t1 = time.perf_counter_ns()
            outcome = self.W.check_campaign_csv(self.spec, csv_path)
            self._same(outcome.sha256, outcome)
            if probe is None:
                return (t1 - t0) / 1e9, None, None
            if len(probe.set_starts) != self.n_sets:
                raise self.W.CheckError(f"{len(probe.set_starts)} sets generated, {self.n_sets} expected")
            edges = [t0, *probe.set_starts, t1]
            items = [(b - a) / 1e9 for a, b in zip(edges, edges[1:])]
            return (t1 - t0) / 1e9, items, [(ns / 1e9, ok) for ns, ok in probe.locate]

        import seculoc.pipeline as pipeline

        outcomes, lat = [], []
        t0 = time.perf_counter_ns()
        for i, inp in enumerate(self.inputs):
            if tracer is not None:
                tracer.set_id, tracer.n = i, inp.n
            s = time.perf_counter_ns()
            try:
                result = pipeline.locate_secure(inp.anchors, inp.mset, self.W.TAU)
            except Exception as exc:  # classified by locate_outcome
                e = time.perf_counter_ns()
                outcomes.append(self.W.locate_outcome(inp, error=exc))
            else:
                e = time.perf_counter_ns()
                outcomes.append(self.W.locate_outcome(inp, result))
            lat.append(((e - s) / 1e9, outcomes[-1].error is None))
        t1 = time.perf_counter_ns()
        self._same(self.W.outcome_digest(outcomes), outcomes)
        return (t1 - t0) / 1e9, [s for s, _ in lat], lat

    def _same(self, digest, outcome):
        if self.digest is None:
            self.digest, self.outcome = digest, outcome
        elif digest != self.digest:
            raise self.W.CheckError("outputs differ between repetitions of the same inputs")

    def rates(self) -> dict[str, float]:
        """Outcome rates of the proposed method; excluded trials count as misses."""
        if self.campaign:
            o = self.outcome
            return {
                "fail_frac": o.excluded / o.attempted,
                "detect_rate_all": o.detect_hits / o.detect_attempted,
                "false_alarm_rate": o.false_alarms / o.proposed_attempted,
            }
        attacked = [(inp, o) for inp, o in zip(self.inputs, self.outcome) if inp.delta > 0]
        return {
            "fail_frac": sum(o.error is not None for o in self.outcome) / len(self.outcome),
            "detect_rate_all": sum(inp.attacker in o.attackers for inp, o in attacked) / len(attacked),
            "false_alarm_rate": sum(bool(o.attackers - {inp.attacker})
                                    for inp, o in zip(self.inputs, self.outcome)) / len(self.outcome),
        }


def _keep_going(reps: int, min_reps: int, elapsed: float, per_rep: float, seconds: float) -> bool:
    if elapsed + per_rep > HARD_LIMIT_S:
        return False
    return reps < min_reps or elapsed + per_rep <= seconds


def measure_setup() -> float:
    """Median import-plus-warm-up time of fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(probe), str(OUT_DIR)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(run: Run, seconds: float) -> tuple[dict, int]:
    setup_s = measure_setup()
    run.W.warm_up(OUT_DIR)
    walls, items, locates = [], [], []
    start = time.perf_counter()
    while not walls or _keep_going(len(walls), MIN_REPS, time.perf_counter() - start,
                                   statistics.fmean(walls), seconds):
        wall, per_item, loc = run.rep(stamps=True)
        walls.append(wall)
        items.append(per_item)
        locates.append(loc)

    flags = [[ok for _, ok in loc] for loc in locates]
    if any(f != flags[0] for f in flags):
        raise run.W.CheckError("locate_secure outcomes differ between repetitions")
    ok_lat = [t for t, ok in zip(_median_per_item([[t for t, _ in loc] for loc in locates]), flags[0]) if ok]
    if not ok_lat:
        raise run.W.CheckError("no successful locate_secure call to time")
    rates = run.rates()
    metrics = {
        "sets_per_s": (run.n_sets / sum(_median_per_item(items)), "1/s"),
        "locate_p50_ms": (_pct(ok_lat, 50) * 1e3, "ms"),
        "locate_p99_ms": (_pct(ok_lat, 99) * 1e3, "ms"),
        "fail_frac": (rates["fail_frac"], "frac"),
        "detect_rate_all": (rates["detect_rate_all"], "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"# {run.workload} seed {run.seed}: {len(walls)} repetitions of {run.n_sets} sets, "
          f"{len(ok_lat)} timed locate calls", flush=True)
    print(f"# sha256 {run.digest}", flush=True)
    return metrics, len(walls) * run.n_sets


def traced(run: Run, seconds: float) -> tuple[dict, int]:
    """Per-layer metrics; untraced and traced repetitions alternate in ABBA
    order, so a steady drift in machine speed cancels out of the overhead."""
    import spans

    run.W.warm_up(OUT_DIR)
    walls: dict[bool, list[float]] = {False: [], True: []}
    tracer = spans.Tracer(run.workload)
    start = time.perf_counter()
    while not walls[True] or _keep_going(len(walls[True]), MIN_TRACED_PAIRS,
                                         time.perf_counter() - start,
                                         statistics.fmean(walls[False]) + statistics.fmean(walls[True]),
                                         seconds):
        for on in (False, True) if len(walls[True]) % 2 == 0 else (True, False):
            if on:
                with tracer:
                    walls[True].append(run.rep(tracer=tracer)[0])
            else:
                walls[False].append(run.rep()[0])
    tracer.write(OUT_DIR / f"spans-{run.workload}.csv")
    metrics = spans.layer_metrics(tracer, len(walls[True]), run.workload)
    metrics["outcome.false_alarm_rate"] = (run.rates()["false_alarm_rate"], "frac")
    metrics["trace.overhead_frac"] = (sum(walls[True]) / sum(walls[False]) - 1.0, "frac")
    print(f"# {run.workload} seed {run.seed}: {len(walls[False])} untraced and {len(walls[True])} traced "
          f"repetitions of {run.n_sets} sets, {len(tracer.spans)} spans", flush=True)
    print(f"# sha256 {run.digest}", flush=True)
    return metrics, (len(walls[False]) + len(walls[True])) * run.n_sets


def _result(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(args) -> int:
    """Every workload in its own process; a table, then the combined result."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for wl in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            print(f"{wl:<20}{name:<36}{m['value']:>16.6g} {m['unit']}")
            merged[f"{wl}/{name}"] = (m["value"], m["unit"])
    print(_result(correct, attempted, failed, merged))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs tiny inputs, for the self-test only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seculoc" / "__init__.py").is_file():
        print(f"no seculoc sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import seculoc

    if Path(seculoc.__file__).resolve().parent != (ROOT / "src" / "seculoc").resolve():
        print(f"seculoc imported from {seculoc.__file__}, not from src/", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    import workloads as W
    import spans

    run = Run(args.workload, args.seed, args.size)
    try:
        metrics, attempted = (traced if args.trace else end_to_end)(run, args.seconds)
    except (W.CheckError, spans.TraceGuardError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        print(_result(False, max(1, run.n_sets), 1, {}))
        return 1
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        print(_result(False, attempted, 0, {}))
        return 1
    print(_result(True, attempted, 0, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
