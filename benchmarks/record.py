"""Run the benchmark over several seeds and record the results as JSON.

    python3 benchmarks/record.py --seeds 1-10 --seconds 45 --out .bench_out/runs.json
    python3 benchmarks/record.py --seeds 1 --trace 1 --out .bench_out/traced.json

Each workload of ``BENCHMARK.json`` runs once per seed, one after another.
The file holds the machine, every run's metrics and output digest, and per
metric the median, the quartiles and the quartile spread as a share of the
median (``statistics.quantiles(values, n=4)``), the figure a benchmark
bound is checked against. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    import numpy

    record = {
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "cpus": os.cpu_count()},
        "seconds": seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            digest = next((ln.split()[-1] for ln in lines if ln.startswith("# sha256 ")), None)
            runs.append({"seed": seed, "wall_s": round(wall, 1), "sha256": digest,
                         "correct": result["correct"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{wl} seed {seed}: {wall:.0f} s, correct={result['correct']}", flush=True)
        names = runs[0]["metrics"]
        summary = {k: _summary([r["metrics"][k] for r in runs]) for k in names}
        record["workloads"][wl] = {"summary": summary, "runs": runs}
        for k, s in summary.items():
            spread = s.get("spread")
            print(f"  {k:<36} median {s['median']:<14.6g} spread "
                  f"{'-' if spread is None else f'{spread:.4f}'}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
