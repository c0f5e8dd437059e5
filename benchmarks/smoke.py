"""Self-test of the benchmark on tiny inputs; not part of the test suite.

Runs every workload at smoke size in both trace modes and checks that the
result is correct and names every metric of ``BENCHMARK.json`` with its
unit and a finite value. Then checks that the benchmark refuses to run in a
directory holding only ``BENCHMARK.json`` and the benchmark itself.

    python3 benchmarks/smoke.py        # from the repository root
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, set(metrics) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
    print(f"ok  {workload:<14} trace {trace}: {len(metrics)} metrics")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark ran without the library sources"
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without src/")


if __name__ == "__main__":
    for wl in SPEC["workloads"]:
        for trace in (0, 1):
            check(wl["name"], trace)
    check_refuses_without_sources()
