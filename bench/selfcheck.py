"""Fast self-check of the benchmark.

Runs every workload at a tiny size, untraced and traced, and asserts that
each run succeeds with every output check passed and prints exactly the
metric names (and units) listed in ``BENCHMARK.json``.  It also asserts
that the benchmark refuses to run without the package source beside it.
Run from the root of the checkout:

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(cwd: Path, workload: str, trace: int, tiny: bool = True):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{label}: checks failed\n{proc.stderr[-2000:]}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected[trace]))}")
            print(f"ok  {label}: {result['attempted']} operations")

    # without the package source the benchmark must refuse, printing no result
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = _run(bare, spec["workloads"][0]["name"], 0, tiny=False)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok  bare checkout refused with exit {proc.returncode}")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
