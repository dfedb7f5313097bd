"""Run the benchmark on two checkouts in alternation and compare their end-to-end metrics.

Each pair runs ``bench/run.py`` once in the base checkout and once in the
changed one, with the same workload, seed and run length; the side that
goes first alternates from pair to pair, and pair i uses seed ``--seed + i``.
The script prints every run's result as it arrives, then, per end-to-end
metric of the changed checkout's ``BENCHMARK.json``, each side's median
and quartiles and in how many pairs the change led (ties count for
neither side).  It only starts the benchmark of each checkout; it changes
no file under ``bench/``.  For example, against a second checkout of the
parent commit:

    git worktree add ../parent HEAD~1
    python3 tools/ab_bench.py ../parent . --workload mc-pair --pairs 10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one untraced benchmark run in ``checkout``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile (one value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(metrics: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: each side's median and quartiles, and the pairs the change led."""
    lines = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        a = [run["metrics"][name]["value"] for run in base]
        b = [run["metrics"][name]["value"] for run in change]
        led = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better): "
                     f"base {a2:.4g} [{a1:.4g}, {a3:.4g}]  change {b2:.4g} [{b1:.4g}, {b3:.4g}]"
                     f"  change led {led} of {len(a)} pairs")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the commit to compare against")
    parser.add_argument("change", type=Path, help="checkout of the changed commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            result = run_bench(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(result)
            values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
            print(f"pair {i} seed {seed} {side}: failed {result['failed']} of "
                  f"{result['attempted']} {values}", flush=True)
    print("\n".join(summary(spec["end_to_end"], runs["base"], runs["change"])))
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    attempted = {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()}
    print(f"failed operations: base {failed['base']} of {attempted['base']}, "
          f"change {failed['change']} of {attempted['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
