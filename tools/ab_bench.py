"""Run the benchmark on two checkouts in alternation and compare their end-to-end metrics.

Each pair runs ``bench/run.py`` once in the base checkout and once in the
changed one, with the same workload, seed and run length; the side that
goes first alternates from pair to pair, and pair i uses seed ``--seed + i``.
The script prints every run's result as it arrives, then, per end-to-end
metric of the changed checkout's ``BENCHMARK.json``, each side's median
and quartiles and in how many pairs the change led (ties count for
neither side), and the metric read against its bound: the base side's
spread (interquartile range over median) beside the bound, "unresolved"
when the spread is wider than the bound and not every change run reads
better than every base run, else whether the change median is worse than
the base median by more than the bound; then whether a gain is shown: the
change led at least 9 of 10 pairs and its median is better than the base
median by more than the base side's interquartile range.  Each run's
line also gives its minor page faults, its own and its reaped workers', so
that the pairs show heap churn, and the summary gives each side's median
of them.  Each side compiles its bytecode into a ``PYTHONPYCACHEPREFIX``
cache of its own, made for the comparison and removed after it, so bytecode
left in a checkout does not read as a start-up difference: each side
compiles in its first run and reads its cache in every later one.  (A
cache per run would make every run compile numpy too, about 0.7 s of
start-up that no user pays.)  The runs write bytecode even where
``PYTHONDONTWRITEBYTECODE`` is set, which would leave each cache empty
and make every run compile numpy and the package from source.  Each run
leads its own session and writes to temporary files; a run that exits
non-zero, or leaves a process of its group running (a worker that
outlived it), stops the comparison, and a left-over group is killed.  It
only starts the benchmark of each checkout; it changes no file under
``bench/``.  For example, against a second checkout of the parent commit:

    git worktree add ../parent HEAD~1
    python3 tools/ab_bench.py ../parent . --workload mc-pair --pairs 10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def _group_alive(pgid: int) -> bool:
    """Whether any process of group ``pgid`` still exists."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def run_bench(checkout: Path, workload: str, seed: int, seconds: int,
              side: str, cache: str) -> dict:
    """The result line of one untraced benchmark run in ``checkout``, with the run's minor
    page faults under ``"minor_faults"``.

    The run leads a new session, so its workers share its process group, and
    writes to temporary files, not pipes a surviving worker would hold open.
    It reads and writes bytecode under ``cache`` alone (``PYTHONPYCACHEPREFIX``), whatever
    ``PYTHONDONTWRITEBYTECODE`` says.
    The faults are the growth of ``RUSAGE_CHILDREN`` across the run: the
    run's own and those of the workers it reaped.
    """
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        with subprocess.Popen(cmd, cwd=checkout, stdout=out, stderr=err, env=env,
                              start_new_session=True) as proc:
            code = proc.wait()
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
        if _group_alive(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
            raise SystemExit(f"{side} seed {seed}: {' '.join(cmd)} in {checkout} left a "
                             "process of its group running; the group was killed")
        if code != 0:
            err.seek(0)
            raise SystemExit(f"{side} seed {seed}: {' '.join(cmd)} in {checkout} exited "
                             f"{code}\n{err.read()[-2000:]}")
        out.seek(0)
        return {**json.loads(out.read().strip().splitlines()[-1]), "minor_faults": faults}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile (one value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _values(runs: list[dict], name: str) -> list[float]:
    return [run["metrics"][name]["value"] for run in runs]


def _led(a: list[float], b: list[float], higher: bool) -> int:
    """The pairs in which the change run ``b`` reads better than the base run ``a``; a tie
    counts for neither side."""
    return sum((y > x) if higher else (y < x) for x, y in zip(a, b))


def summary(metrics: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: each side's median and quartiles, and the pairs the change led."""
    lines = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        a, b = _values(base, name), _values(change, name)
        led = _led(a, b, higher)
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better): "
                     f"base {a2:.4g} [{a1:.4g}, {a3:.4g}]  change {b2:.4g} [{b1:.4g}, {b3:.4g}]"
                     f"  change led {led} of {len(a)} pairs")
    return lines


def verdict(metric: dict, base: list[dict], change: list[dict]) -> str:
    """One metric read against its bound: the base spread (IQR over median) beside the bound,
    then "unresolved", or whether the change median is worse by more than the bound; and
    last whether a gain is shown.

    A spread wider than the bound leaves the metric unresolved, unless every change run
    reads better than every base run.  A gain is shown when the change led at least 9 of
    10 pairs (ties count for neither side) and its median is better than the base median
    by more than the base interquartile range.
    """
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    a, b = _values(base, name), _values(change, name)
    (a1, a2, a3), b2 = quartiles(a), quartiles(b)[1]
    spread = (a3 - a1) / abs(a2) if a2 else math.inf
    head = f"{name}: base spread {spread:.2f} (IQR/median), bound {bound:g}"
    gain = _led(a, b, higher) >= 0.9 * len(a) and (b2 - a2 if higher else a2 - b2) > a3 - a1
    shown = "a gain is shown" if gain else "no gain is shown"
    all_better = min(b) > max(a) if higher else max(b) < min(a)
    if spread > bound and not all_better:
        return f"{head}: unresolved; {shown}"
    worse = (a2 - b2 if higher else b2 - a2) / abs(a2)
    direction = "worse" if worse > 0 else "better"
    within = "by more than the bound" if worse > bound else "within the bound"
    return f"{head}: change median {abs(worse):.1%} {direction}, {within}; {shown}"


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
    with tempfile.TemporaryDirectory() as caches:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_bench(getattr(args, side), args.workload, seed, args.seconds, side,
                                   os.path.join(caches, side))
                runs[side].append(result)
                values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
                print(f"pair {i} seed {seed} {side}: failed {result['failed']} of "
                      f"{result['attempted']}, {result['minor_faults']} minor faults {values}",
                      flush=True)
    metrics = spec["end_to_end"]
    print("\n".join(summary(metrics, runs["base"], runs["change"])))
    print("minor faults per run: " + "  ".join(
        f"{side} {statistics.median(r['minor_faults'] for r in rs):.0f}"
        for side, rs in runs.items()))
    print("\n".join(verdict(metric, runs["base"], runs["change"]) for metric in metrics))
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    attempted = {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()}
    print(f"failed operations: base {failed['base']} of {attempted['base']}, "
          f"change {failed['change']} of {attempted['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
