"""Benchmark of the tailmoments package.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc-pair --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout; the run fails
(exit code 2, no result) when that source tree is missing.  BLAS threads
are pinned to one, and the Monte Carlo pool never gets more workers than
there are CPUs.  Inputs come from ``--seed`` only.

With ``--trace 0`` the run times its workload for ``--seconds`` and reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced rounds
with rounds that record spans around calls into each layer, and reports the
per-layer metrics (see ``README.md``).  Every output is checked after the
timed loop.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Details of each run (manifest, unit times, problems, span tables) are
written to ``bench/out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("mc-pair", "mc-pair-par", "estimate-large")
#: set-up repetitions per run, each in a fresh process; setup_s is their median
SETUP_PROBES = 5
#: index-set sizes the workloads give the simplex QP (m=2 pairs, m=4 on estimate-large)
QP_SIZES = (2, 4)
CLI_METHODS = ("bk", "mk", "hill", "bu", "mu", "moment")

#: per-layer span times: metric, span name, divisor from ns, self time only
SPAN_METRICS = (
    [("maxlinear.simulate.us", "maxlinear.simulate", 1e3, False),
     ("maxlinear.uniform_open.us", "maxlinear.uniform_open", 1e3, False),
     ("core.DataMatrix.us", "core.DataMatrix", 1e3, False),
     ("maxlinear.transform_maxprod.us", "maxlinear.simulate", 1e3, True),
     ("estimators.benchmark_ratio_known.us", "estimators.benchmark_ratio_known", 1e3, False),
     ("estimators.stable_tail_estimate.us", "estimators.stable_tail_estimate", 1e3, False),
     ("estimators.moment_ratio_known.us", "estimators.moment_ratio_known", 1e3, False),
     ("estimators.moment_ratio_ranks.us", "estimators.moment_ratio_ranks", 1e3, False),
     ("weights.tau_moment_known.us", "weights.tau_moment_known", 1e3, False),
     ("weights.second_moment_matrix_known.us", "weights.second_moment_matrix_known",
      1e3, False),
     ("weights.tau_moment_ranks.us", "weights.tau_moment_ranks", 1e3, False),
     ("weights.rank_variance_form.us", "weights.rank_variance_form", 1e3, False)]
    + [(f"weights.minimize_quadratic_on_simplex.m{m}.us",
        f"weights.minimize_quadratic_on_simplex.m{m}", 1e3, False) for m in QP_SIZES]
    + [("margins.scaled_by_order_statistics.us", "margins.scaled_by_order_statistics",
        1e3, False),
       ("margins.hill_inverse_alpha.us", "margins.hill_inverse_alpha", 1e3, False)]
    + [("oracle.asymptotic_variances.m2.us", "oracle.asymptotic_variances.m2", 1e3, False),
       ("oracle.rank_variance_matrix.us", "oracle.rank_variance_matrix", 1e3, False),
       ("harness.run_experiment.s", "harness.run_experiment", 1e9, False),
       ("io.read_matrix_csv.ms", "io.read_matrix_csv", 1e6, False),
       ("io.write_matrix_csv.ms", "io.write_matrix_csv", 1e6, False)]
    + [(f"cli.estimate.{name}.ms", f"cli.estimate.{name}", 1e6, False)
       for name in CLI_METHODS]
)
SPAN_UNITS = {1e3: "us", 1e6: "ms", 1e9: "s"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one set-up probe (for the self-check)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used internally)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _import_package():
    """Import tailmoments from this checkout's src/, or exit with code 2."""
    if not (SRC / "tailmoments" / "__init__.py").is_file():
        print(f"error: no tailmoments source under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import tailmoments

    if Path(tailmoments.__file__).resolve().parent != (SRC / "tailmoments").resolve():
        print(f"error: imported tailmoments from {tailmoments.__file__}", file=sys.stderr)
        sys.exit(2)


def _quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of the values."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def _timed_loop(workload, seconds: float, tracer=None):
    """Run rounds of units until ``seconds`` have passed; return their records.

    Each record is ``(index, wall seconds, operations, output, traced)``; a
    unit that raises keeps ``output`` None and counts one failed operation.
    With a tracer, every second round runs traced, so the traced and the
    untraced rounds see the same machine; the loop then ends after a traced
    round.
    """
    records = []
    start = time.perf_counter()
    index = 0
    for block in itertools.count():
        traced = tracer is not None and block % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            for _ in range(workload.round_units):
                if traced:
                    tracer.run_id = f"unit{index}"
                t0 = time.perf_counter()
                try:
                    ops, output = workload.run_unit(index)
                except Exception:  # counted as a failure; the benchmark keeps going
                    traceback.print_exc()
                    ops, output = 1, None
                t1 = time.perf_counter()
                records.append((index, t1 - t0, ops, output, traced))
                index += 1
        if t1 - start >= seconds and (tracer is None or traced):
            return records


def _throughput(workload, records) -> float:
    """Median over complete rounds of operations per second."""
    size = workload.round_units
    rates = []
    for lo in range(0, len(records) - size + 1, size):
        chunk = records[lo:lo + size]
        rates.append(sum(r[2] for r in chunk) / sum(r[1] for r in chunk))
    if not rates:  # shorter than one round
        rates = [sum(r[2] for r in records) / sum(r[1] for r in records)]
    return statistics.median(rates)


def _probe_setup(args) -> float:
    """Seconds from process creation to 'ready' for one fresh set-up."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def _cache_sizes() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for entry in sorted(base.glob("index*")):
            level = (entry / "level").read_text().strip()
            kind = (entry / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (entry / "size").read_text().strip()
    except OSError:
        pass
    return caches


def _manifest(args, workload, nproc: int) -> dict:
    import numpy as np
    import tailmoments

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "params": workload.params(),
        "operation": workload.op, "python": platform.python_version(),
        "numpy": np.__version__, "tailmoments": tailmoments.__version__,
        "machine": platform.machine(), "nproc": nproc,
        "TAILMOMENTS_THREADS": os.environ.get("TAILMOMENTS_THREADS"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "caches": _cache_sizes(),
    }


def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child's.

    Pool workers do equal work, so the largest child stands for each; pages
    shared after fork are counted in every process.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def _layer_metrics(workload, tracer, untraced, traced) -> dict:
    """Per-layer metrics from the spans and counters of a traced run."""
    import numpy as np
    from workloads import kkt_residual

    table = tracer.span_table()
    metrics = {}
    for name, span, divisor, self_only in SPAN_METRICS:
        row = table.get(span)
        value = 0.0
        if row:
            value = (row["self_ns"] if self_only else row["total_ns"]) / row["calls"] / divisor
        metrics[name] = (value, SPAN_UNITS[divisor])

    def mean(values):
        return float(sum(values) / len(values)) if values else 0.0

    counts = tracer.counts
    metrics["maxlinear.simulate.bytes_computed"] = (
        mean(counts.get("simulate_bytes", [])), "bytes")
    metrics["estimators.exceedances_over_k"] = (
        mean([c / k for c, k in counts.get("rank_exceedances", [])]), "ratio")
    metrics["estimators.exceedances_over_nu"] = (
        mean([c / (n * (1.0 - workload.u_quantile))
              for c, n in counts.get("known_exceedances", [])]), "ratio")
    qps = counts.get("qp", [])
    metrics["weights.qp.vertex_frac"] = (
        mean([float(np.count_nonzero(w) == 1) for _, w in qps]), "ratio")
    metrics["weights.qp.kkt_residual_max"] = (
        max([kkt_residual(a, w) for a, w in qps], default=0.0), "ratio")

    harness_rows = [row for span, row in table.items() if span.startswith("harness.")]
    entry = table.get("harness.table_experiments", {}).get("total_ns", 0)
    metrics["harness.self_frac"] = (
        sum(row["self_ns"] for row in harness_rows) / entry if entry else 0.0, "ratio")
    outputs = [(r[2], r[3]) for r in untraced + traced if r[3] is not None]
    efficiency, excluded = workload.harness_ratios(outputs, [r[1] for r in untraced])
    metrics["harness.parallel_efficiency"] = (efficiency, "ratio")
    metrics["harness.excluded_frac"] = (excluded, "ratio")
    cli_rows = [row for span, row in table.items() if span.startswith("cli.")]
    cli_calls = sum(row["calls"] for row in cli_rows)
    metrics["cli.self_ms"] = (
        sum(row["self_ns"] for row in cli_rows) / cli_calls / 1e6 if cli_calls else 0.0,
        "ms")

    untraced_rate = _throughput(workload, untraced)
    traced_rate = _throughput(workload, traced)
    metrics["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0, "ratio")
    traced_runs = {f"unit{r[0]}" for r in traced}
    covered = tracer.outermost_ns(traced_runs, skip_layers=("harness", "cli"))
    metrics["trace.layer_coverage_frac"] = (
        covered / 1e9 / sum(r[1] for r in traced), "ratio")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import workloads
    from tracing import Tracer

    nproc = os.cpu_count() or 1
    workload = workloads.make_workload(args.workload, args.tiny, nproc)
    os.environ.pop("TAILMOMENTS_THREADS", None)
    if workload.threads() is not None:
        os.environ["TAILMOMENTS_THREADS"] = workload.threads()
    OUT_DIR.mkdir(exist_ok=True)

    try:
        tracer = Tracer(workload.trace_targets()) if args.trace else None
        if tracer is not None:
            tracer.run_id = "setup"
            with tracer:
                workload.build(args.seed, str(OUT_DIR))
        else:
            workload.build(args.seed, str(OUT_DIR))
        workload.warm()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        own_setup_s = time.perf_counter() - _PROCESS_START

        records = _timed_loop(workload, args.seconds, tracer)
        untraced = [r for r in records if not r[4]]
        traced = [r for r in records if r[4]]
        raised = sum(1 for r in records if r[3] is None)
        outputs = [(r[2], r[3]) for r in records if r[3] is not None]
        try:
            failed, problems = workload.check(outputs)
        except Exception:  # a check that crashes fails the whole run
            traceback.print_exc()
            failed, problems = sum(r[2] for r in records), ["check raised"]
        failed += raised
        attempted = sum(r[2] for r in records)
        peak_rss_mb = _peak_rss_mb(workload.workers)

        if tracer is None:
            probes = [_probe_setup(args) for _ in range(1 if args.tiny else SETUP_PROBES)]
            metrics = {
                "ops_per_s": (_throughput(workload, untraced), "1/s"),
                "setup_s": (statistics.median(probes), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            probes = []
            metrics = _layer_metrics(workload, tracer, untraced, traced)

        per_op_ms = [r[1] / r[2] * 1e3 for r in untraced]
        manifest = _manifest(args, workload, nproc)
        manifest.update({"op_ms_p50": _quantile(per_op_ms, 50),
                         "op_ms_p90": _quantile(per_op_ms, 90),
                         "op_ms_samples": len(per_op_ms),
                         "setup_probes_s": probes, "own_setup_s": own_setup_s,
                         "peak_rss_mb": peak_rss_mb, "units": len(records),
                         "problems": problems[:50]})
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        detail = {"manifest": manifest,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  "units": [{"index": r[0], "seconds": r[1], "ops": r[2],
                             "traced": r[4]} for r in records]}
        if tracer is not None:
            detail["spans"] = tracer.span_table()
            tracer.dump(OUT_DIR / f"{stem}-spans.json")
        with open(OUT_DIR / f"{stem}.json", "w") as handle:
            json.dump(detail, handle, indent=1)
            handle.write("\n")
        for problem in problems[:20]:
            print(f"check: {problem}", file=sys.stderr)

        print("manifest: " + json.dumps(manifest))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
