"""The benchmark's workloads: inputs from a seed, timed units and output checks.

Every workload builds its inputs from the workload seed, warms up, and then
runs *units* until its time is spent.  A unit is one call the user would
make (a Monte Carlo table, one ``estimate`` command) and counts a number
of *operations* (replications, commands).  A *round* is the smallest run
of units that covers the workload's whole input mix; throughput is taken
per round.  Checks run after the timed loop and report how many
operations failed them.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os
import statistics
import time

import numpy as np

import tailmoments as tm
from tailmoments import cli, estimators, harness, io, margins, maxlinear, weights

from tracing import Target

#: tolerance for replayed Monte Carlo summaries
REPLAY_TOL = 1e-12
#: unit index whose seed feeds the warm-up, outside the timed units' range
WARM_UNIT = 2 ** 32 - 1


def unit_seed(seed: int, index: int) -> int:
    """A 32-bit seed for unit ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def kkt_residual(a: np.ndarray, w: np.ndarray, support_tol: float = 1e-12) -> float:
    """Relative KKT residual of simplex weights ``w`` for ``min w'Aw``.

    With gradient ``g = 2Aw`` and multiplier ``lam = w'g``, optimality asks
    ``g_i = lam`` where ``w_i > 0`` and ``g_i >= lam`` where ``w_i = 0``,
    besides ``w >= 0`` and ``sum w = 1``.  Gradient terms are divided by
    ``2 max|A|``.
    """
    w = np.asarray(w, dtype=float)
    primal = max(abs(float(w.sum()) - 1.0), max(0.0, -float(w.min())))
    scale = 2.0 * float(np.max(np.abs(a)))
    if scale == 0.0:
        return primal
    g = 2.0 * (a @ w)
    lam = float(w @ g)
    on = w > support_tol
    stationarity = float(np.max(np.abs(g[on] - lam)))
    dual = float(np.max(lam - g[~on])) if np.any(~on) else 0.0
    return max(primal, (max(stationarity, dual, 0.0)) / scale)


def _matrix_rows(data) -> int:
    return tm.core.matrix_values(data).shape[0]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# ---------------------------------------------------------------------------
# trace targets: public functions of each layer, with outside counters
# ---------------------------------------------------------------------------

def _qp_name(args, kwargs) -> str:
    form = _arg(args, kwargs, 0, "form")
    return f"weights.minimize_quadratic_on_simplex.m{form.matrix.shape[0]}"


def _qp_after(tracer, args, kwargs, result) -> None:
    form = _arg(args, kwargs, 0, "form")
    tracer.count("qp", (form.matrix, result[0].on_support()))


def _avar_name(args, kwargs) -> str:
    return f"oracle.asymptotic_variances.m{_arg(args, kwargs, 1, 'index_set').size}"


def _cli_name(args, kwargs) -> str:
    argv = list(_arg(args, kwargs, 0, "argv"))
    return f"cli.{argv[0]}.{argv[argv.index('--method') + 1]}"


def _simulate_after(tracer, args, kwargs, result) -> None:
    tracer.count("simulate_bytes", result.values.nbytes)


def _known_after(tracer, args, kwargs, result) -> None:
    tracer.count("known_exceedances",
                 (result.exceedance_count, _matrix_rows(_arg(args, kwargs, 0, "data"))))


def _rank_after(tracer, args, kwargs, result) -> None:
    tracer.count("rank_exceedances",
                 (result.exceedance_count, int(_arg(args, kwargs, 1, "k"))))


def library_targets() -> list[Target]:
    """The traced public functions of the package, with their counters."""
    return [
        Target("tailmoments.harness", "table_experiments", "harness.table_experiments"),
        Target("tailmoments.harness", "run_experiment", "harness.run_experiment"),
        Target("tailmoments.maxlinear", "simulate", "maxlinear.simulate",
               after=_simulate_after),
        Target("tailmoments.maxlinear", "uniform_open", "maxlinear.uniform_open"),
        Target("tailmoments.core", "DataMatrix", "core.DataMatrix",
               only_in=("tailmoments.maxlinear",)),
        Target("tailmoments.estimators", "benchmark_ratio_known",
               "estimators.benchmark_ratio_known", after=_known_after),
        Target("tailmoments.estimators", "moment_ratio_known",
               "estimators.moment_ratio_known", after=_known_after),
        Target("tailmoments.estimators", "stable_tail_estimate",
               "estimators.stable_tail_estimate", after=_rank_after),
        Target("tailmoments.estimators", "moment_ratio_ranks",
               "estimators.moment_ratio_ranks"),
        Target("tailmoments.weights", "tau_moment_known", "weights.tau_moment_known"),
        Target("tailmoments.weights", "second_moment_matrix_known",
               "weights.second_moment_matrix_known"),
        Target("tailmoments.weights", "tau_moment_ranks", "weights.tau_moment_ranks",
               after=_rank_after),
        Target("tailmoments.weights", "rank_variance_form", "weights.rank_variance_form"),
        Target("tailmoments.weights", "minimize_quadratic_on_simplex",
               "weights.minimize_quadratic_on_simplex", namer=_qp_name, after=_qp_after),
        Target("tailmoments.margins", "scaled_by_order_statistics",
               "margins.scaled_by_order_statistics"),
        Target("tailmoments.margins", "hill_inverse_alpha", "margins.hill_inverse_alpha"),
        Target("tailmoments.oracle", "asymptotic_variances", "oracle.asymptotic_variances",
               namer=_avar_name),
        Target("tailmoments.oracle", "rank_variance_matrix", "oracle.rank_variance_matrix"),
        Target("tailmoments.io", "read_matrix_csv", "io.read_matrix_csv"),
        Target("tailmoments.io", "write_matrix_csv", "io.write_matrix_csv"),
        Target("tailmoments.cli", "main", "cli", namer=_cli_name),
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    op = ""
    round_units = 1
    u_quantile = 0.95
    workers = 1

    def params(self) -> dict:
        raise NotImplementedError

    def threads(self) -> str | None:
        """The TAILMOMENTS_THREADS setting of the run (None = unset)."""
        return str(self.workers) if self.workers > 1 else None

    def trace_targets(self) -> list[Target]:
        return library_targets()

    def build(self, seed: int, out_dir: str) -> None:
        """Generate the inputs from the seed (part of set-up)."""

    def warm(self) -> None:
        """Fill caches and finish lazy set-up before timing."""

    def run_unit(self, index: int):
        """Run one unit; return (operations, output)."""
        raise NotImplementedError

    def check(self, units: list) -> tuple[int, list[str]]:
        """Untimed output checks; return (failed operations, problems)."""
        raise NotImplementedError

    def harness_ratios(self, units: list, untraced_unit_s: list[float]) -> tuple[float, float]:
        """(parallel efficiency, excluded share) of Monte Carlo runs; 0 elsewhere."""
        return 0.0, 0.0

    def close(self) -> None:
        pass


class MonteCarloTable(Workload):
    """``harness.table_experiments`` over the three table scenarios."""

    op = "replication (all four estimators)"

    def __init__(self, name: str, workers: int, reps: int,
                 n: int = 1000, k: int = 50):
        self.name = name
        self.workers = workers
        self.reps = reps
        self.n = n
        self.k = k
        self.seed = 0
        self.serial_unit_s = None

    def params(self) -> dict:
        return {"scenarios": [list(s) for s in harness.TABLE_SCENARIOS],
                "reps_per_scenario": self.reps, "n": self.n, "k": self.k,
                "u_quantile": self.u_quantile, "estimators": list(harness.ESTIMATOR_NAMES),
                "workers": self.workers}

    def trace_targets(self) -> list[Target]:
        if self.workers == 1:
            return library_targets()
        # worker processes are not traced: keep to calls made in this process
        parent_side = {"harness.table_experiments", "harness.run_experiment",
                       "oracle.asymptotic_variances", "oracle.rank_variance_matrix"}
        return [t for t in library_targets() if t.span in parent_side]

    def _table(self, seed: int, reps: int):
        return harness.table_experiments(reps=reps, seed=seed, n=self.n, k=self.k,
                                         u_quantile=self.u_quantile)

    def build(self, seed: int, out_dir: str) -> None:
        self.seed = seed

    def warm(self) -> None:
        self._table(unit_seed(self.seed, WARM_UNIT), 2)

    def run_unit(self, index: int):
        reports = self._table(unit_seed(self.seed, index), self.reps)
        return 3 * self.reps, reports

    def _replay(self, report) -> dict:
        """The report's replications again, through the public scalar calls."""
        config = report.config
        model = config.model
        index_set = tm.IndexSet(range(1, model.d + 1))
        uniform = tm.uniform_weights(index_set, model.d)
        u = -1.0 / np.log(config.u_quantile)
        eps = config.k / config.n
        values = {name: [] for name in harness.ESTIMATOR_NAMES}
        for r in range(config.reps):
            x = tm.simulate(model, config.n, tm.derive_seed(config.seed, r)).values
            for name, call in (
                    ("BK", lambda: tm.benchmark_ratio_known(x, u, uniform).estimate),
                    ("MK", lambda: tm.tau_moment_known(x, u, index_set).estimate),
                    ("BU", lambda: 1.0 / tm.stable_tail_estimate(x, config.k, index_set).estimate),
                    ("MU", lambda: tm.tau_moment_ranks(x, config.k, index_set,
                                                       eps=eps).estimate)):
                try:
                    values[name].append(call())
                except (tm.NoExceedances, ZeroDivisionError):
                    pass
        inv_tau = 1.0 / tm.extremal_coefficient(tm.model_spectral_measure(model), index_set)
        out = {"inv_tau": inv_tau}
        for name, vals in values.items():
            arr = np.array(vals)
            out[name] = {"mean_estimate": float(arr.mean()),
                         "bias": float(arr.mean()) - inv_tau,
                         "emp_std": float(arr.std(ddof=1)),
                         "excluded": config.reps - arr.size}
        return out

    def check(self, units: list) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for index, (_, reports) in enumerate(units):
            for key, report in reports.items():
                # the bias may exceed its known size only by chance: eight standard errors
                bad = [name for name, s in report.summaries.items()
                       if not (abs(s.bias) <= 0.05 + 8.0 * s.theo_std / np.sqrt(self.reps)
                               and s.emp_std is not None and np.isfinite(s.emp_std)
                               and s.emp_std >= 0 and np.isfinite(s.theo_std)
                               and s.theo_std > 0 and 0 <= s.excluded < self.reps)]
                if bad or set(report.summaries) != set(harness.ESTIMATOR_NAMES):
                    failed += self.reps
                    problems.append(f"unit {index} {key}: implausible summaries {bad}")
        first = units[0][1]
        for key, report in first.items():
            replay = self._replay(report)
            worst = abs(replay["inv_tau"] - report.inv_tau)
            for name, s in report.summaries.items():
                mine = replay[name]
                worst = max(worst, abs(mine["bias"] - s.bias),
                            abs(mine["mean_estimate"] - s.mean_estimate),
                            abs(mine["emp_std"] - s.emp_std))
                if mine["excluded"] != s.excluded:
                    worst = np.inf
            if not worst <= REPLAY_TOL:
                failed += self.reps
                problems.append(f"{key}: replay differs by {worst}")
        if self.workers > 1:
            saved = os.environ.pop("TAILMOMENTS_THREADS", None)
            try:
                start = time.perf_counter()
                serial = {key: harness.run_experiment(report.config)
                          for key, report in first.items()}
                self.serial_unit_s = time.perf_counter() - start
            finally:
                if saved is not None:
                    os.environ["TAILMOMENTS_THREADS"] = saved
            for key in first:
                if serial[key].to_dict() != first[key].to_dict():
                    failed += self.reps
                    problems.append(f"{key}: parallel summaries differ from serial")
        return failed, problems

    def harness_ratios(self, units: list, untraced_unit_s: list[float]) -> tuple[float, float]:
        """Parallel efficiency from the serial re-run of the first unit in
        :meth:`check` (1 when serial), and the share of excluded estimates."""
        efficiency = 1.0
        if self.workers > 1:
            par_unit_s = statistics.median(untraced_unit_s)
            efficiency = self.serial_unit_s / (self.workers * par_unit_s)
        excluded = sum(s.excluded for _, reports in units
                       for report in reports.values() for s in report.summaries.values())
        estimates = sum(len(report.summaries) * self.reps
                        for _, reports in units for report in reports.values())
        return efficiency, excluded / estimates


class EstimateLarge(Workload):
    """In-process ``estimate`` commands on one large seeded CSV sample."""

    name = "estimate-large"
    op = "estimate command"
    round_units = 6

    def __init__(self, n: int, k: int, d: int = 4, factors: int = 6):
        self.n = n
        self.k = k
        self.d = d
        self.factors = factors
        self.eps = k / n
        self.path = None
        self.x = None

    def commands(self) -> list[tuple[str, list[str]]]:
        known = ["--known-margins", "--alpha", "1", "--scales", ",".join(["1"] * self.d),
                 "--u-quantile", str(self.u_quantile)]
        ranks = ["--k", str(self.k)]
        return [("bk", known + ["--method", "bk"]),
                ("mk", known + ["--method", "mk"]),
                ("hill", ranks + ["--method", "hill"]),
                ("bu", ranks + ["--method", "bu", "--eps", repr(self.eps)]),
                ("mu", ranks + ["--method", "mu"]),
                ("moment", ranks + ["--method", "moment", "--optimal"])]

    def params(self) -> dict:
        return {"n": self.n, "d": self.d, "factors": self.factors, "k": self.k,
                "eps": self.eps, "u_quantile": self.u_quantile,
                "index_set": list(range(1, self.d + 1)),
                "methods": [name for name, _ in self.commands()],
                "clients": 1, "loop": "closed",
                "array_bytes": self.n * self.d * 8}

    def build(self, seed: int, out_dir: str) -> None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE57]))
        coeffs = rng.uniform(0.05, 1.0, size=(self.d, self.factors))
        coeffs /= coeffs.sum(axis=1, keepdims=True)
        model = tm.MaxLinearModel(coeffs)
        self.x = maxlinear.simulate(model, self.n, unit_seed(seed, 0)).values
        self.path = os.path.join(out_dir, f"estimate-{os.getpid()}.csv")
        io.write_matrix_csv(self.path, self.x)

    def _argv(self, extra: list[str]) -> list[str]:
        return (["estimate", "--input", self.path,
                 "--index-set", ",".join(str(j) for j in range(1, self.d + 1))] + extra)

    def _call(self, extra: list[str]) -> tuple[int, str]:
        buffer = _stdio.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(self._argv(extra))
        return code, buffer.getvalue()

    def _direct(self, x: np.ndarray, name: str, k: int) -> tm.EstimateReport:
        """The library call each command stands for, on the in-memory array."""
        index_set = tm.IndexSet(range(1, self.d + 1))
        if name in ("bk", "mk"):
            z = margins.standardize_known(x, 1.0, np.ones(self.d)).values
            u = float(np.quantile(tm.partial_max(z, index_set), self.u_quantile))
            if name == "bk":
                return estimators.benchmark_ratio_known(
                    z, u, tm.uniform_weights(index_set, self.d))
            return weights.tau_moment_known(z, u, index_set)
        if name == "hill":
            return margins.hill_inverse_alpha(x, k, index_set)
        if name == "bu":
            return estimators.stable_tail_estimate(x, k, index_set, eps=self.eps)
        if name == "mu":
            return weights.tau_moment_ranks(x, k, index_set)
        form = weights.rank_variance_form(x, k, index_set)
        best = weights.minimize_quadratic_on_simplex(form, d=self.d)[0]
        return estimators.moment_ratio_ranks(x, k, best, p=1)

    def warm(self) -> None:
        self._call(self.commands()[2][1])
        head = self.x[: max(200, self.n // 20)]
        for name, _ in self.commands():
            self._direct(head, name, max(10, self.k // 20))

    def run_unit(self, index: int):
        name, extra = self.commands()[index % len(self.commands())]
        return 1, (name, *self._call(extra))

    def check(self, units: list) -> tuple[int, list[str]]:
        reference = {name: json.loads(json.dumps(self._direct(self.x, name, self.k).to_dict()))
                     for name, _ in self.commands()}
        failed, problems = 0, []
        for index, (_, (name, code, text)) in enumerate(units):
            if code != 0:
                failed += 1
                problems.append(f"call {index} ({name}) exited {code}")
            elif json.loads(text) != reference[name]:
                failed += 1
                problems.append(f"call {index} ({name}) differs from the library call")
        return failed, problems

    def close(self) -> None:
        if self.path and os.path.exists(self.path):
            os.remove(self.path)


def make_workload(name: str, tiny: bool, nproc: int) -> Workload:
    """The named workload at full size, or tiny for the self-check."""
    workers = max(1, min(2, nproc))
    if name == "mc-pair":
        return MonteCarloTable(name, 1, 4 if tiny else 150)
    if name == "mc-pair-par":
        return MonteCarloTable(name, workers, 4 if tiny else 150)
    if name == "estimate-large":
        return EstimateLarge(4000, 200) if tiny else EstimateLarge(100_000, 5000)
    raise KeyError(name)

