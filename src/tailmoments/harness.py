"""Monte Carlo harness comparing the four estimation strategies on max-linear data.

Each experiment simulates repeated samples from a max-linear model, applies
the benchmark and optimally weighted estimators in both margin conventions,
and summarizes bias and spread of the reciprocal extremal coefficient
against the exact population values from the spectral measure.  Repetitions
are seeded individually from the experiment seed and run in blocks of at
most :data:`BLOCK`, whose (block, n, d) data hold at most
:data:`BLOCK_VALUES` values: one simulation, one tail sample per margin
convention and one pass of each estimator per block.  A repetition's
estimates are the same bits in any block, so results do not depend on the
blocking or on execution order.  With ``TAILMOMENTS_THREADS`` set, a
process pool maps the blocks of every experiment in a call (the three
scenarios of :func:`table_experiments` share it), with no more workers
than blocks.  The pool is kept across calls: the first parallel call starts
it, later calls that resolve the same worker count reuse it, and a call
that resolves another count shuts it down, waiting for its workers, before
it starts a new one.  A pool broken by a dead worker is shut down and the
error raised; the next call starts afresh.  Parallel calls from several
threads take turns on the pool.  A forked child never uses its parent's
pool, and the pool is shut down at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import (
    IndexSet,
    KOutOfRange,
    NoExceedances,
    ParamOutOfRange,
    check_integer,
    check_open_unit,
    uniform_weights,
)
from .estimators import benchmark_ratios, stable_tail_estimates
from .maxlinear import (
    MaxLinearModel,
    derive_seed,
    make_scenario,
    model_spectral_measure,
    simulate,
)
from .oracle import asymptotic_variances
from .samples import KnownSample, RankSample
from .weights import optimal_known_ratios, optimal_rank_ratios

ESTIMATOR_NAMES = ("BK", "MK", "BU", "MU")

#: the three (p, q) benchmark scenarios reported side by side
TABLE_SCENARIOS = ((0.1, 0.2), (0.4, 0.6), (0.8, 0.9))

GRID_HEADER = ("p", "q", "sd_bk", "sd_mk", "sd_bu", "sd_mu", "v1_star", "v1_tilde")

REPORT_CSV_HEADER = ("method", "bias", "emp_std", "theo_std", "excluded")

#: repetitions simulated and estimated together; larger blocks pass fewer Python
#: calls per repetition but build larger temporaries
BLOCK = 100

#: values the data of one block may hold, so its temporaries stay bounded at large n:
#: a block takes min(BLOCK, BLOCK_VALUES // (n * d)) replications, at least one
BLOCK_VALUES = 2 ** 20


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one Monte Carlo experiment."""

    model: MaxLinearModel
    n: int
    k: int
    reps: int
    seed: int
    u_quantile: float = 0.95

    def __post_init__(self):
        for name in ("n", "k", "reps", "seed"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 1 <= self.k < self.n:
            raise KOutOfRange(f"k={self.k} must satisfy 1 <= k < n={self.n}")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        object.__setattr__(self, "u_quantile", check_open_unit(self.u_quantile, "u_quantile"))

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["model"] = self.model.to_dict()
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """The config of a payload that holds a ``model`` dict or a ``scenario`` (p, q)."""
        payload = dict(payload)
        if "scenario" in payload:
            model = make_scenario(*payload.pop("scenario"))
        else:
            model = MaxLinearModel.from_dict(payload.pop("model"))
        unknown = set(payload) - {f.name for f in fields(cls) if f.name != "model"}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(model=model, **payload)


@dataclass(frozen=True)
class MethodSummary:
    """Bias and spread of one estimator's reciprocal-coefficient estimates."""

    bias: float
    emp_std: float | None
    theo_std: float
    excluded: int
    mean_estimate: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentReport:
    """Results of one experiment: per-estimator summaries plus the exact targets."""

    config: ExperimentConfig
    tau: float
    u_threshold: float
    summaries: dict[str, MethodSummary]

    @property
    def inv_tau(self) -> float:
        """The reciprocal extremal coefficient, the target of every estimator."""
        return 1.0 / self.tau

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "tau": self.tau,
            "inv_tau": self.inv_tau,
            "u_threshold": self.u_threshold,
            "estimators": {name: summary.to_dict()
                           for name, summary in self.summaries.items()},
        }

    def csv_rows(self) -> list[tuple]:
        return [(name, s.bias, s.emp_std, s.theo_std, s.excluded)
                for name, s in self.summaries.items()]


def _block_estimates(seeds, model: MaxLinearModel, n: int, k: int,
                     u: float) -> np.ndarray:
    """The (len(seeds), 4) reciprocal-coefficient estimates of one block of repetitions.

    Columns follow ESTIMATOR_NAMES; NaN marks a method that had no
    exceedances to work with (recorded as excluded).
    """
    data = simulate(model, n, seeds)
    index_set = IndexSet(range(1, model.d + 1))
    # one tail sample per margin convention, shared by its two estimators
    known = KnownSample(data, u, index_set)
    ranks = RankSample(data, k, index_set)
    coefficient = stable_tail_estimates(ranks)
    return np.stack([
        benchmark_ratios(known, uniform_weights(index_set, model.d))[0],
        optimal_known_ratios(known).estimate,
        np.divide(1.0, coefficient, out=np.full(len(seeds), np.nan), where=coefficient > 0),
        optimal_rank_ratios(ranks).estimate,
    ], axis=-1)


def _worker_count(tasks: int) -> int | None:
    """Resolve TAILMOMENTS_THREADS for ``tasks`` blocks.

    Unset -> serial, 0 -> one worker per CPU this process may run on, N -> N
    workers; never more workers than blocks, and serial (None) when one
    worker would do.
    """
    raw = os.environ.get("TAILMOMENTS_THREADS")
    if raw is None:
        return None
    if not raw.strip().isdecimal():
        raise ValueError(
            f"TAILMOMENTS_THREADS must be a non-negative integer, got {raw!r}")
    workers = int(raw)
    if workers == 0:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    workers = min(workers, tasks)
    return None if workers <= 1 else workers


#: the kept worker pool, keyed by its worker count; at most one entry
_pools: dict[int, ProcessPoolExecutor] = {}
#: held by each parallel call, so that no call resizes the pool another call maps on
_pool_lock = threading.Lock()


def _pool_of(workers: int) -> ProcessPoolExecutor:
    """The kept pool of ``workers`` workers, started after any pool of another size is
    shut down."""
    pool = _pools.get(workers)
    if pool is None:
        _shutdown_pool()
        pool = _pools[workers] = ProcessPoolExecutor(max_workers=workers)
    return pool


def _shutdown_pool() -> None:
    """Shut the kept pool down and wait for its workers to exit."""
    while _pools:
        _pools.popitem()[1].shutdown(wait=True)


def _forget_pool() -> None:
    """In a forked child: drop the parent's pool unused, since its workers belong to the
    parent, and free the lock a parent thread may have held."""
    global _pool_lock
    _pools.clear()
    _pool_lock = threading.Lock()


atexit.register(_shutdown_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run(configs: list[ExperimentConfig]) -> list[ExperimentReport]:
    """The reports of ``configs``: one set of workers maps every config's blocks.

    Blocks are listed config by config and come back in that order, so each
    config's rows are consecutive and in seed order.
    """
    tasks, bounds, thresholds = [], [0], []
    for config in configs:
        seeds = derive_seed(config.seed, range(config.reps))
        size = min(BLOCK, max(1, BLOCK_VALUES // (config.n * config.model.d)))
        u = -1.0 / np.log(config.u_quantile)
        thresholds.append(u)
        tasks += [(seeds[start:start + size], config.model, config.n, config.k, u)
                  for start in range(0, config.reps, size)]
        bounds.append(len(tasks))
    columns = list(zip(*tasks))  # seeds, models, n, k and u as parallel iterables
    workers = _worker_count(len(tasks))
    if workers is None:
        results = list(map(_block_estimates, *columns))
    else:
        with _pool_lock:
            try:
                results = list(_pool_of(workers).map(_block_estimates, *columns))
            except BrokenProcessPool:
                _shutdown_pool()
                raise
    return [_report(config, u, np.concatenate(results[lo:hi]))
            for config, u, lo, hi in zip(configs, thresholds, bounds[:-1], bounds[1:])]


def _report(config: ExperimentConfig, u: float, estimates: np.ndarray) -> ExperimentReport:
    """Summaries of a config's (reps, 4) estimates at threshold ``u`` against the oracle's
    targets."""
    model = config.model
    av = asymptotic_variances(model_spectral_measure(model), IndexSet(range(1, model.d + 1)))
    inv_tau = 1.0 / av.tau
    marginal_pairs = config.n * (1.0 - config.u_quantile)
    theo = {
        "BK": float(np.sqrt(av.avar_bk / marginal_pairs)),
        "MK": float(np.sqrt(av.avar_mk / marginal_pairs)),
        "BU": float(np.sqrt(av.avar_bu / config.k)),
        "MU": float(np.sqrt(av.avar_mu / config.k)),
    }
    summaries = {}
    for name, column in zip(ESTIMATOR_NAMES, estimates.T):
        values = column[~np.isnan(column)]
        excluded = config.reps - values.size
        if values.size == 0:
            raise NoExceedances(
                f"estimator {name} produced no usable repetitions")
        mean = float(values.mean())
        emp_std = float(values.std(ddof=1)) if values.size > 1 else None
        summaries[name] = MethodSummary(
            bias=mean - inv_tau,
            emp_std=emp_std,
            theo_std=theo[name],
            excluded=excluded,
            mean_estimate=mean,
        )
    return ExperimentReport(config=config, tau=av.tau, u_threshold=float(u),
                            summaries=summaries)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the Monte Carlo comparison described by ``config``.

    The known-margin estimators threshold the raw data at the exact Frechet
    quantile of ``u_quantile`` (the margins of a row-normalized max-linear
    model are standard Frechet, so no re-standardization is needed); the
    rank-based estimators use the top ``k`` order statistics.  Theoretical
    standard deviations divide the population asymptotic variances by the
    effective number of exceedances: ``n * (1 - u_quantile)`` for the
    known-margin pair and ``k`` for the rank-based pair.
    """
    return _run([config])[0]


def table_experiments(reps: int = 5000, seed: int = 1, n: int = 1000,
                      k: int = 50, u_quantile: float = 0.95) -> dict[str, ExperimentReport]:
    """The three benchmark scenarios at the standard settings, keyed scenario_1..3.

    The three experiments share one set of workers, as one :func:`run_experiment`
    call would.
    """
    configs = [ExperimentConfig(model=make_scenario(p, q), n=n, k=k, reps=reps,
                                seed=derive_seed(seed, idx), u_quantile=u_quantile)
               for idx, (p, q) in enumerate(TABLE_SCENARIOS)]
    return {f"scenario_{idx + 1}": report for idx, report in enumerate(_run(configs))}


def variance_grid(step: float = 0.05) -> list[tuple]:
    """Theoretical standard deviations over the (p, q) scenario grid.

    Rows follow :data:`GRID_HEADER`: the grid point, the square roots of the
    four asymptotic variances, and the first components of the two optimal
    weight vectors.
    """
    step = float(step)
    if not 0.0 < step <= 1.0:
        raise ParamOutOfRange(f"grid step must lie in (0, 1], got {step}")
    count = int(round(1.0 / step))
    if abs(count * step - 1.0) > 1e-9:
        raise ParamOutOfRange(f"grid step must divide 1 evenly, got {step}")
    points = np.linspace(0.0, 1.0, count + 1)
    index_set = IndexSet((1, 2))
    rows = []
    for p in points:
        for q in points:
            av = asymptotic_variances(
                model_spectral_measure(make_scenario(p, q)), index_set)
            rows.append((
                float(p), float(q),
                float(np.sqrt(av.avar_bk)), float(np.sqrt(av.avar_mk)),
                float(np.sqrt(av.avar_bu)), float(np.sqrt(av.avar_mu)),
                float(av.v_star.weights[0]), float(av.v_tilde.weights[0]),
            ))
    return rows
