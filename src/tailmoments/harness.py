"""Monte Carlo harness comparing the four estimation strategies on max-linear data.

Each experiment simulates repeated samples from a max-linear model, applies
the benchmark and optimally weighted estimators in both margin conventions,
and summarizes bias and spread of the reciprocal extremal coefficient
against the exact population values from the spectral measure.  Repetitions
are seeded individually from the experiment seed, so results do not depend
on execution order and the harness can fan out across processes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from .core import (
    IndexSet,
    KOutOfRange,
    NoExceedances,
    ParamOutOfRange,
    check_integer,
    uniform_weights,
)
from .estimators import benchmark_ratio_known, stable_tail_estimate
from .maxlinear import (
    MaxLinearModel,
    derive_seed,
    make_scenario,
    model_spectral_measure,
    simulate,
)
from .oracle import asymptotic_variances
from .samples import KnownSample, RankSample
from .weights import tau_moment_known, tau_moment_ranks

ESTIMATOR_NAMES = ("BK", "MK", "BU", "MU")

#: the three (p, q) benchmark scenarios reported side by side
TABLE_SCENARIOS = ((0.1, 0.2), (0.4, 0.6), (0.8, 0.9))

GRID_HEADER = ("p", "q", "sd_bk", "sd_mk", "sd_bu", "sd_mu", "v1_star", "v1_tilde")

REPORT_CSV_HEADER = ("method", "bias", "emp_std", "theo_std", "excluded")


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
        object.__setattr__(self, "u_quantile", float(self.u_quantile))
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 1 <= self.k < self.n:
            raise KOutOfRange(f"k={self.k} must satisfy 1 <= k < n={self.n}")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0.0 < self.u_quantile < 1.0:
            raise ParamOutOfRange(
                f"u_quantile must lie in (0, 1), got {self.u_quantile}")

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


def _single_rep(rep_seed: int, model: MaxLinearModel, n: int, k: int, u: float) -> dict:
    """One repetition: simulate and apply the four estimators.

    Returns the reciprocal-coefficient estimate per method, or None when the
    method had no exceedances to work with (recorded as excluded).
    """
    data = simulate(model, n, rep_seed)
    index_set = IndexSet(range(1, model.d + 1))
    # one tail sample per margin convention, shared by its two estimators
    known = KnownSample(data, u, index_set)
    ranks = RankSample(data, k, index_set)
    out = {}
    v = uniform_weights(index_set, model.d)
    try:
        out["BK"] = benchmark_ratio_known(known, u, v).estimate
    except NoExceedances:
        out["BK"] = None
    try:
        out["MK"] = tau_moment_known(known, u, index_set).estimate
    except NoExceedances:
        out["MK"] = None
    report = stable_tail_estimate(ranks, k, index_set)
    out["BU"] = (1.0 / report.estimate) if report.estimate > 0 else None
    try:
        out["MU"] = tau_moment_ranks(ranks, k, index_set).estimate
    except NoExceedances:
        out["MU"] = None
    return out


def _worker_count(reps: int) -> int | None:
    """Resolve TAILMOMENTS_THREADS: unset -> serial, 0 -> auto, N -> N workers."""
    raw = os.environ.get("TAILMOMENTS_THREADS")
    if raw is None or reps == 1:
        return None
    workers = int(raw)
    if workers < 0:
        raise ValueError("TAILMOMENTS_THREADS must be a non-negative integer")
    if workers == 0:
        workers = os.cpu_count() or 1
    return None if workers <= 1 else workers


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
    model = config.model
    measure = model_spectral_measure(model)
    index_set = IndexSet(range(1, model.d + 1))
    av = asymptotic_variances(measure, index_set)
    inv_tau = 1.0 / av.tau
    u = -1.0 / np.log(config.u_quantile)
    marginal_pairs = config.n * (1.0 - config.u_quantile)
    theo = {
        "BK": float(np.sqrt(av.avar_bk / marginal_pairs)),
        "MK": float(np.sqrt(av.avar_mk / marginal_pairs)),
        "BU": float(np.sqrt(av.avar_bu / config.k)),
        "MU": float(np.sqrt(av.avar_mu / config.k)),
    }
    worker = partial(_single_rep, model=model, n=config.n, k=config.k, u=u)
    seeds = [derive_seed(config.seed, r) for r in range(config.reps)]
    workers = _worker_count(config.reps)
    if workers is None:
        results = [worker(s) for s in seeds]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, config.reps // (8 * workers))
            results = list(pool.map(worker, seeds, chunksize=chunk))

    summaries = {}
    for name in ESTIMATOR_NAMES:
        values = np.array([r[name] for r in results if r[name] is not None])
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


def table_experiments(reps: int = 5000, seed: int = 1, n: int = 1000,
                      k: int = 50, u_quantile: float = 0.95) -> dict[str, ExperimentReport]:
    """The three benchmark scenarios at the standard settings, keyed scenario_1..3."""
    reports = {}
    for idx, (p, q) in enumerate(TABLE_SCENARIOS):
        config = ExperimentConfig(
            model=make_scenario(p, q), n=n, k=k, reps=reps,
            seed=derive_seed(seed, idx), u_quantile=u_quantile,
        )
        reports[f"scenario_{idx + 1}"] = run_experiment(config)
    return reports


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
