"""Command-line interface: estimate, simulate, oracle, experiment, grid.

Exit codes: 0 on success, 2 for usage errors (bad flags or flag
combinations), 1 for data or estimation errors, with the failing case named
on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .core import (
    DataMatrix,
    IndexSet,
    WeightVector,
    check_open_unit,
    embed,
    make_weight_vector,
    partial_max,
    restrict,
    uniform_weights,
)
from .estimators import (
    benchmark_ratio_known,
    moment_ratio_known,
    moment_ratio_ranks,
    stable_tail_estimate,
)
from .harness import (
    GRID_HEADER,
    REPORT_CSV_HEADER,
    ExperimentConfig,
    run_experiment,
    table_experiments,
    variance_grid,
)
from .io import format_float, load_json, read_matrix_csv, save_json, write_matrix_csv
from .margins import hill_inverse_alpha, standardize_known
from .maxlinear import MaxLinearModel, make_scenario, model_spectral_measure, simulate
from .oracle import (
    DiscreteSpectralMeasure,
    asymptotic_variances,
    extremal_coefficient,
    optimal_weights,
    perturbed_moment,
)
from .samples import KnownSample, RankSample
from .weights import (
    optimal_known_ratios,
    optimal_rank_ratios,
    tau_moment_known,
    tau_moment_ranks,
)

# The one table of `estimate`, keyed by (--method, --known-margins): the flags each method reads
# and its call on the one tail sample, which carries the index set and u (a KnownSample) or k
# (a RankSample). The --method choices, the margin-convention errors and every unread-flag error
# come from it.
_METHODS = {
    ("bk", True): ({"alpha", "scales", "u_quantile", "weights", "optimal"},
                   lambda s, a: benchmark_ratio_known(s, s.u, _weights(a, s))),
    ("mk", True): ({"alpha", "scales", "u_quantile"},
                   lambda s, a: tau_moment_known(s, s.u, s.index_set)),
    ("moment", True): ({"alpha", "scales", "u_quantile", "weights", "optimal", "p"},
                       lambda s, a: moment_ratio_known(s, s.u, _weights(a, s),
                                                       p=1 if a.p is None else a.p)),
    ("hill", False): ({"k"}, lambda s, a: hill_inverse_alpha(s, s.k, s.index_set)),
    ("bu", False): ({"k", "eps"},
                    lambda s, a: stable_tail_estimate(s, s.k, s.index_set, eps=a.eps)),
    ("mu", False): ({"k", "eps"}, lambda s, a: tau_moment_ranks(s, s.k, s.index_set, eps=a.eps)),
    ("moment", False): ({"k", "weights", "optimal", "p", "eps"},
                        lambda s, a: moment_ratio_ranks(s, s.k, _weights(a, s),
                                                        p=1 if a.p is None else a.p)),
}
# the one rule an entry cannot hold: rank-based moment reads --eps only for --optimal weights
_EPS_ONLY_WITH_OPTIMAL = ("moment", False)
_FLAGS = ("alpha", "scales", "u_quantile", "k", "weights", "optimal", "p", "eps")


def _parse_index_set(text: str) -> IndexSet:
    try:
        return IndexSet(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid index set {text!r}: {exc}") from exc


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"invalid number list {text!r}") from exc


def _parse_scenario(text: str) -> tuple[float, float]:
    values = _parse_floats(text)
    if values.size != 2:
        raise ValueError(f"a scenario needs exactly two parameters, got {text!r}")
    return float(values[0]), float(values[1])


def _report_out(report, output: str) -> None:
    if output == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        floats = (report.estimate, report.inverse_estimate, report.std_error)
        print("method,estimate,inverse_estimate,std_error,exceedance_count")
        print(",".join([report.method, *map(format_float, floats), str(report.exceedance_count)]))


def _readers(flag: str) -> str:
    """The methods that read ``flag``, with their margin convention when all share one."""
    keys = [key for key, (reads, _) in _METHODS.items() if flag in reads]
    names = ", ".join(dict.fromkeys(method for method, _ in keys))
    conventions = {known for _, known in keys}
    if len(conventions) == 2:
        return names
    return names + (" with" if conventions == {True} else " without") + " --known-margins"


def _weights(args, sample) -> WeightVector:
    """The --weights (|I| or d entries), the --optimal or the uniform weights on the index set."""
    index_set, d = sample.index_set, sample.values.shape[-1]
    if args.weights is not None:
        raw = restrict(_parse_floats(args.weights), index_set, d)
        return make_weight_vector(embed(raw, index_set, d), index_set)
    if args.optimal:
        best = (optimal_known_ratios(sample) if args.known_margins
                else optimal_rank_ratios(sample, args.eps)).weights
        return WeightVector(embed(best, index_set, d), index_set)
    return uniform_weights(index_set, d)


def _cmd_estimate(args, parser) -> int:
    # usage errors first, from the table, so that they exit 2 before the input is read
    key = (args.method, args.known_margins)
    if key not in _METHODS:
        needs = "uses ranks; drop" if args.known_margins else "requires"
        parser.error(f"--method {args.method} {needs} --known-margins")
    if args.weights is not None and args.optimal:
        parser.error("--weights and --optimal are mutually exclusive")
    for flag in _FLAGS:
        if getattr(args, flag) is not None and flag not in _METHODS[key][0]:
            parser.error(f"--{flag.replace('_', '-')} applies only to --method {_readers(flag)}")
    if key == _EPS_ONLY_WITH_OPTIMAL and args.eps is not None and not args.optimal:
        parser.error("--eps applies only to --method moment with --optimal")
    level = 0.95 if args.u_quantile is None else check_open_unit(args.u_quantile, "--u-quantile")
    index_set = _parse_index_set(args.index_set)
    # nothing else holds the array read, so the data keep it uncopied
    data = DataMatrix(read_matrix_csv(args.input), copy=False)
    # one tail sample per command, read by the method's call
    if args.known_margins:
        scales = np.ones(data.d) if args.scales is None else _parse_floats(args.scales)
        data = standardize_known(data, 1.0 if args.alpha is None else args.alpha, scales)
        u = float(np.quantile(partial_max(data.values, index_set), level))
        sample = KnownSample(data, u, index_set)
    else:
        sample = RankSample(data, max(1, data.n // 20) if args.k is None else args.k, index_set)
    _report_out(_METHODS[key][1](sample, args), args.output)
    return 0


def _cmd_simulate(args, parser) -> int:
    if args.model:
        model = MaxLinearModel.from_dict(load_json(args.model))
    else:
        model = make_scenario(*_parse_scenario(args.scenario))
    data = simulate(model, args.n, args.seed)
    write_matrix_csv(args.output, data.values)
    return 0


def _load_measure(args) -> DiscreteSpectralMeasure:
    if args.measure:
        return DiscreteSpectralMeasure.from_dict(load_json(args.measure))
    return model_spectral_measure(make_scenario(*_parse_scenario(args.scenario)))


def _cmd_oracle(args, parser) -> int:
    measure = _load_measure(args)
    index_set = _parse_index_set(args.index_set)
    index_set.check_within(measure.d)
    if args.tau:
        print(f"{extremal_coefficient(measure, index_set):.7f}")
    elif args.avars:
        print(json.dumps(asymptotic_variances(measure, index_set).as_dict(), indent=2))
    elif args.optimal_weights:
        weights, value = optimal_weights(measure, index_set)
        print(json.dumps({"weights": weights.weights.tolist(), "value": value},
                         indent=2))
    else:
        parts = args.c.split(";")
        if len(parts) != 4:
            parser.error("--c expects 'v1,..;s1,..;beta;p'")
        v = _parse_floats(parts[0])
        s = _parse_floats(parts[1])
        value = perturbed_moment(measure, index_set, v, s,
                                 beta=float(parts[2]), p=float(parts[3]))
        print(json.dumps({"c": value}))
    return 0


def _write_report_csv(path: str, named_reports: list[tuple[str, object]]) -> None:
    multi = len(named_reports) > 1
    with open(path, "w") as handle:
        header = (("scenario",) + REPORT_CSV_HEADER) if multi else REPORT_CSV_HEADER
        handle.write(",".join(header) + "\n")
        for name, report in named_reports:
            for method, summary in report.summaries.items():
                floats = (summary.bias, summary.emp_std, summary.theo_std)
                cells = [method, *map(format_float, floats), str(summary.excluded)]
                if multi:
                    cells = [name] + cells
                handle.write(",".join(cells) + "\n")


def _cmd_experiment(args, parser) -> int:
    if args.table1:
        reports = table_experiments(
            reps=args.reps if args.reps is not None else 5000,
            seed=args.seed if args.seed is not None else 1,
        )
        payload = {name: report.to_dict() for name, report in reports.items()}
        named = list(reports.items())
    else:
        overrides = {name: getattr(args, name) for name in ("reps", "seed")
                     if getattr(args, name) is not None}
        config = ExperimentConfig.from_dict(load_json(args.config))
        report = run_experiment(dataclasses.replace(config, **overrides))
        payload = report.to_dict()
        named = [("experiment", report)]
    if args.output:
        save_json(payload, args.output)
    else:
        print(json.dumps(payload, indent=2))
    if args.csv:
        _write_report_csv(args.csv, named)
    return 0


def _cmd_grid(args, parser) -> int:
    rows = variance_grid(args.pq_grid)
    write_matrix_csv(args.output, np.array(rows), header=list(GRID_HEADER))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailmoments",
        description="Extremal dependence estimation from tail moment ratios.")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate an extremal dependence summary "
                                          "from a CSV sample")
    est.add_argument("--input", required=True, help="CSV file, rows are observations")
    est.add_argument("--index-set", required=True,
                     help="1-based component indices, e.g. 1,2")
    est.add_argument("--known-margins", action="store_true",
                     help="margins are standardized by --alpha/--scales and "
                          "thresholded at the --u-quantile level")
    est.add_argument("--alpha", type=float,
                     help="tail index for --known-margins (default 1)")
    est.add_argument("--scales", help="comma-separated positive column scales for "
                                      "--known-margins (default all 1)")
    est.add_argument("--u-quantile", type=float,
                     help="empirical quantile of the partial max used as the threshold "
                          "for --known-margins (default 0.95)")
    est.add_argument("--k", type=int, help="order-statistic level for rank methods "
                                           "(default n/20)")
    est.add_argument("--weights", help="comma-separated weights on the index set, "
                                       "for --method bk or moment")
    # None when absent, like every other flag of the table
    est.add_argument("--optimal", action="store_true", default=None,
                     help="use variance-minimizing weights for --method bk or moment")
    est.add_argument("--p", type=int, help="moment power for --method moment (default 1)")
    est.add_argument("--eps", type=float,
                     help="difference-quotient step for --method bu, mu and rank-based "
                          "moment --optimal (default k/n where needed)")
    est.add_argument("--method", default="moment",
                     choices=sorted({method for method, _ in _METHODS}),
                     help="estimator (default: moment ratio at the given weights)")
    est.add_argument("--output", choices=("json", "csv"), default="json")
    est.set_defaults(handler=_cmd_estimate)

    sim = sub.add_parser("simulate", help="draw from a max-linear model into a CSV")
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="JSON file with a coeffs matrix")
    group.add_argument("--scenario", help="benchmark scenario parameters p,q")
    sim.add_argument("--n", type=int, required=True, help="number of rows")
    sim.add_argument("--seed", type=int, default=0, help="simulation seed")
    sim.add_argument("--output", required=True, help="CSV file to write")
    sim.set_defaults(handler=_cmd_simulate)

    orc = sub.add_parser("oracle", help="exact population values of a discrete "
                                        "spectral measure")
    group = orc.add_mutually_exclusive_group(required=True)
    group.add_argument("--measure", help="JSON file with atoms and probs")
    group.add_argument("--scenario", help="benchmark scenario parameters p,q")
    orc.add_argument("--index-set", required=True,
                     help="1-based component indices, e.g. 1,2")
    what = orc.add_mutually_exclusive_group(required=True)
    what.add_argument("--avars", action="store_true",
                      help="asymptotic variances and optimal weights")
    what.add_argument("--tau", action="store_true", help="extremal coefficient")
    what.add_argument("--optimal-weights", action="store_true",
                      help="second-moment minimizing weights")
    what.add_argument("--c", help="perturbed moment 'v1,..;s1,..;beta;p'")
    orc.set_defaults(handler=_cmd_oracle)

    exp = sub.add_parser("experiment", help="Monte Carlo comparison of the "
                                            "four estimators")
    group = exp.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="JSON experiment configuration")
    group.add_argument("--table1", action="store_true",
                       help="run the three benchmark scenarios at the standard "
                            "settings")
    exp.add_argument("--reps", type=int, help="override the number of repetitions")
    exp.add_argument("--seed", type=int, help="override the experiment seed")
    exp.add_argument("--output", help="JSON report file (default: stdout)")
    exp.add_argument("--csv", help="also write the summary table as CSV")
    exp.set_defaults(handler=_cmd_experiment)

    grd = sub.add_parser("grid", help="theoretical standard deviations over the "
                                      "(p, q) scenario grid")
    grd.add_argument("--pq-grid", type=float, required=True,
                     help="grid step, must divide 1 (e.g. 0.05)")
    grd.add_argument("--output", required=True, help="CSV file to write")
    grd.set_defaults(handler=_cmd_grid)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
