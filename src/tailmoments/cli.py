"""Command-line interface: estimate, simulate, oracle, experiment, grid.

Exit codes: 0 on success, 2 for usage errors (bad flags or flag
combinations), 1 for data or estimation errors, with the failing case named
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import (
    EstimationError,
    IndexSet,
    WeightVector,
    embed,
    make_weight_vector,
    partial_max,
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
from .variance import minimize_quadratic_on_simplex
from .weights import (
    rank_variance_form,
    second_moment_matrix_known,
    tau_moment_known,
    tau_moment_ranks,
)

_KNOWN_METHODS = {"bk", "mk"}
_RANK_METHODS = {"hill", "bu", "mu"}


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


def _embed_weights(raw: np.ndarray, index_set: IndexSet, d: int) -> WeightVector:
    if raw.size == index_set.size:
        raw = embed(raw, index_set, d)
    elif raw.size != d:
        raise ValueError(f"--weights needs {index_set.size} or {d} entries, got {raw.size}")
    return make_weight_vector(raw, index_set)


def _report_out(report, output: str) -> None:
    if output == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print("method,estimate,inverse_estimate,std_error,exceedance_count")
        print(",".join([
            report.method,
            format_float(report.estimate),
            format_float(report.inverse_estimate),
            format_float(report.std_error),
            str(report.exceedance_count),
        ]))


def _cmd_estimate(args, parser) -> int:
    x = read_matrix_csv(args.input)
    n, d = x.shape
    index_set = _parse_index_set(args.index_set)
    index_set.check_within(d)
    method = args.method

    if method in _KNOWN_METHODS and not args.known_margins:
        parser.error(f"--method {method} requires --known-margins")
    if method in _RANK_METHODS and args.known_margins:
        parser.error(f"--method {method} uses ranks; drop --known-margins")
    if args.weights and args.optimal:
        parser.error("--weights and --optimal are mutually exclusive")

    # one tail sample per command, read by every call below
    if args.known_margins:
        scales = _parse_floats(args.scales) if args.scales else np.ones(d)
        std = standardize_known(x, args.alpha, scales)
        u = float(np.quantile(partial_max(std.values, index_set), args.u_quantile))
        sample = KnownSample(std, u, index_set)
    else:
        k = args.k if args.k is not None else max(1, n // 20)
        sample = RankSample(x, k, index_set)

    def pick_weights() -> WeightVector:
        if args.weights:
            return _embed_weights(_parse_floats(args.weights), index_set, d)
        if args.optimal:
            form = (second_moment_matrix_known(sample, u, index_set) if args.known_margins
                    else rank_variance_form(sample, k, index_set, eps=args.eps))
            return minimize_quadratic_on_simplex(form, d=d)[0]
        return uniform_weights(index_set, d)

    if method == "bk":
        report = benchmark_ratio_known(sample, u, pick_weights())
    elif method == "mk":
        report = tau_moment_known(sample, u, index_set)
    elif method == "moment":
        if args.known_margins:
            report = moment_ratio_known(sample, u, pick_weights(), p=args.p)
        else:
            report = moment_ratio_ranks(sample, k, pick_weights(), p=args.p)
    elif method == "hill":
        report = hill_inverse_alpha(sample, k, index_set)
    elif method == "bu":
        report = stable_tail_estimate(sample, k, index_set, eps=args.eps)
    elif method == "mu":
        report = tau_moment_ranks(sample, k, index_set, eps=args.eps)
    else:  # pragma: no cover - argparse restricts choices
        parser.error(f"unknown method {method}")
    _report_out(report, args.output)
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
                                 beta=float(parts[2]), p=int(parts[3]))
        print(json.dumps({"c": value}))
    return 0


def _write_report_csv(path: str, named_reports: list[tuple[str, object]]) -> None:
    multi = len(named_reports) > 1
    with open(path, "w") as handle:
        header = (("scenario",) + REPORT_CSV_HEADER) if multi else REPORT_CSV_HEADER
        handle.write(",".join(header) + "\n")
        for name, report in named_reports:
            for method, bias, emp_std, theo_std, excluded in report.csv_rows():
                cells = [method, format_float(bias), format_float(emp_std),
                         format_float(theo_std), str(excluded)]
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
        raw = load_json(args.config)
        if args.reps is not None:
            raw["reps"] = args.reps
        if args.seed is not None:
            raw["seed"] = args.seed
        config = ExperimentConfig.from_dict(raw)
        report = run_experiment(config)
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
    est.add_argument("--alpha", type=float, default=1.0,
                     help="tail index for --known-margins (default 1)")
    est.add_argument("--scales", help="comma-separated positive column scales")
    est.add_argument("--u-quantile", type=float, default=0.95,
                     help="empirical quantile of the partial max used as the "
                          "threshold (default 0.95)")
    est.add_argument("--k", type=int, help="order-statistic level for rank methods "
                                           "(default n/20)")
    est.add_argument("--weights", help="comma-separated weights on the index set")
    est.add_argument("--optimal", action="store_true",
                     help="use variance-minimizing weights for --method moment")
    est.add_argument("--p", type=int, default=1, help="moment power (default 1)")
    est.add_argument("--eps", type=float,
                     help="difference-quotient step (default k/n where needed)")
    est.add_argument("--method", default="moment",
                     choices=sorted(_KNOWN_METHODS | _RANK_METHODS | {"moment"}),
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
    except (EstimationError, ValueError, OSError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
