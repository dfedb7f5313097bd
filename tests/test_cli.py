import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailmoments as tm
from tailmoments import samples
from tailmoments.cli import main
from tailmoments.io import read_matrix_csv

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def sample_csv(tmp_path):
    x = tm.simulate(tm.make_scenario(0.1, 0.2), 400, seed=11)
    path = tmp_path / "sample.csv"
    np.savetxt(path, x.values, delimiter=",", header="x1,x2", comments="")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_oracle_tau(capsys):
    code, out, _ = run(capsys, "oracle", "--scenario", "0.1,0.2", "--index-set", "1,2", "--tau")
    assert code == 0
    assert out.strip() == "1.7391304"


def test_oracle_avars(capsys):
    code, out, _ = run(capsys, "oracle", "--scenario", "0.1,0.2", "--index-set", "1,2", "--avars")
    assert code == 0
    payload = json.loads(out)
    assert payload["avar_bk"] == pytest.approx(0.140515625)
    assert payload["avar_mu"] == pytest.approx(0.011315471958625724)
    assert payload["v_star"] == [0.5, 0.5]
    assert payload["tau"] == pytest.approx(40.0 / 23.0)


def test_oracle_optimal_weights(capsys):
    code, out, _ = run(capsys, "oracle", "--scenario", "0.1,0.2", "--index-set", "1,2",
                       "--optimal-weights")
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == [0.5, 0.5]
    assert payload["value"] == 0.33125


def test_oracle_perturbed_moment(capsys):
    code, out, _ = run(capsys, "oracle", "--scenario", "0.1,0.2", "--index-set", "1,2",
                       "--c", "0.5,0.5;1,1;1;1")
    assert code == 0
    assert json.loads(out)["c"] == pytest.approx(23.0 / 40.0)


def test_oracle_reads_an_integral_float_power_as_an_integer(capsys):
    code, out, _ = run(capsys, "oracle", "--scenario", "0.1,0.2", "--index-set", "1,2",
                       "--c", "0.5,0.5;1,1;1;2.0")
    assert code == 0
    measure = tm.model_spectral_measure(tm.make_scenario(0.1, 0.2))
    assert json.loads(out)["c"] == tm.perturbed_moment(measure, tm.IndexSet([1, 2]),
                                                       [0.5, 0.5], [1.0, 1.0], 1.0, 2)
    code, out, err = run(capsys, "oracle", "--scenario", "0.1,0.2", "--index-set", "1,2",
                         "--c", "0.5,0.5;1,1;1;1.5")
    assert code == 1 and out == ""
    assert "the moment power p must be an integer, got 1.5" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--scenario", "0.1,0.2", "--index-set", "1,x", "--tau"],
    ["oracle", "--scenario", "0.1,0.2,0.3", "--index-set", "1,2", "--tau"],
], ids=["index_set", "scenario"])
def test_oracle_bad_input_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert ("invalid index set" if "1,x" in argv else "exactly two parameters") in err


def test_oracle_c_without_four_parts_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--scenario", "0.1,0.2", "--index-set", "1,2", "--c", "0.5,0.5;1,1;1"])
    assert err.value.code == 2
    assert "--c expects" in capsys.readouterr().err


def test_oracle_measure_file(capsys, tmp_path):
    measure = {"atoms": [[1.0, 0.5], [0.5, 1.0]], "probs": [0.5, 0.5]}
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure))
    code, out, _ = run(capsys, "oracle", "--measure", str(path), "--index-set", "1,2", "--tau")
    assert code == 0
    assert out.strip() == "1.3333333"


def test_oracle_rejects_unstandardized_measure(capsys, tmp_path):
    measure = {"atoms": [[1.0, 0.5], [0.25, 1.0]], "probs": [0.5, 0.5]}
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure))
    code, _, err = run(capsys, "oracle", "--measure", str(path), "--index-set", "1,2", "--tau")
    assert code == 1
    assert "ValueError: margins are not tail-equivalent" in err


def test_oracle_rejects_a_measure_normalized_on_a_subset(capsys, tmp_path):
    measure = {"atoms": [[1.0, 0.5], [1.0, 4.0]], "probs": [0.8, 0.2], "normalized_on": [1]}
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure))
    code, _, err = run(capsys, "oracle", "--measure", str(path), "--index-set", "1", "--tau")
    assert code == 1
    assert "normalized_on" in err


def test_oracle_rejects_weights_off_the_index_set(capsys):
    code, out, err = run(capsys, "oracle", "--scenario", "0.4,0.6", "--index-set", "1",
                         "--c", "0.5,0.5;1,1;1;1")
    assert code == 1 and out == ""
    assert "SupportViolation" in err


@pytest.mark.parametrize("scales", ["inf,1", "nan,1", "0,1"])
def test_estimate_rejects_a_scale_that_is_not_positive_and_finite(capsys, sample_csv, scales):
    code, out, err = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                         "--known-margins", "--scales", scales, "--method", "mk")
    assert code == 1 and out == ""
    assert "ValueError: scales must be positive and finite" in err


def test_estimate_rank_method(capsys, sample_csv):
    code, out, _ = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                       "--method", "mu", "--k", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "mu"
    assert payload["exceedance_count"] > 0
    assert 1.0 <= payload["inverse_estimate"] <= 2.0
    assert payload["parameters"]["k"] == 20


def test_estimate_known_margins_csv_output(capsys, sample_csv):
    code, out, _ = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                       "--known-margins", "--method", "bk", "--alpha", "1",
                       "--u-quantile", "0.9", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,estimate,inverse_estimate,std_error,exceedance_count"
    fields = lines[1].split(",")
    assert fields[0] == "benchmark"
    assert float(fields[1]) > 0


def test_estimate_moment_with_explicit_weights(capsys, sample_csv):
    code, out, _ = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                       "--known-margins", "--weights", "0.5,0.5", "--u-quantile", "0.9")
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["estimate"] <= 1.0


def test_estimate_rank_method_rejects_known_flags(capsys, sample_csv):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--input", sample_csv, "--index-set", "1,2", "--method", "bk"])
    assert err.value.code == 2


def test_estimate_has_no_second_name_for_bu(capsys, sample_csv):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--input", sample_csv, "--index-set", "1,2", "--method", "stdf"])
    assert err.value.code == 2
    code, out, _ = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                       "--method", "bu")
    assert code == 0 and json.loads(out)["method"] == "stdf"


def test_estimate_weights_conflict_with_optimal(capsys, sample_csv):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--input", sample_csv, "--index-set", "1,2", "--known-margins",
              "--weights", "0.5,0.5", "--optimal"])
    assert err.value.code == 2


UNREAD_FLAGS = {
    "mu-weights": ["--method", "mu", "--weights", "0.9,0.1"],
    "mu-p": ["--method", "mu", "--p", "3"],
    "hill-optimal": ["--method", "hill", "--optimal"],
    "bu-weights": ["--method", "bu", "--weights", "0.5,0.5"],
    "mk-optimal": ["--known-margins", "--method", "mk", "--optimal"],
    "bk-p": ["--known-margins", "--method", "bk", "--p", "2"],
    "hill-eps": ["--method", "hill", "--eps", "0.05"],
    "mk-eps": ["--known-margins", "--method", "mk", "--eps", "0.05"],
    "moment-eps": ["--method", "moment", "--eps", "0.05"],
    "known-moment-optimal-eps": ["--known-margins", "--method", "moment", "--optimal",
                                 "--eps", "0.05"],
    "known-bk-k": ["--known-margins", "--method", "bk", "--k", "7"],
    "mu-scales": ["--method", "mu", "--scales", "3,4"],
    "mu-alpha": ["--method", "mu", "--alpha", "3"],
    "moment-u-quantile": ["--method", "moment", "--u-quantile", "0.9"],
}


@pytest.mark.parametrize("name", sorted(UNREAD_FLAGS))
def test_estimate_rejects_a_flag_the_method_does_not_read(capsys, sample_csv, name):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--input", sample_csv, "--index-set", "1,2", *UNREAD_FLAGS[name]])
    assert err.value.code == 2
    assert "only to --method" in capsys.readouterr().err


@pytest.mark.parametrize("known", [True, False])
def test_estimate_optimal_weights_are_those_of_the_variance_form(capsys, sample_csv, known):
    # the CLI reads the optimal-ratio functions; the form and the QP give the same report
    x = read_matrix_csv(sample_csv)
    pair = tm.IndexSet([1, 2])
    if known:
        u = float(np.quantile(tm.partial_max(x, pair), 0.95))
        best = tm.minimize_quadratic_on_simplex(tm.second_moment_matrix_known(x, u, pair))[0]
        expected = tm.moment_ratio_known(x, u, best, p=2)
    else:
        form = tm.rank_variance_form(x, 20, pair, eps=0.1)
        best = tm.minimize_quadratic_on_simplex(form)[0]
        expected = tm.moment_ratio_ranks(x, 20, best, p=2)
    flags = (["--known-margins"] if known else ["--k", "20", "--eps", "0.1"])
    code, out, _ = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                       "--method", "moment", "--optimal", "--p", "2", *flags)
    assert code == 0
    assert out == json.dumps(expected.to_dict(), indent=2) + "\n"


# the readers of each flag, as the README states them: --weights and --optimal apply only to bk
# and moment, --p only to moment, --eps only to bu, mu and rank-based moment --optimal;
# --alpha, --scales and --u-quantile need --known-margins, and --k applies only without it
README_READERS = {
    ("bk", True): {"--alpha", "--scales", "--u-quantile", "--weights", "--optimal"},
    ("mk", True): {"--alpha", "--scales", "--u-quantile"},
    ("moment", True): {"--alpha", "--scales", "--u-quantile", "--weights", "--optimal", "--p"},
    ("hill", False): {"--k"},
    ("bu", False): {"--k", "--eps"},
    ("mu", False): {"--k", "--eps"},
    ("moment", False): {"--k", "--weights", "--optimal", "--p"},  # --eps only with --optimal
}
FLAG_VALUES = {"--alpha": ["1.5"], "--scales": ["1,2"], "--u-quantile": ["0.9"], "--k": ["20"],
               "--weights": ["0.3,0.7"], "--optimal": [], "--p": ["2"], "--eps": ["0.05"]}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("method,known", sorted(README_READERS))
def test_estimate_flag_matrix(capsys, sample_csv, method, known, flag):
    argv = ["estimate", "--input", sample_csv, "--index-set", "1,2", "--method", method,
            *(["--known-margins"] if known else []), flag, *FLAG_VALUES[flag]]
    if flag in README_READERS[method, known]:
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["exceedance_count"] > 0
    else:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "only to --method" in capsys.readouterr().err


@pytest.mark.parametrize("method,known", [("bk", False), ("mk", False), ("hill", True),
                                          ("bu", True), ("mu", True)])
def test_estimate_method_of_the_other_convention_exits_two(capsys, sample_csv, method, known):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--input", sample_csv, "--index-set", "1,2", "--method", method,
              *(["--known-margins"] if known else [])])
    assert err.value.code == 2
    assert "known-margins" in capsys.readouterr().err


def test_estimate_usage_errors_come_before_the_input_is_read(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--input", str(tmp_path / "missing.csv"), "--index-set", "1,2",
              "--method", "mu", "--p", "2"])
    assert err.value.code == 2
    assert "only to --method" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--weights", "--scales"])
def test_estimate_an_empty_number_list_is_not_absent(capsys, sample_csv, flag):
    code, out, err = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                         "--known-margins", "--method", "bk", flag, "")
    assert code == 1 and out == ""
    assert "invalid number list" in err


def test_estimate_empty_weights_conflict_with_optimal(capsys, sample_csv):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--input", sample_csv, "--index-set", "1,2", "--known-margins",
              "--weights", "", "--optimal"])
    assert err.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["0", "1", "nan", "-0.5", "1.5"])
def test_estimate_u_quantile_outside_the_open_unit_interval(capsys, tmp_path, level):
    # checked before the input is read
    code, out, err = run(capsys, "estimate", "--input", str(tmp_path / "missing.csv"),
                         "--index-set", "1,2", "--known-margins", "--u-quantile", level)
    assert code == 1 and out == ""
    assert "ParamOutOfRange" in err and "(0, 1)" in err


@pytest.mark.parametrize("index_set,raw,length", [("1,2", "1,2,3", "length 2,"),
                                                  ("1", "1,2,3", "length 1 or 2,")])
def test_estimate_weights_of_a_wrong_length(capsys, sample_csv, index_set, raw, length):
    code, out, err = run(capsys, "estimate", "--input", sample_csv, "--index-set", index_set,
                         "--known-margins", "--method", "bk", "--weights", raw)
    assert code == 1 and out == ""
    assert length in err


ONE_SAMPLE_COMMANDS = {
    "bk": ["--known-margins", "--method", "bk"],
    "mk": ["--known-margins", "--method", "mk"],
    "moment-known-optimal": ["--known-margins", "--method", "moment", "--optimal"],
    "hill": ["--method", "hill"],
    "bu": ["--method", "bu", "--eps", "0.05"],
    "mu": ["--method", "mu"],
    "moment-optimal": ["--method", "moment", "--optimal"],
    "moment-weights": ["--method", "moment", "--weights", "0.3,0.7"],
    # each flag its method reads
    "bk-optimal": ["--known-margins", "--method", "bk", "--optimal"],
    "mu-eps": ["--method", "mu", "--eps", "0.05"],
    "moment-optimal-eps-p": ["--method", "moment", "--optimal", "--eps", "0.05", "--p", "2"],
    "moment-known-weights-p": ["--known-margins", "--method", "moment", "--weights", "0.2,0.8",
                               "--p", "2"],
}


@pytest.mark.parametrize("name", sorted(ONE_SAMPLE_COMMANDS))
def test_estimate_builds_one_tail_sample_per_command(monkeypatch, capsys, sample_csv, name):
    calls = []
    order_statistics = samples.upper_order_statistics
    known_init = samples.KnownSample.__init__

    def counting_order_statistics(x, k):
        calls.append("ranks")
        return order_statistics(x, k)

    def counting_known_init(self, *args, **kwargs):
        calls.append("known")
        known_init(self, *args, **kwargs)

    monkeypatch.setattr(samples, "upper_order_statistics", counting_order_statistics)
    monkeypatch.setattr(samples.KnownSample, "__init__", counting_known_init)
    argv = ONE_SAMPLE_COMMANDS[name]
    code, _, _ = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2", *argv)
    assert code == 0
    assert calls == ["known" if "--known-margins" in argv else "ranks"]


def test_estimate_data_errors_exit_one(capsys, sample_csv):
    code, _, err = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                       "--method", "mu", "--k", "2000")
    assert code == 1
    # the sample is built before the default step k/n = 5 is checked
    assert "error:" in err and "KOutOfRange" in err
    code, _, err = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                       "--method", "mu", "--k", "20", "--eps", "5")
    assert code == 1
    assert "error:" in err and "EpsOutOfRange" in err
    code, _, err = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,3",
                       "--method", "mu", "--k", "20")
    assert code == 1
    assert "error:" in err


def test_estimate_a_header_only_csv_prints_only_the_error(tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text("X1,X2\n")
    done = subprocess.run([sys.executable, "-m", "tailmoments.cli", "estimate", "--input",
                           str(path), "--index-set", "1,2", "--method", "hill"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == \
        "error: ValueError: data matrix must have at least one row and one column\n"


@pytest.mark.parametrize("argv", [["--method", "mu"], ["--method", "moment", "--optimal"]],
                         ids=["mu", "moment_optimal"])
def test_estimate_k_equal_to_n_names_the_default_step(capsys, sample_csv, argv):
    code, out, err = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                         "--k", "400", *argv)
    assert code == 1 and out == ""
    assert "EpsOutOfRange: the default difference-quotient step k/n = 1.0" in err
    assert "pass eps or take k < n" in err
    code, out, _ = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                       "--k", "400", "--eps", "0.5", *argv)
    assert code == 0 and json.loads(out)["parameters"]["k"] == 400


def test_estimate_bu_eps_out_of_range_exits_one_without_exceedances(capsys, tmp_path):
    path = tmp_path / "constant.csv"
    np.savetxt(path, np.ones((50, 2)), delimiter=",", header="x1,x2", comments="")
    code, out, err = run(capsys, "estimate", "--input", str(path), "--index-set", "1,2",
                         "--method", "bu", "--k", "5", "--eps", "7")
    assert code == 1
    assert out == "" and "error:" in err and "EpsOutOfRange" in err


def test_estimate_k_zero_exits_one(capsys, sample_csv):
    code, _, err = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                       "--method", "mu", "--k", "0")
    assert code == 1
    assert "error:" in err and "KOutOfRange" in err


@pytest.mark.parametrize("raw", ["nan,1", "inf,1", "0.5,nan"])
def test_estimate_non_finite_weights_exit_one(capsys, sample_csv, raw):
    code, out, err = run(capsys, "estimate", "--input", sample_csv, "--index-set", "1,2",
                         "--method", "moment", "--weights", raw)
    assert code == 1
    assert out == "" and "error:" in err and "finite" in err


def test_estimate_missing_input_file(capsys, tmp_path):
    code, _, err = run(capsys, "estimate", "--input", str(tmp_path / "missing.csv"),
                       "--index-set", "1,2", "--method", "mu")
    assert code == 1
    assert "error:" in err


def test_simulate_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "draw.csv"
    code, _, _ = run(capsys, "simulate", "--scenario", "0.3,0.7", "--n", "25",
                     "--seed", "4", "--output", str(out_path))
    assert code == 0
    values = read_matrix_csv(out_path)
    assert values.shape == (25, 2)
    direct = tm.simulate(tm.make_scenario(0.3, 0.7), 25, seed=4)
    assert np.array_equal(values, direct.values)  # 17-digit CSV keeps doubles exact


def test_simulate_from_model_file(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"coeffs": [[0.5, 0.5], [0.25, 0.75]]}))
    out_path = tmp_path / "draw.csv"
    code, _, _ = run(capsys, "simulate", "--model", str(model_path), "--n", "10",
                     "--output", str(out_path))
    assert code == 0
    assert read_matrix_csv(out_path).shape == (10, 2)


def test_experiment_config_run(capsys, tmp_path):
    cfg = {"model": {"coeffs": tm.make_scenario(0.1, 0.2).coeffs.tolist()},
           "n": 300, "k": 15, "reps": 5, "seed": 1}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "experiment", "--config", str(cfg_path),
                     "--output", str(report_path), "--csv", str(csv_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert set(report["estimators"]) == {"BK", "MK", "BU", "MU"}
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "method,bias,emp_std,theo_std,excluded"
    assert len(lines) == 5


def test_experiment_config_reps_and_seed_are_overridden(capsys, tmp_path):
    cfg = {"scenario": [0.1, 0.2], "n": 300, "k": 15, "reps": 50, "seed": 1}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "experiment", "--config", str(cfg_path), "--reps", "3",
                       "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    assert (payload["config"]["reps"], payload["config"]["seed"]) == (3, 9)
    direct = tm.run_experiment(tm.ExperimentConfig(tm.make_scenario(0.1, 0.2), n=300, k=15,
                                                   reps=3, seed=9))
    assert payload == json.loads(json.dumps(direct.to_dict()))


CONFIG = {"scenario": [0.1, 0.2], "n": 300, "k": 15, "reps": 3, "seed": 1}


NEITHER = {name: value for name, value in CONFIG.items() if name != "scenario"}
EXACTLY_ONE = "a config must hold exactly one of model and scenario"


@pytest.mark.parametrize("payload,argv,error,message", [
    ({**CONFIG, "scenario": [0.4, 0.6, 0.1]}, [], "ValueError",
     "a scenario needs exactly two parameters, got [0.4, 0.6, 0.1]"),
    ({**CONFIG, "scenario": 0.4}, [], "ValueError",
     "a scenario needs exactly two parameters, got 0.4"),
    ([CONFIG], [], "ValueError", "a config must be an object, got list"),
    ([CONFIG], ["--reps", "3"], "ValueError", "a config must be an object, got list"),
    ({"model": {"coeffs": [[0.5, 0.5], [0.3, 0.7]], "cofs": 1}, "n": 300, "k": 15,
      "reps": 3, "seed": 1}, [], "ValueError", "unknown model fields: ['cofs']"),
    ({n: v for n, v in CONFIG.items() if n != "k"}, [], "ValueError",
     "missing config fields: ['k']"),
    (NEITHER, [], "ValueError", EXACTLY_ONE),
    ({**CONFIG, "model": {"coeffs": [[0.5, 0.5], [0.3, 0.7]]}}, [], "ValueError", EXACTLY_ONE),
    ({**NEITHER, "model": [[0.5, 0.5], [0.3, 0.7]]}, [], "ValueError",
     "a model must be an object, got list"),
    # an override replaces a field of a complete, valid config
    ({n: v for n, v in CONFIG.items() if n != "reps"}, ["--reps", "3"], "ValueError",
     "missing config fields: ['reps']"),
    ({**CONFIG, "reps": 0}, ["--reps", "3"], "ValueError", "reps must be at least 1"),
    ({**CONFIG, "reps": True}, [], "ValueError", "reps must be an integer, got True"),
    ({**CONFIG, "u_quantile": None}, [], "ParamOutOfRange",
     "u_quantile must lie in (0, 1), got None"),
    ({**CONFIG, "u_quantile": [0.9]}, [], "ParamOutOfRange",
     "u_quantile must lie in (0, 1), got [0.9]"),
    ({**CONFIG, "scenario": [None, 0.6]}, [], "ParamOutOfRange",
     "scenario parameters must lie in [0, 1], got (None, 0.6)"),
], ids=["three_numbers", "one_number", "list", "list_with_reps", "model_field", "no_k",
        "neither", "both", "model_list", "no_reps_with_reps", "zero_reps_with_reps", "reps_true",
        "u_quantile_null", "u_quantile_list", "scenario_null"])
def test_experiment_malformed_config_exits_one(capsys, tmp_path, payload, argv, error, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "experiment", "--config", str(cfg_path), *argv)
    assert code == 1 and out == ""
    assert err == f"error: {error}: {message}\n"


def test_simulate_rejects_an_unknown_model_field(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"coeffs": [[0.5, 0.5], [0.3, 0.7]], "cofs": 1}))
    out_path = tmp_path / "draw.csv"
    code, out, err = run(capsys, "simulate", "--model", str(model_path), "--n", "10",
                         "--output", str(out_path))
    assert code == 1 and out == "" and not out_path.exists()
    assert err == "error: ValueError: unknown model fields: ['cofs']\n"


@pytest.mark.parametrize("payload,message", [
    ([[0.5, 0.5], [0.3, 0.7]], "a model must be an object, got list"),
    ({}, "missing model fields: ['coeffs']"),
], ids=["list", "empty"])
def test_simulate_rejects_a_model_file_that_is_no_model_object(capsys, tmp_path, payload,
                                                               message):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(payload))
    out_path = tmp_path / "draw.csv"
    code, out, err = run(capsys, "simulate", "--model", str(model_path), "--n", "10",
                         "--output", str(out_path))
    assert code == 1 and out == "" and not out_path.exists()
    assert err == f"error: ValueError: {message}\n"


@pytest.mark.parametrize("payload,message", [
    ([1], "a measure must be an object, got list"),
    ({"atoms": [[1, 1]]}, "missing measure fields: ['probs']"),
    ({"atoms": [[1, 1]], "probs": [1], "weights": [1]}, "unknown measure fields: ['weights']"),
], ids=["list", "no_probs", "unknown_field"])
def test_oracle_rejects_a_measure_file_that_is_no_measure_object(capsys, tmp_path, payload,
                                                                 message):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "oracle", "--measure", str(path), "--index-set", "1", "--tau")
    assert code == 1 and out == ""
    assert err == f"error: ValueError: {message}\n"


def test_experiment_table_smoke(capsys, tmp_path):
    csv_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "experiment", "--table1", "--reps", "4",
                       "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["scenario_1", "scenario_2", "scenario_3"]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "scenario,method,bias,emp_std,theo_std,excluded"
    assert len(lines) == 13


def test_grid_command(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "grid", "--pq-grid", "0.5", "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "p,q,sd_bk,sd_mk,sd_bu,sd_mu,v1_star,v1_tilde"
    assert len(lines) == 10
    first = [float(v) for v in lines[1].split(",")]
    assert first[:2] == [0.0, 0.0]
    assert first[2] == pytest.approx(np.sqrt(0.125))


def test_grid_rejects_bad_step(capsys, tmp_path):
    code, _, err = run(capsys, "grid", "--pq-grid", "0.03",
                       "--output", str(tmp_path / "g.csv"))
    assert code == 1
    assert "ParamOutOfRange" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_estimate_rejects_invalid_data_values(capsys, tmp_path, bad):
    x = tm.simulate(tm.make_scenario(0.1, 0.2), 400, seed=11).values.copy()
    x[5, 0] = bad
    path = tmp_path / "bad.csv"
    np.savetxt(path, x, delimiter=",", header="x1,x2", comments="")
    code, out, err = run(capsys, "estimate", "--input", str(path), "--index-set", "1,2",
                         "--method", "mu", "--k", "20")
    assert code == 1
    assert "error:" in err and out == ""
