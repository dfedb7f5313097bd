import json

import numpy as np
import pytest

import tailmoments as tm
from tailmoments import samples
from tailmoments.cli import main
from tailmoments.io import read_matrix_csv


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
    assert "NotStandardized" in err


def test_oracle_rejects_a_measure_normalized_on_a_subset(capsys, tmp_path):
    measure = {"atoms": [[1.0, 0.5], [1.0, 4.0]], "probs": [0.8, 0.2], "normalized_on": [1]}
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure))
    code, _, err = run(capsys, "oracle", "--measure", str(path), "--index-set", "1", "--tau")
    assert code == 1
    assert "normalized_on" in err


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


ONE_SAMPLE_COMMANDS = {
    "bk": ["--known-margins", "--method", "bk"],
    "mk": ["--known-margins", "--method", "mk"],
    "moment-known-optimal": ["--known-margins", "--method", "moment", "--optimal"],
    "hill": ["--method", "hill"],
    "bu": ["--method", "bu", "--eps", "0.05"],
    "mu": ["--method", "mu"],
    "moment-optimal": ["--method", "moment", "--optimal"],
    "moment-weights": ["--method", "moment", "--weights", "0.3,0.7"],
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
