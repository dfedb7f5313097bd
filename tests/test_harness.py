import numpy as np
import pytest

import tailmoments as tm
from tailmoments.harness import (
    ESTIMATOR_NAMES,
    GRID_HEADER,
    REPORT_CSV_HEADER,
    TABLE_SCENARIOS,
    run_experiment,
    table_experiments,
    variance_grid,
)

I12 = tm.IndexSet([1, 2])


def small_config(**overrides):
    settings = dict(model=tm.make_scenario(0.1, 0.2), n=400, k=20, reps=8, seed=7)
    settings.update(overrides)
    return tm.ExperimentConfig(**settings)


def test_config_round_trips_through_dict():
    cfg = small_config()
    again = tm.ExperimentConfig.from_dict(cfg.to_dict())
    assert np.array_equal(again.model.coeffs, cfg.model.coeffs)
    assert (again.n, again.k, again.reps, again.seed) == (400, 20, 8, 7)
    assert again.to_dict() == cfg.to_dict()
    assert again == cfg


@pytest.mark.parametrize("field,value", [("n", 100.9), ("k", 20.5), ("reps", np.inf),
                                         ("seed", np.nan)])
def test_config_rejects_a_non_integral_count(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        small_config(**{field: value})
    assert small_config(n=400.0).n == 400


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(reps=0)
    with pytest.raises(tm.KOutOfRange):
        small_config(k=400)
    with pytest.raises(tm.ParamOutOfRange):
        small_config(u_quantile=1.5)
    with pytest.raises(ValueError, match="unknown config fields"):
        tm.ExperimentConfig.from_dict({**small_config().to_dict(), "estimators": ["BK"]})
    with pytest.raises(ValueError, match=r"unknown config fields: \['eps'\]"):
        tm.ExperimentConfig.from_dict({**small_config().to_dict(), "eps": 0.05})


def test_run_experiment_is_deterministic():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    for name in ESTIMATOR_NAMES:
        assert a.summaries[name].bias == b.summaries[name].bias
        assert a.summaries[name].emp_std == b.summaries[name].emp_std


def test_run_experiment_report_contents():
    rep = run_experiment(small_config())
    assert set(rep.summaries) == set(ESTIMATOR_NAMES)
    assert rep.tau == pytest.approx(40.0 / 23.0, rel=1e-14)
    assert rep.inv_tau == pytest.approx(23.0 / 40.0, rel=1e-14)
    assert rep.u_threshold > 0
    for s in rep.summaries.values():
        assert s.emp_std >= 0
        assert s.excluded >= 0
        assert np.isfinite(s.mean_estimate)
    rows = list(rep.csv_rows())
    assert len(rows) == len(ESTIMATOR_NAMES)
    assert all(len(r) == len(REPORT_CSV_HEADER) for r in rows)


def test_run_experiment_theoretical_stds_come_from_the_oracle():
    rep = run_experiment(small_config())
    av = tm.asymptotic_variances(tm.model_spectral_measure(tm.make_scenario(0.1, 0.2)), I12)
    assert rep.summaries["BK"].theo_std == pytest.approx(np.sqrt(av.avar_bk / 20), rel=1e-12)
    assert rep.summaries["MU"].theo_std == pytest.approx(np.sqrt(av.avar_mu / 20), rel=1e-12)


def test_parallel_execution_matches_serial(monkeypatch):
    serial = run_experiment(small_config())
    monkeypatch.setenv("TAILMOMENTS_THREADS", "2")
    parallel = run_experiment(small_config())
    for name in ESTIMATOR_NAMES:
        assert parallel.summaries[name].bias == serial.summaries[name].bias
        assert parallel.summaries[name].emp_std == serial.summaries[name].emp_std


def test_experiment_bias_shrinks_toward_the_target():
    """Summaries work on the reciprocal scale; a moderate run sits near 1/tau."""
    rep = run_experiment(small_config(n=2000, k=100, reps=40, seed=3))
    inv_tau = 23.0 / 40.0
    for name in ESTIMATOR_NAMES:
        s = rep.summaries[name]
        assert s.mean_estimate == pytest.approx(inv_tau, abs=0.06)
        assert s.bias == pytest.approx(s.mean_estimate - inv_tau, abs=1e-15)


def test_table_experiments_covers_the_three_scenarios():
    reports = table_experiments(reps=6, seed=2)
    assert list(reports) == ["scenario_1", "scenario_2", "scenario_3"]
    assert TABLE_SCENARIOS == ((0.1, 0.2), (0.4, 0.6), (0.8, 0.9))
    for rep in reports.values():
        assert rep.config.n == 1000
        assert rep.config.k == 50
        assert rep.config.u_quantile == 0.95
        assert rep.config.reps == 6


def test_variance_grid_shape_and_degeneracies():
    rows = variance_grid(0.5)
    assert len(rows) == 9
    assert len(GRID_HEADER) == 8
    table = {(r[0], r[1]): r for r in rows}
    corner = table[(0.0, 0.0)]
    sd = dict(zip(GRID_HEADER, corner))
    assert sd["sd_bk"] == pytest.approx(np.sqrt(0.125), rel=1e-15)
    assert sd["sd_mk"] == 0.0
    assert sd["sd_mu"] == 0.0
    top = dict(zip(GRID_HEADER, table[(1.0, 1.0)]))
    assert (top["sd_bk"], top["sd_mk"], top["sd_bu"], top["sd_mu"]) == (0.0, 0.0, 0.0, 0.0)
    for (p, q), row in table.items():
        named = dict(zip(GRID_HEADER, row))
        if p == q:
            assert named["sd_mk"] == 0.0
        assert named["sd_mk"] <= named["sd_mu"] + 1e-12
        assert named["sd_mu"] <= named["sd_bu"] + 1e-12
        assert named["sd_bu"] <= named["sd_bk"] + 1e-12


def test_variance_grid_step_must_divide_one():
    with pytest.raises(tm.ParamOutOfRange):
        variance_grid(0.03)
