import multiprocessing
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import tailmoments as tm
from tailmoments import harness
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


@pytest.fixture(autouse=True)
def no_kept_pool():
    """Every test starts and ends without a kept worker pool, so a pool left by one test
    cannot stand in for another's."""
    harness._shutdown_pool()
    yield
    harness._shutdown_pool()


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
    # a payload may name the (p, q) scenario instead of the coefficients
    payload = {name: value for name, value in cfg.to_dict().items() if name != "model"}
    assert tm.ExperimentConfig.from_dict({**payload, "scenario": [0.1, 0.2]}) == cfg


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


# a d=3 max-linear model, coefficients written out: MK and MU solve one QP per repetition
D3_MODEL = tm.MaxLinearModel([[0.30, 0.05, 0.25, 0.10, 0.30],
                              [0.10, 0.40, 0.05, 0.30, 0.15],
                              [0.20, 0.20, 0.30, 0.05, 0.25]])


@pytest.mark.parametrize("model", [tm.make_scenario(0.4, 0.6), D3_MODEL])
def test_estimates_are_the_same_bits_in_any_block(monkeypatch, model):
    config = small_config(model=model, n=500, k=25, reps=15, seed=4)
    seeds = tm.derive_seed(4, range(15))
    u = -1.0 / np.log(config.u_quantile)
    estimates, reports = [], []
    for size in (1, 7, 15):
        monkeypatch.setattr(harness, "BLOCK", size)
        estimates.append(np.concatenate([harness._block_estimates(seeds[start:start + size],
                                                                  model, 500, 25, u)
                                         for start in range(0, 15, size)]))
        reports.append(run_experiment(config).to_dict())
    assert all(np.array_equal(estimates[0], other) for other in estimates[1:])
    assert reports[0] == reports[1] == reports[2]


def test_parallel_blocks_match_serial(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", 3)
    serial = run_experiment(small_config())
    monkeypatch.setenv("TAILMOMENTS_THREADS", "2")
    assert run_experiment(small_config()).to_dict() == serial.to_dict()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's worker count, maps in-process."""

    made = []

    def __init__(self, max_workers):
        RecordingPool.made.append(max_workers)

    def shutdown(self, wait=True):
        pass

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def pools(monkeypatch):
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.made


def test_workers_never_outnumber_blocks(monkeypatch, pools):
    block = harness.BLOCK  # n=400 at d=2 is far inside the value budget
    assert block >= 8 and block * 400 * 2 <= harness.BLOCK_VALUES
    monkeypatch.setenv("TAILMOMENTS_THREADS", "2")
    run_experiment(small_config(reps=2))  # one block: no pool
    assert pools == []
    monkeypatch.setenv("TAILMOMENTS_THREADS", "8")
    run_experiment(small_config(reps=block + 1))  # two blocks
    assert pools == [2]
    # 0 counts the CPUs this process may run on, not every CPU of the host
    monkeypatch.setenv("TAILMOMENTS_THREADS", "0")
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    run_experiment(small_config(reps=8))  # one block
    run_experiment(small_config(reps=3 * block + 5))  # four blocks
    run_experiment(small_config(reps=5 * block))  # five blocks: the kept 3-worker pool
    assert pools == [2, 3]


def test_table_maps_every_scenario_through_one_pool(monkeypatch, pools):
    monkeypatch.setenv("TAILMOMENTS_THREADS", "2")
    table_experiments(reps=35, seed=2)
    assert pools == [2]


def test_parallel_table_matches_serial(monkeypatch):
    reps = harness.BLOCK + 5  # two blocks per scenario at n=1000
    assert harness.BLOCK * 1000 * 2 <= harness.BLOCK_VALUES
    serial = table_experiments(reps=reps, seed=2)
    monkeypatch.setenv("TAILMOMENTS_THREADS", "2")
    parallel = table_experiments(reps=reps, seed=2)
    harness._shutdown_pool()
    assert multiprocessing.active_children() == []
    assert {key: r.to_dict() for key, r in parallel.items()} == \
        {key: r.to_dict() for key, r in serial.items()}


def _worker_pids(workers):
    """The pids of the kept pool, which must have ``workers`` workers and be the only
    children of this process."""
    assert list(harness._pools) == [workers]
    pids = set(harness._pools[workers]._processes)
    assert len(pids) == workers
    assert {child.pid for child in multiprocessing.active_children()} == pids
    return pids


def test_parallel_calls_reuse_the_kept_pool(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", 3)
    serial = run_experiment(small_config()).to_dict()
    monkeypatch.setenv("TAILMOMENTS_THREADS", "2")
    assert run_experiment(small_config()).to_dict() == serial
    pids = _worker_pids(2)
    assert run_experiment(small_config(reps=7, seed=8)).to_dict() == \
        run_experiment(small_config(reps=7, seed=8)).to_dict()
    assert _worker_pids(2) == pids


def test_a_new_worker_count_rebuilds_the_pool(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", 3)  # three blocks of 8 replications
    serial = run_experiment(small_config()).to_dict()
    monkeypatch.setenv("TAILMOMENTS_THREADS", "2")
    assert run_experiment(small_config()).to_dict() == serial
    old = _worker_pids(2)
    monkeypatch.setenv("TAILMOMENTS_THREADS", "3")
    assert run_experiment(small_config()).to_dict() == serial
    assert not old & _worker_pids(3)  # the old workers have exited, not just left the pool


def test_a_call_after_shutdown_starts_a_new_pool(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", 3)
    serial = run_experiment(small_config()).to_dict()
    monkeypatch.setenv("TAILMOMENTS_THREADS", "2")
    run_experiment(small_config())
    old = _worker_pids(2)
    harness._shutdown_pool()
    assert harness._pools == {} and multiprocessing.active_children() == []
    assert run_experiment(small_config()).to_dict() == serial
    assert not old & _worker_pids(2)


def test_serial_calls_leave_the_pool_alone(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", 3)
    run_experiment(small_config())
    assert harness._pools == {} and multiprocessing.active_children() == []
    monkeypatch.setenv("TAILMOMENTS_THREADS", "2")
    run_experiment(small_config())
    pool, pids = harness._pools[2], _worker_pids(2)
    monkeypatch.setenv("TAILMOMENTS_THREADS", "8")
    run_experiment(small_config(reps=2))  # one block runs serially, even at a new count
    monkeypatch.delenv("TAILMOMENTS_THREADS")
    run_experiment(small_config())
    assert harness._pools == {2: pool} and _worker_pids(2) == pids


def test_a_broken_pool_raises_and_the_next_call_starts_afresh(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", 3)
    serial = run_experiment(small_config()).to_dict()
    monkeypatch.setenv("TAILMOMENTS_THREADS", "2")
    run_experiment(small_config())
    pool, old = harness._pools[2], _worker_pids(2)
    victim = min(old)
    os.kill(victim, signal.SIGKILL)
    pool._processes[victim].join(timeout=30)
    assert not pool._processes[victim].is_alive()
    deadline = time.monotonic() + 30
    while not pool._broken and time.monotonic() < deadline:  # the pool notices the death
        time.sleep(0.01)
    with pytest.raises(BrokenProcessPool):
        run_experiment(small_config())
    assert harness._pools == {} and multiprocessing.active_children() == []
    assert run_experiment(small_config()).to_dict() == serial
    assert not old & _worker_pids(2)


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_threads_that_resolve_different_worker_counts_take_turns(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", 3)
    configs = [small_config(reps=3 * blocks, seed=blocks) for blocks in (2, 3, 4)]
    serial = [run_experiment(config).to_dict() for config in configs]
    monkeypatch.setenv("TAILMOMENTS_THREADS", "8")  # 2, 3 and 4 workers: each call resizes
    pool_of = harness._pool_of

    def slow_pool_of(workers):  # widens the gap between taking the pool and mapping on it
        pool = pool_of(workers)
        time.sleep(0.02)
        return pool

    monkeypatch.setattr(harness, "_pool_of", slow_pool_of)

    def calls(config):
        return [run_experiment(config).to_dict() for _ in range(3)]

    with ThreadPoolExecutor(max_workers=len(configs)) as callers:
        results = list(callers.map(calls, configs, timeout=120))
    assert results == [[report] * 3 for report in serial]


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_never_uses_the_parents_pool(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", 3)
    serial = run_experiment(small_config()).to_dict()
    monkeypatch.setenv("TAILMOMENTS_THREADS", "2")
    run_experiment(small_config())
    pids = _worker_pids(2)
    with harness._pool_lock:  # as if another thread were inside a parallel call
        child = os.fork()
        if child == 0:  # the child reports through its exit status only
            status = 1
            try:
                if harness._pools == {} and run_experiment(small_config()).to_dict() == serial:
                    status = 2 if pids & set(harness._pools[2]._processes) else 0
                harness._shutdown_pool()
            finally:
                os._exit(status)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(child, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    assert done[0] == child and os.waitstatus_to_exitcode(done[1]) == 0
    assert run_experiment(small_config()).to_dict() == serial
    assert _worker_pids(2) == pids


@pytest.mark.parametrize("raw", ["abc", "1.5", "-1", ""])
def test_threads_setting_must_be_a_non_negative_integer(monkeypatch, raw):
    monkeypatch.setenv("TAILMOMENTS_THREADS", raw)
    with pytest.raises(ValueError, match="TAILMOMENTS_THREADS must be a non-negative integer"):
        run_experiment(small_config(reps=1))


def _recorded_block_sizes(monkeypatch, compute=True):
    """The list that records the replications of each block from now on; without ``compute``
    a block's estimates are ones, not computed."""
    sizes = []
    block_estimates = harness._block_estimates

    def recording(seeds, *rest):
        sizes.append(len(seeds))
        return block_estimates(seeds, *rest) if compute else np.ones((len(seeds), 4))

    monkeypatch.setattr(harness, "_block_estimates", recording)
    return sizes


def test_blocks_hold_at_most_the_value_budget(monkeypatch):
    config = small_config(reps=10)  # n=400, d=2: 800 values per replication
    block = harness.BLOCK
    assert block >= 4
    monkeypatch.setattr(harness, "BLOCK", 1)
    single = run_experiment(config).to_dict()
    monkeypatch.setattr(harness, "BLOCK", block)
    monkeypatch.setattr(harness, "BLOCK_VALUES", 3 * 800 + 799)
    sizes = _recorded_block_sizes(monkeypatch)
    assert run_experiment(config).to_dict() == single
    assert sizes == [3, 3, 3, 1]
    # a replication larger than the budget still runs, one per block
    monkeypatch.setattr(harness, "BLOCK_VALUES", 100)
    sizes.clear()
    assert run_experiment(config).to_dict() == single
    assert sizes == [1] * 10


@pytest.mark.parametrize("n", [1000, 16000, 256000])
def test_the_module_budget_sizes_blocks_by_their_values(monkeypatch, n):
    sizes = _recorded_block_sizes(monkeypatch, compute=False)
    per = min(harness.BLOCK, max(1, harness.BLOCK_VALUES // (n * 2)))
    run_experiment(small_config(n=n, k=50, reps=2 * per + 1))
    assert sizes == [per, per, 1]


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
