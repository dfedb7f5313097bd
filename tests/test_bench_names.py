"""The names the benchmark reads of the package, checked in seconds from its own code.

``bench/`` is put on ``sys.path`` and only read: its trace targets must
resolve, and the library calls of its workloads must run on their tiny
inputs, so that removing a name the benchmark reads fails here too.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: sys.modules.pop(name, None) for name in ("workloads", "tracing")}
    yield importlib.import_module("workloads")
    for name, module in saved.items():
        sys.modules.pop(name, None)
        if module is not None:
            sys.modules[name] = module


def test_every_trace_target_of_the_benchmark_exists(workloads):
    targets = workloads.library_targets()
    assert targets
    missing = [f"{t.module}.{t.attr}" for t in targets
               if not hasattr(importlib.import_module(t.module), t.attr)]
    assert missing == []


def test_the_estimate_workloads_library_calls_run(workloads, tmp_path):
    workload = workloads.make_workload("estimate-large", True, 1)
    workload.build(3, str(tmp_path))
    methods = [name for name, _ in workload.commands()]
    assert methods == ["bk", "mk", "hill", "bu", "mu", "moment"]
    for name in methods:
        report = workload._direct(workload.x, name, workload.k)
        assert np.isfinite(report.estimate), name


def test_the_monte_carlo_workloads_replay_passes(workloads, tmp_path):
    workload = workloads.make_workload("mc-pair", True, 1)
    workload.build(3, str(tmp_path))
    units = [workload.run_unit(0)]
    assert workload.check(units) == (0, [])


def test_the_estimate_workloads_replay_passes(workloads, tmp_path):
    # the CLI's reports equal the library calls the benchmark compares them with
    workload = workloads.make_workload("estimate-large", True, 1)
    workload.build(3, str(tmp_path))
    try:
        units = [workload.run_unit(i) for i in range(len(workload.commands()))]
        assert workload.check(units) == (0, [])
    finally:
        workload.close()
