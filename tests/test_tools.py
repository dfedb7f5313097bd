"""The pure parts of the scripts under tools/."""

import importlib.util
import json
import time
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(values):
    return [{"metrics": {"ops_per_s": {"value": v}, "peak_rss_mb": {"value": v}}}
            for v in values]


def test_ab_bench_counts_the_pairs_the_change_led_in_the_better_direction():
    ab = _load("ab_bench")
    metrics = [{"name": "ops_per_s", "unit": "1/s", "better": "higher"},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]
    base, change = _runs([10.0, 20.0, 30.0, 40.0]), _runs([11.0, 20.0, 29.0, 50.0])
    faster, smaller = ab.summary(metrics, base, change)
    assert faster.endswith("change led 2 of 4 pairs")  # the tie counts for neither side
    assert smaller.endswith("change led 1 of 4 pairs")
    assert "base 25 [17.5, 32.5]" in faster
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)


STUB_BENCH = """import json, os, time
if LEAK and os.fork() == 0:
    time.sleep(60)
    os._exit(0)
with open("pid", "w") as handle:
    handle.write(str(os.getpid()))
print("manifest: {}")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}))
"""


def _stub_checkout(path, leak):
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(f"LEAK = {leak}\n" + STUB_BENCH)
    (path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher"}]}))
    return path


def test_ab_bench_fails_a_run_that_leaves_a_process_of_its_group_running(tmp_path):
    ab = _load("ab_bench")
    base = _stub_checkout(tmp_path / "base", leak=True)
    change = _stub_checkout(tmp_path / "change", leak=False)
    assert ab.run_bench(change, "mc-pair", 5, 1, "change")["metrics"]["ops_per_s"]["value"] == 1.0
    with pytest.raises(SystemExit, match="base seed 5: .* left a process of its group running"):
        ab.main([str(base), str(change), "--workload", "mc-pair", "--pairs", "1", "--seed", "5"])
    pgid = int((base / "pid").read_text())  # the stub leads its group
    deadline = time.monotonic() + 10
    while ab._group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not ab._group_alive(pgid)
