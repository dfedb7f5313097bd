"""The pure parts of the scripts under tools/."""

import importlib.util
import json
import time
from pathlib import Path

import pytest

from tailmoments.cli import _METHODS

TOOLS = Path(__file__).resolve().parent.parent / "tools"
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.txt"


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



def _metric_runs(values):
    return [{"metrics": {"m": {"value": v}}} for v in values]


VERDICT_CASES = [
    # base quartiles 9.75, 10, 10.25: spread 0.05 inside the bound 0.25
    ("higher", [9, 10, 10, 11], [9, 10, 9, 10], "change median 5.0% worse, within the bound",
     "no"),
    ("higher", [9, 10, 10, 11], [7, 7, 7, 8], "change median 30.0% worse, by more than the bound",
     "no"),
    ("lower", [9, 10, 10, 11], [7, 7, 7, 8], "change median 30.0% better, within the bound",
     "a"),
    ("lower", [9, 10, 10, 11], [13, 13, 13, 13],
     "change median 30.0% worse, by more than the bound", "no"),
    # base quartiles 8.5, 10, 11.5: spread 0.30 wider than the bound
    ("higher", [4, 10, 10, 16], [9, 10, 11, 12], "unresolved", "no"),
    ("lower", [4, 10, 10, 16], [1, 2, 2, 3], "change median 80.0% better, within the bound",
     "a"),
    ("higher", [4, 10, 10, 16], [17, 18, 18, 19], "change median 80.0% better, within the bound",
     "a"),
    ("higher", [4, 10, 10, 16], [16, 18, 18, 19], "unresolved", "a"),  # a tie is not better
]


# the ids name each case by its direction, row and reading; the gain column is left out
@pytest.mark.parametrize("better,base,change,reading,gain", VERDICT_CASES, ids=[
    f"{case[0]}-base{i}-change{i}-{case[3]}" for i, case in enumerate(VERDICT_CASES)])
def test_ab_bench_reads_each_metric_against_its_bound(better, base, change, reading, gain):
    ab = _load("ab_bench")
    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    line = ab.verdict(metric, _metric_runs(base), _metric_runs(change))
    spread = "0.05" if base[0] == 9 else "0.30"
    assert line == (f"m: base spread {spread} (IQR/median), bound 0.25: {reading}; "
                    f"{gain} gain is shown")


# ten base runs 10 .. 19: median 14.5, quartiles 12.25 and 16.75, so an IQR of 4.5
TEN = list(range(10, 20))


@pytest.mark.parametrize("better,change,gain", [
    ("higher", [x + 10 for x in TEN[:9]] + [TEN[9] - 1], "a"),  # led 9 of 10, by 9 > 4.5
    ("higher", [x + 10 for x in TEN[:9]] + [TEN[9]], "a"),  # the tie counts for neither side
    ("higher", [x + 10 for x in TEN[:8]] + [TEN[8], TEN[9] - 1], "no"),  # led 8 of 10
    ("higher", [x + 1 for x in TEN], "no"),  # led all ten, by 1 < 4.5
    ("lower", [x - 10 for x in TEN], "a"),
    ("lower", [x + 10 for x in TEN], "no"),
], ids=["nine_of_ten", "nine_and_a_tie", "eight_of_ten", "within_the_iqr", "lower",
        "lower_worse"])
def test_ab_bench_shows_a_gain_only_past_nine_of_ten_pairs_and_the_base_iqr(better, change,
                                                                              gain):
    ab = _load("ab_bench")
    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    line = ab.verdict(metric, _metric_runs(TEN), _metric_runs(change))
    assert line.endswith(f"; {gain} gain is shown")


STUB_BENCH = """import json, os, time
touched = bytearray(TOUCH)  # zero-filled, so every page is written
if LEAK and os.fork() == 0:
    time.sleep(60)
    os._exit(0)
with open("pid", "w") as handle:
    handle.write(str(os.getpid()))
print("manifest: {}")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}))
"""


def _stub_checkout(path, leak, touch=0):
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(f"LEAK = {leak}\nTOUCH = {touch}\n" + STUB_BENCH)
    (path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher",
                         "bound": 0.25}]}))
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


def test_ab_bench_counts_each_runs_minor_page_faults(tmp_path, capsys):
    ab = _load("ab_bench")
    quiet = _stub_checkout(tmp_path / "quiet", leak=False)
    churn = _stub_checkout(tmp_path / "churn", leak=False, touch=64 << 20)  # 16384 pages
    faults = {name: ab.run_bench(path, "mc-pair", 1, 1, name)["minor_faults"]
              for name, path in (("quiet", quiet), ("churn", churn))}
    assert 0 < faults["quiet"] < faults["churn"] - 12000
    assert ab.main([str(quiet), str(churn), "--workload", "mc-pair", "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    runs = [line for line in lines if line.startswith("pair ")]
    assert len(runs) == 4 and all(" minor faults {" in line for line in runs)
    assert [line for line in lines if line.startswith("minor faults per run: base ")]


def test_output_hashes_are_a_pure_function_of_the_source_and_cover_every_method():
    oh = _load("output_hashes")
    first = oh.hashes(oh.SRC, reps=4)
    assert oh.hashes(oh.SRC, reps=4) == first
    assert len(first) == 54 and all(len(digest) == 64 for digest in first.values())
    # the harness gives the same bits serially and on a pool
    assert first["table_experiments reps=4 threads=-"] == \
        first["table_experiments reps=4 threads=2"]
    for method, known in _METHODS:
        assert any(f"--method {method} " in name and ("--known-margins" in name) == known
                   for name in first if name.startswith("estimate ")), (method, known)


def test_the_outputs_match_the_golden_lines():
    oh = _load("output_hashes")
    assert oh.differences(GOLDEN.read_text(), oh.hashes()) == []


def test_a_golden_mismatch_names_each_line_or_both_numpy_versions():
    oh = _load("output_hashes")
    digests = {"a x": "1" * 64, "b": "2" * 64}
    numpy, python = oh.versions()
    golden = "".join(f"{line}\n" for line in [numpy, python, f"a x {'1' * 64}", f"b {'2' * 64}",
                                               f"combined {oh.combined(digests)}"])
    assert oh.differences(golden, digests) == []
    assert oh.differences(golden.replace(python, "python 0.1"), digests) == []
    assert oh.differences(golden, {"a x": "3" * 64, "b": "2" * 64, "c": "4" * 64}) == \
        ["a x: differs", "combined: differs", "c: new"]
    assert oh.differences(golden, {"b": "2" * 64}) == ["a x: missing", "combined: differs"]
    assert oh.differences(golden.replace(numpy, "numpy 1.0"), digests) == \
        [f"the golden outputs were made with numpy 1.0, this is {numpy}"]
