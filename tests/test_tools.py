"""The pure parts of the scripts under tools/."""

import importlib.util
from pathlib import Path

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
