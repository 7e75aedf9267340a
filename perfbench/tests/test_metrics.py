import json
from pathlib import Path

import pytest

from layers import PER_LAYER
from run import end_to_end_metrics
from workloads import WORKLOADS, make_signal

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_medians_and_throughput():
    m = end_to_end_metrics([3.0, 1.0, 2.0, 10.0], [2048, 1024, 4096],
                           [0.5, 0.25, 0.75], samples=1000)
    assert m["wall_s"] == {"value": 2.5, "unit": "s"}
    assert m["samples_per_s"] == {"value": 400.0, "unit": "1/s"}
    assert m["peak_rss_mb"] == {"value": 2.0, "unit": "MB"}
    assert m["setup_s"] == {"value": 0.5, "unit": "s"}


def test_odd_sample_count_takes_the_middle_value():
    m = end_to_end_metrics([4.0, 1.0, 2.0], [1], [1.0], samples=1 << 20)
    assert m["wall_s"]["value"] == 2.0
    assert m["samples_per_s"]["value"] == pytest.approx(2**19)


def test_benchmark_json_matches_what_the_runner_reports():
    e2e = end_to_end_metrics([1.0], [1], [1.0], samples=1)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_signal_depends_only_on_seed():
    a = make_signal(4096, seed=5)
    assert a.tobytes() == make_signal(4096, seed=5).tobytes()
    assert a.tobytes() != make_signal(4096, seed=6).tobytes()
