"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the
repository root.

The smoke tests run every workload end to end at a tiny size (n=200,
2 seconds, no sample floor), traced and untraced, against the real
server; the rest check the span arithmetic and that ``BENCHMARK.json``
names exactly what the benchmark prints.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import layers  # noqa: E402
import run  # noqa: E402

SMOKE_N = 200
SMOKE_SECONDS = 2.0


def smoke_workload(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], n=SMOKE_N, max_rps=20.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        [1, None, "manager.detect", "m-0", 0.0, 10.0, None],
        [2, 1, "session.detect", "m-0", 1.0, 9.0, {"algorithm": "oca"}],
        [3, 2, "grow", "m-0", 2.0, 5.0, {"moves": 3}],
        [4, 2, "grow", "m-0", 5.0, 8.0, {"moves": 5}],
    ]
    own = layers.self_times(spans)
    assert own == {1: 2.0, 2: 2.0, 3: 3.0, 4: 3.0}


def test_covered_merges_overlaps_and_clips_to_the_window():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 12.0)]
    assert layers._covered(intervals, 0.5, 10.0) == pytest.approx(2.5 + 5.0)


def test_per_layer_metrics_report_every_declared_metric():
    spans = [
        [1, None, "service.parse", "m-0", 0.0, 0.1, None],
        [2, None, "queue.serve", "m-0", 0.3, 1.0, {"wait": 0.2, "group": 1}],
        [3, 2, "manager.detect", "m-0", 0.3, 1.0, {"hit": True}],
        [4, 3, "session.detect", "m-0", 0.31, 0.99, {"algorithm": "oca"}],
        [5, 4, "grow", "m-0", 0.4, 0.9, {"moves": 50}],
        [6, None, "service.render", "m-0", 1.0, 1.05, None],
    ]
    requests = {"m-0": {"outcome": "ok", "sent": 0.0, "done": 1.1, "bytes": 10}}
    metrics, shares = layers.per_layer_metrics(spans, requests, "http", 0.01, 0.002)
    assert list(metrics) == list(layers.PER_LAYER_UNITS)
    assert metrics["grow.moves"] == 50
    assert metrics["grow.us_per_move"] == pytest.approx(0.5 / 50 * 1e6)
    assert shares["grow_of_oca_detect"] == pytest.approx(0.5 / 0.68)
    assert metrics["queue.wait_p50_s"] == pytest.approx(0.2)
    # 1.1 s seen by the client; the server covered 0.0-0.1 and 0.1-1.05.
    assert metrics["frontend.http.self_s"] == pytest.approx(1.1 - (0.1 + 0.95))
    assert metrics["frontend.socket.self_s"] == 0.0


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_oca", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_run(name, trace):
    report = run.run(
        REPO, smoke_workload(name), seed=7, seconds=SMOKE_SECONDS, trace=trace,
        min_samples=0,
    )
    assert report["correct"], report["problems"]
    assert report["failures"]["mismatch"] == 0
    assert report["attempted"] >= 1
    assert report["failed"] == 0
    line = run.result_line(report, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = layers.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert list(line["metrics"]) == list(expected)
    if not trace:
        for metric in line["metrics"].values():
            assert metric["value"] > 0
