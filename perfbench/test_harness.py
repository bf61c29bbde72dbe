"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_harness.py

Run from the root of a checkout; the tiny runs write under ./.perfbench.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import outermost_time, self_times  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    assert run.tail_latency(samples) == (90.0, 90.0)
    value, percentile = run.tail_latency([float(v) for v in range(1, 22)])
    assert value == 11.0 and 21 - 11 == 10 and abs(percentile - 100 * 11 / 21) < 1e-12


def test_tail_falls_back_to_median_below_21_samples():
    assert run.tail_latency([5.0, 1.0, 3.0]) == (3.0, 50.0)
    assert run.tail_latency([float(v) for v in range(20)]) == (9.5, 50.0)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("a", None, 0.0, 10.0, -1, 0),
        ("b", None, 1.0, 4.0, 0, 0),
        ("c", None, 2.0, 3.0, 1, 0),
        ("d", None, 3.5, 6.0, 0, 0),  # overlaps b: a's children cover [1, 6]
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.5]
    assert outermost_time(spans, lambda name: name in ("b", "c")) == 3.0


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.05", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_tiny_runs_print_every_metric_and_pass_their_checks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(entry["name"], trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in spec[group]}
            for metric in spec[group]:
                assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("catalog", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
