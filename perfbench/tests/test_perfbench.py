"""Tests of the benchmark itself, on tiny passes.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.core import transactions as txmod  # noqa: E402

from perfbench import report  # noqa: E402
from perfbench.run import WORKLOADS, execute  # noqa: E402
from perfbench.workloads import make_workloads  # noqa: E402


@pytest.fixture(autouse=True)
def keep_tx_counter():
    """The benchmark restarts the global id counter; give it back after."""
    saved = txmod._tx_counter
    yield
    txmod._tx_counter = saved


def tiny(workload: str, tmp_path: Path, seed: int = 1, trace: bool = False) -> dict:
    return execute(workload, seed, 0.0, trace, tmp_path, tiny=True, min_samples=1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_checks(workload, tmp_path):
    record = tiny(workload, tmp_path)
    result = record["result"]
    assert record["problems"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(report.END_TO_END)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reaches_the_untraced_digest(workload, tmp_path):
    traced = tiny(workload, tmp_path, trace=True)
    untraced = tiny(workload, tmp_path)
    # A traced run checks its traced passes against its untraced ones too.
    assert traced["problems"] == []
    assert traced["digest"] == untraced["digest"]
    metrics = traced["result"]["metrics"]
    assert list(metrics) == list(report.PER_LAYER)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert metrics["crypto.keccak_calls"]["value"] > 0
    assert Path(traced["trace_file"]).exists()


def test_phase_times_and_remainder_add_up_to_the_epoch_wall(tmp_path):
    metrics = tiny("epoch_boundary", tmp_path, trace=True)["result"]["metrics"]
    parts = [v["value"] for k, v in metrics.items() if k.startswith("phase.")]
    assert sum(parts) == pytest.approx(metrics["epoch.wall_ms"]["value"])
    assert metrics["phase.remainder.ms"]["value"] >= 0


def test_another_seed_gives_other_inputs_that_still_pass(tmp_path):
    workload = make_workloads(tiny=True)["epoch_swaps"]
    first, second = workload.prepare(1), workload.prepare(2)
    amounts = [[tx.__dict__.get("amount") for tx in txs] for _, _, txs, _ in first["rounds"]]
    other = [[tx.__dict__.get("amount") for tx in txs] for _, _, txs, _ in second["rounds"]]
    assert amounts != other
    one, two = tiny("epoch_swaps", tmp_path, seed=1), tiny("epoch_swaps", tmp_path, seed=2)
    assert one["result"]["correct"] and two["result"]["correct"]
    assert one["digest"] != two["digest"]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == report.PER_LAYER


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serving", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
