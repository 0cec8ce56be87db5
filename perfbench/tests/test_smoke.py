"""Tiny-scale runs of every workload through the benchmark's entry point."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_stable_across_seeds(workload):
    names = []
    for seed in (3, 4):
        metrics = result_of(run(ROOT, workload, seed, 0))["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == END_TO_END
        assert all(v["value"] > 0 for v in metrics.values())
        names.append(sorted(metrics))
    assert names[0] == names[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    metrics = result_of(run(ROOT, workload, 3, 1))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
    assert 0 < metrics["tracing.overhead"]["value"] <= 1.5
    report = json.loads((ROOT / ".perfbench_out" /
                         f"{workload}-tiny-3-trace1.json").read_text())
    from harness import layers

    assert set(report["layers"]) == set(layers.UNITS)
    spans = json.loads((ROOT / ".perfbench_out" /
                        f"spans-{workload}-tiny-3.json").read_text())
    assert spans["layers"]["spans"]
    for section in spans.values():
        assert all(s["end"] >= s["start"] for s in section["spans"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "offline-fig5", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
