"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced.  Every metric named in BENCHMARK.json must be printed with its unit
and a finite value, every gate must pass, and in the traced run the layer
self times plus the unattributed remainder must add up to the traced wall time.

Run with: python3 -m pytest perfbench
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
LAYERS = ("model", "config", "forward", "adjoint", "ergodic_cost", "duality", "smp", "cli")


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    gates = json.loads(lines[-3].split(" ", 1)[1])
    return json.loads(lines[-1]), gates


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    result, gates = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert gates and all(g["passed"] for g in gates.values())
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(values[f"{layer}.self_s"] for layer in LAYERS) + values["trace.unattributed_s"]
        assert abs(total - values["trace.wall_s"]) < 1e-9
        assert values["trace.unattributed_s"] >= 0.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_export", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
