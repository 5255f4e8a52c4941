"""Smoke test of the benchmark: every workload at a tiny input size.

Each end-to-end metric named in BENCHMARK.json must be printed with its
unit, and so must points_per_s, max_dev, failed_checks and error_rate,
which the report lines give but BENCHMARK.json does not gate. The traced
run must print every per-layer metric and pass the tracer self-check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    report, result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in report if line.startswith("  ") and len(line.split()) > 2}
    reported = {"points_per_s": "1/s", "max_dev": "abs", "failed_checks": "count", "error_rate": "ratio"}
    for name, unit in {**units, **reported}.items():
        assert printed.get(name) == unit, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_passes_self_check(workload):
    report, result = run_bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert any(line.startswith("  self-check: pass") for line in report)
