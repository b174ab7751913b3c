"""Smoke test of the benchmark itself (tiny sizes, cut-down sweep).

    python3 -m pytest bench/test_bench.py -q

Runs every workload in both modes and checks that every metric is printed
with its unit, that the JSON line carries exactly the metrics BENCHMARK.json
declares, that no invocation failed, and that scratch artifacts stay in the
temporary directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / BENCH_DIR.name / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace, tmp_path):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke", "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()

    for name, unit in run.report_metrics(workload, trace).items():
        assert any(ln.startswith(f"{name}: ") and f" {unit} (" in ln for ln in lines), name
    if not trace:
        assert any(ln.startswith("failed_share: 0.0 ratio") for ln in lines)

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared

    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == ([f"trace-{workload}.json"] if trace else [])


def test_traced_spans_cover_the_layers(tmp_path):
    proc = _bench(ROOT, "--workload", "mc_pascal_lattice", "--seed", "3", "--seconds", "0",
                  "--trace", "1", "--smoke", "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "trace-mc_pascal_lattice.json").read_text())
    names = {span[2] for span in trace["spans"]}
    assert {"cli.simulate", "cli.verify", "cli.tails", "simulate.sample_ensemble",
            "simulate.load_ensemble", "simulate.ensemble_to_csv",
            "empirics.estimate_conditional"} <= names
    assert trace["core"]["calls"] > 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(tmp_path, "--workload", "analytic", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
