"""Smoke tests of the benchmark itself: python3 -m pytest -q perfbench

Each test runs run.py the way the benchmark is run, at smoke size, and
checks its last output line against BENCHMARK.json.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc, lines = run("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        if trace == "0":
            assert value["value"] > 0
    assert any(line.startswith("env ") for line in lines)


def test_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc, lines = run("--workload", "tail-norm-n64", "--seed", "5", "--seconds", "1",
                          "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(lines[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", "_enumerated", "_fraction", "_ratio"))})
    assert counts[0] == counts[1]
    assert counts[0]["ensembles.sample.calls"] > 0


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracles",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
