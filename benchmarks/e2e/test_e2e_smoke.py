"""Smoke test of the end-to-end benchmark at its smallest scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Each
workload runs once untraced and once traced at ``--scale smoke``, every
run in its own subprocess, one after another.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, out: Path) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "0",
            "--seconds", "2",
            "--scale", "smoke",
            "--trace", str(trace),
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def printed(lines: list[str], name: str, unit: str) -> bool:
    """True when a ``name value unit`` line is in the output."""
    return any(
        len(fields) == 3 and fields[0] == name and fields[2] == unit
        for fields in (line.split() for line in lines)
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    lines, result = run(workload, 0, tmp_path)
    assert result["correct"]
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed(lines, metric["name"], metric["unit"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload, tmp_path):
    lines, result = run(workload, 1, tmp_path)
    assert result["correct"], "correctness or reconciliation check failed"
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert printed(lines, metric["name"], metric["unit"])
    spans = (tmp_path / f"{workload}-seed0.spans.jsonl").read_text()
    assert spans.count("\n") > 0
