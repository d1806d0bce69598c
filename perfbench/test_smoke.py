"""Smoke test of the benchmark harness on its tiny configuration.

    python3 -m pytest perfbench/test_smoke.py -q

The tiny configuration scans modes 0..20 and computes one short disk
band, so the whole file runs in about a minute.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--trace", str(trace))
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    lines = [line.split() for line in proc.stdout.splitlines()]
    for m in declared:
        assert any(w and w[0] == m["name"] and w[-1] == m["unit"] for w in lines), m["name"]


def test_traced_counts_repeat_exactly():
    runs = [result_of(bench("--workload", "scan-transparent", "--seed", "2", "--trace", "1"))
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["disk.roots"] > 0


def test_refuses_more_workers_than_cores():
    proc = bench("--workload", "scan-damping-pool", "--workers", str(len(os.sched_getaffinity(0)) + 1))
    assert proc.returncode != 0 and not proc.stdout.strip()


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout.strip()
