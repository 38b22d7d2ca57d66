"""Checks on the benchmark itself; run with ``python3 -m pytest perfbench``.

Each traced run takes tens of seconds, so the repository's default test
run (``testpaths = tests``) leaves this file out.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_between_runs(workload):
    first, second = (_result(_run(ROOT, workload, 11, 1)) for _ in range(2))
    names = {m["name"] for m in SPEC["per_layer"]}
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == names
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] != "s"}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if v["unit"] != "s"}


def test_untraced_run_reports_every_end_to_end_metric():
    res = _result(_run(ROOT, "search", 2, 0))
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "search", 1, 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
