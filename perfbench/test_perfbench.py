"""Toy-size tests of the benchmark itself.

Run from the root of the repository with ``python3 -m pytest perfbench``.
Each test starts ``perfbench/run.py --smoke`` in a fresh process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, root=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def last_lines(proc):
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail), json.loads(result)


def units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_operation_passes_its_checks(workload):
    detail, result = last_lines(run(workload, trace=0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units(result["metrics"]) == {m["name"]: m["unit"]
                                        for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = detail["environment"]
    assert env["seed"] == 3 and env["blas_threads"] <= 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_work_counts_repeat_between_runs(workload):
    first, second = (last_lines(run(workload, trace=1)) for _ in range(2))
    for detail, result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert units(result["metrics"]) == {m["name"]: m["unit"]
                                            for m in SPEC["per_layer"]}
        assert detail["untraced_targets"] == []
    assert first[0]["work_counts"] == second[0]["work_counts"]
    assert first[0]["work_counts"]  # something was traced


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
