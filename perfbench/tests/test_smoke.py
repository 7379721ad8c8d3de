"""Smoke test of the benchmark harness: a few operations per workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = run.load_spec()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", ["sweep", "surface", "foliation"])
def test_every_metric_reported_without_failures(workload, trace):
    record = run.run_benchmark(workload, run.DEFAULT_SEED, seconds=0.2,
                               trace=trace, setup_repeats=1)
    assert record["failures"] == []
    assert record["fail_ratio"] == 0.0
    assert record["seed"] == run.DEFAULT_SEED
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = record["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and entry["unit"]
        assert math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0.0 for entry in record["metrics"].values())
        assert record["other_values"]["op_ms.p50"] > 0.0
    env = record["environment"]
    for key in ("nproc", "blas", "python", "numpy", "scipy", "git_commit"):
        assert key in env
    if workload == "sweep":
        digests = record["payload_digests"]
        assert len(set(digests.values())) == 1
        assert ("workers1_traced" in digests) == trace


def test_summary_line_is_last_and_exact(capsys):
    record = run.run_benchmark("foliation", run.HELD_OUT_SEED, seconds=0.2,
                               trace=False, setup_repeats=1)
    line = json.loads(run.summary_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
