"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from cases import WORKLOADS  # noqa: E402
from run import END_TO_END, Run  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = END_TO_END if trace == "0" else LAYER_UNITS
    assert set(result["metrics"]) == set(names)
    for name, m in result["metrics"].items():
        assert m["unit"] == names[name]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_output_digest():
    digests = set()
    for _ in range(2):
        out = _bench("--workload", "grouped-replay", "--seed", "5", "--seconds", "1", "--tiny")
        assert out.returncode == 0, out.stderr
        digests |= {line for line in out.stdout.splitlines() if line.startswith("output digest")}
    assert len(digests) == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    out = _bench("--workload", "grouped-replay", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_changed_output_counts_as_failed_op():
    run = Run()
    run.expect_same("op", [1, 2])
    run.pass_no = 1
    run.expect_same("op", [1, 2])
    assert run.failed == 0
    run.expect_same("op", [1, 3])
    run.expect_same("op", [1, 4])  # one op fails once per pass
    assert run.failed == 1


def test_raising_op_counts_as_failed():
    run = Run()
    out, dt = run.op("boom", lambda: 1 / 0)
    assert out is None and dt >= 0
    assert run.attempted == 1 and run.failed == 1
