"""The traced benchmark run: one round of each workload BENCHMARK.json names
must exit 0 and end its output with a strict-JSON result holding every
per-layer metric. Runs perfbench/run.py in a subprocess, as BENCHMARK.json's
command does, and changes nothing under perfbench/."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _refuse(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_benchmark_round_ends_with_a_strict_result(workload):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    result = json.loads(lines[-1], parse_constant=_refuse)
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"] for m in BENCHMARK["per_layer"]} | {"host.ref_loop_s"}
    assert set(result["metrics"]) == want
