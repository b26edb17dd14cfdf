"""The benchmark's runner, ``perfbench/run.py``, end to end on every
workload that ``BENCHMARK.json`` declares: a short untraced run must exit
0 and end with a JSON line whose outputs all passed their checks.

``perfbench/test_gate.py`` replays the workloads in-process, so it cannot
see a client that fails to start, prints something other than ``READY``
first or a JSON line last, or overruns the runner's deadline; each of
those makes ``run.py`` exit 2."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_runner_completes_every_workload(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert res["metrics"]["ok_ops_frac"]["value"] == 1.0
