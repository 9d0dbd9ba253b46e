"""The benchmark's traced run on every workload: its answer checks and its trace contract.

``perfbench/run.py --trace 1`` runs every workload's operations against
their expected answers and checks that each layer the workload names in
``COVERAGE`` records a call and that no binding escapes the tracer.  A
problem prints a ``perfbench: FAILED`` line and makes the last line read
``correct: false``.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["pole_sweep", "appendix_checks", "exceptional_cosets"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--trace", "1", "--seed", "7"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "perfbench: FAILED" not in proc.stdout + proc.stderr, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stdout
