"""The benchmark harness runs against this checkout.

A traced ``analytic_cli`` run with no timed rounds also runs a census of
``mc_all_receivers`` through the hooks ``perfbench/workloads.py`` patches on
``mmudn.simulator``, so a library change that breaks those hooks fails
here, not only in a benchmark run.  The run is deterministic for a fixed
seed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_analytic_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic_cli",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0, proc.stdout[-2000:]
