"""The benchmark harness runs against this checkout.

A traced ``analytic_cli`` run with no timed rounds also runs a census of
``mc_all_receivers`` through the hooks ``perfbench/workloads.py`` patches on
``mmudn.simulator``, so a library change that breaks those hooks fails
here, not only in a benchmark run.  A traced ``mc_acceptance`` run covers
the pooled Monte Carlo path and ``validate_homogenization``.  Each run is
deterministic for a fixed seed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_run(workload):
    """(record, result) of a traced run of ``workload`` with no timed rounds."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, record, result = proc.stdout.splitlines()
    assert record.startswith("record: "), proc.stdout[-2000:]
    result = json.loads(result)
    assert result["correct"] is True, proc.stdout[-2000:]
    return json.loads(record.removeprefix("record: ")), result


def test_traced_analytic_run_is_correct():
    _, result = _traced_run("analytic_cli")
    assert result["failed"] == 0, result


def test_traced_pooled_monte_carlo_run_is_correct():
    # The sparse mmW operations report a finite mean from n = 0 (the silent
    # zero); no other operation may fail.  Their count is not pinned.
    record, _ = _traced_run("mc_acceptance")
    assert all(failure.startswith("sparse mmw ") for failure in record["failures"]), record["failures"]
