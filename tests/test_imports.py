"""Import scope: each ``mmudn`` command loads only the modules it runs, and
the package's re-exports load their home module on first access.

The scope checks run in fresh interpreters, because this test session has
long since imported numpy and scipy.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmudn

SRC = Path(__file__).resolve().parents[1] / "src"


def _last_json(code: str):
    """The JSON value printed last by ``code`` run in a fresh interpreter
    that imports mmudn from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(code: str) -> set[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    return set(_last_json(f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def _scipy(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


def _cli_run(*argv: str) -> str:
    args = [*argv, "--output", os.devnull]
    return f"from mmudn.cli import run\nassert run({args!r}) == 0"


def test_package_and_cli_import_load_no_numpy_or_scipy():
    loaded = _modules_after("import mmudn, mmudn.cli")
    assert "numpy" not in loaded
    assert _scipy(loaded) == []


def test_allocate_loads_no_scipy():
    loaded = _modules_after(_cli_run("allocate", "--set", "lambda_hat_grid=1.05:1e4:40"))
    assert _scipy(loaded) == []


def test_blockage_loads_no_scipy():
    assert _scipy(_modules_after(_cli_run("blockage"))) == []


@pytest.mark.parametrize("tier", ["mmw", "muw"])
def test_se_loads_no_scipy_and_no_simulator(tier):
    loaded = _modules_after(_cli_run("se", "--set", f"tier={tier}", "--set", "lambda_hat_grid=1.05:1e4:40"))
    assert _scipy(loaded) == []
    assert "mmudn.simulator" not in loaded


def test_se_muw_loads_no_numpy():
    # A comma grid needs no numpy to expand, and the uW bounds are closed form.
    loaded = _modules_after(_cli_run("se", "--set", "tier=muw", "--set", "lambda_hat_grid=1.05,10,1e4"))
    assert "numpy" not in loaded


def test_simulator_and_parallel_sweep_load_no_scipy():
    # Association searches a cell list, not a KD-tree.  The sweep's pool
    # workers are forked during the run, so they are asked for their modules
    # by a function defined before it; two CPUs are pinned so that the pool
    # exists on any host.
    assert _scipy(_modules_after("import mmudn.simulator")) == []
    sweep = _cli_run(
        "sweep", "--set", "threads=2", "--set", "replications=4",
        "--set", "fading_draws=2", "--set", "lambda_hat_grid=10",
    )
    code = (
        "import json, os, sys\n"
        "def worker_modules():\n"
        "    return sorted(sys.modules)\n"
        "os.cpu_count = lambda: 2\n"
        f"{sweep}\n"
        "from mmudn import simulator\n"
        "print(json.dumps([sorted(sys.modules), simulator._pool.submit(worker_modules).result()]))"
    )
    main, worker = _last_json(code)
    assert "mmudn.simulator" in main and "mmudn.pointprocess" in worker
    assert _scipy(set(main)) == [] and _scipy(set(worker)) == []


_HOMES = {
    "NetworkParams": "analytic_se",
    "SEBounds": "analytic_se",
    "Allocation": "allocation",
    "RatePair": "allocation",
    "RegionLabel": "allocation",
    "SpectrumParams": "allocation",
    "BlockageParams": "blockage",
    "BuildingStats": "blockage",
    "Window": "pointprocess",
    "SEEstimate": "simulator",
    "SimConfig": "simulator",
}


def test_reexports_are_the_home_module_objects():
    assert set(mmudn.__all__) == {*_HOMES, "__version__"}
    for name, home in _HOMES.items():
        assert getattr(mmudn, name) is getattr(importlib.import_module(f"mmudn.{home}"), name)


def test_from_import_and_unknown_name():
    from mmudn import SimConfig
    from mmudn.simulator import SimConfig as home

    assert SimConfig is home
    with pytest.raises(AttributeError):
        mmudn.no_such_name
