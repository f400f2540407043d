"""Byte-identical CLI output against golden files.

The goldens in ``tests/golden/`` were written by the ``mmudn`` commands
below (``sweep`` at fixed seeds, plus the analytic ``blockage``, ``se`` and
``allocate``), before any change that claims to keep results unchanged.  A mismatch means a replication's random stream, its
association, its reduction, a closed form or the output format moved.
Regenerate them only on purpose and say why in ``CHANGES.md``:
``python tests/test_golden.py`` rewrites all of them, and
``python tests/test_golden.py NAME...`` only the named ones, where NAME is a
file name (``se_mmw.csv``), a run name covering both formats (``se_mmw``) or,
for the Monte Carlo runs, a run name covering both worker counts as well
(``sweep_mmw_dl``).

The analytic grids run from λ̂ = 1.05 to 1e4, so ``se`` covers the clamped
lower bounds near λ̂ = 1 and ``allocate`` labels points C_L+D, C_L and C_H.

The λ̂ = 500 points hold ~18,000 BSs against ~36 users, so association draws
a small share of them; at λ̂ = 2 and 50 the users' cell blocks cover most or
all of the window, and it draws most or all BSs.
"""

from __future__ import annotations

import re
import sys
import warnings
from pathlib import Path

import pytest

from mmudn.cli import EXIT_OK, run

GOLDEN_DIR = Path(__file__).parent / "golden"

_COMMON = [
    "--set", "lambda_u_per_m2=0.01",
    "--set", "window_side_m=60",
    "--set", "replications=10",
    "--set", "fading_draws=5",
]

# name -> (command, extra arguments)
_RUNS = {
    # One-point sweeps, first written by a single-point ``simulate`` command
    # whose rows they still match byte for byte.
    "simulate_muw_dl": ("sweep", ["--set", "lambda_hat_grid=500", "--set", "seed=7"]),
    "simulate_mmw_ul": (
        "sweep",
        ["--set", "tier=mmw", "--set", "direction=ul", "--set", "lambda_hat_grid=500", "--set", "seed=11"],
    ),
    "sweep_muw_ul": (
        "sweep",
        ["--set", "direction=ul", "--set", "lambda_hat_grid=2,50,500", "--set", "seed=3"],
    ),
    "sweep_mmw_dl": (
        "sweep",
        ["--set", "tier=mmw", "--set", "lambda_hat_grid=2,50,500", "--set", "seed=5"],
    ),
    # Written after the change that computes the uW bounds at the grid value
    # itself: at lambda_hat = 7 and 14 that moves their last bit (JSON only).
    "sweep_muw_dl": ("sweep", ["--set", "lambda_hat_grid=7,14", "--set", "seed=9"]),
}

_GRID = ["--set", "lambda_hat_grid=1.05:1e4:40"]

# Analytic runs: no randomness and no workers, so one golden per format.
_ANALYTIC_RUNS = {
    "blockage": ("blockage", []),
    "se_muw": ("se", ["--set", "tier=muw", *_GRID]),
    "se_mmw": ("se", ["--set", "tier=mmw", *_GRID]),
    "allocate": ("allocate", _GRID),
    "allocate_zeta": ("allocate", ["--set", "zeta=0.05", *_GRID]),
    # Written after the decoupled D branch learned to fill the whole mmW band:
    # at R_L = 10 m and lambda_hat = 1.05 the decoupled optimum is beta_m = 1
    # with part of the uW band, which used to exit 2.
    "allocate_r10": ("allocate", ["--set", "r_los_m=10", *_GRID]),
}

CASES = [
    (f"{name}_t{threads}.{fmt}", command, [*_COMMON, *extra, "--set", f"threads={threads}", "--format", fmt])
    for name, (command, extra) in _RUNS.items()
    for threads in (1, 2)
    for fmt in ("csv", "json")
] + [
    (f"{name}.{fmt}", command, [*extra, "--format", fmt])
    for name, (command, extra) in _ANALYTIC_RUNS.items()
    for fmt in ("csv", "json")
]


def _produce(command: str, args: list[str], path: Path) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small window warns that it leaves out far interference
        assert run([command, *args, "--output", str(path)]) == EXIT_OK


@pytest.mark.parametrize("filename,command,args", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(tmp_path, filename, command, args):
    out = tmp_path / filename
    _produce(command, args, out)
    assert out.read_bytes() == (GOLDEN_DIR / filename).read_bytes()


def _names_of(filename: str) -> tuple[str, ...]:
    """``sweep_mmw_dl_t1.csv`` answers to itself, ``sweep_mmw_dl_t1`` and
    ``sweep_mmw_dl``."""
    stem = filename.rsplit(".", 1)[0]
    return (filename, stem, re.sub(r"_t\d+$", "", stem))


def _selected(names: list[str]) -> list[tuple]:
    """The cases named by file name or by run name (``se_mmw`` covers
    ``se_mmw.csv`` and ``se_mmw.json``); all of them when none is named."""
    if not names:
        return CASES
    unknown = [n for n in names if not any(n in _names_of(f) for f, _, _ in CASES)]
    if unknown:
        raise SystemExit(f"unknown golden(s): {', '.join(unknown)}")
    return [c for c in CASES if set(names) & set(_names_of(c[0]))]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for filename, command, args in _selected(sys.argv[1:]):
        _produce(command, args, GOLDEN_DIR / filename)
        print(f"wrote {GOLDEN_DIR / filename}", file=sys.stderr)
