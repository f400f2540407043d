"""Byte-identical CLI output against golden files.

The goldens in ``tests/golden/`` were written by the ``mmudn simulate`` and
``mmudn sweep`` commands below at fixed seeds, before any change that claims
to keep results unchanged.  A mismatch means a replication's random stream,
its association or its reduction moved.  Regenerate them only on purpose
(``python tests/test_golden.py``) and say why in ``CHANGES.md``.

The λ̂ = 500 points hold ~18,000 BSs against ~36 users, so association builds
its tree over a small share of them; at λ̂ = 2 and 50 the users' cell blocks
cover most or all of the window and the tree holds most or all BSs.
"""

from __future__ import annotations

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
    "simulate_muw_dl": ("simulate", ["--set", "lambda_hat=500", "--seed", "7"]),
    "simulate_mmw_ul": (
        "simulate",
        ["--set", "tier=mmw", "--set", "direction=ul", "--set", "lambda_hat=500", "--seed", "11"],
    ),
    "sweep_muw_ul": (
        "sweep",
        ["--set", "direction=ul", "--set", "lambda_hat_grid=2,50,500", "--seed", "3"],
    ),
    "sweep_mmw_dl": (
        "sweep",
        ["--set", "tier=mmw", "--set", "lambda_hat_grid=2,50,500", "--seed", "5"],
    ),
}

CASES = [
    (f"{name}_t{threads}.{fmt}", command, [*_COMMON, *extra, "--threads", str(threads), "--format", fmt])
    for name, (command, extra) in _RUNS.items()
    for threads in (1, 2)
    for fmt in ("csv", "json")
]


def _produce(command: str, args: list[str], path: Path) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small window warns about boundary variance
        assert run([command, *args, "--output", str(path)]) == EXIT_OK


@pytest.mark.parametrize("filename,command,args", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(tmp_path, filename, command, args):
    out = tmp_path / filename
    _produce(command, args, out)
    assert out.read_bytes() == (GOLDEN_DIR / filename).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for filename, command, args in CASES:
        _produce(command, args, GOLDEN_DIR / filename)
        print(f"wrote {GOLDEN_DIR / filename}", file=sys.stderr)
