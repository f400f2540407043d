import io
import json
import math
import re
import warnings
from pathlib import Path

import pytest

from mmudn import blockage as blk
from mmudn.allocation import SWEEP_CSV_HEADER
from mmudn.cli import (
    _COMMANDS,
    _KEYS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    _emit,
    read_output_csv,
    run,
)
from mmudn.simulator import SE_CSV_HEADER

FAST_SIM = [
    "--set",
    "replications=6",
    "--set",
    "fading_draws=4",
    "--set",
    "window_side_m=1500",
]


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- blockage ---------------------------------------------------------------


def test_blockage_matches_library(tmp_path, capsys):
    out = tmp_path / "blockage.csv"
    code, _, _ = _run(capsys, "blockage", "--output", str(out))
    assert code == EXIT_OK
    header, rows = read_output_csv(str(out))
    assert "input =" in header
    assert len(rows) == len(blk.REFERENCE_REGIONS)
    for row in rows:
        p = blk.blockage_params(blk.REFERENCE_REGIONS[row["region"]]["stats"])
        assert row["beta"] == pytest.approx(p.beta, rel=1e-9)
        assert row["eta"] == pytest.approx(p.eta, rel=1e-9)
        assert row["r_los_2d_m"] == pytest.approx(p.r_los_2d, rel=1e-9)
        assert row["r_los_3d_m"] == pytest.approx(p.r_los_3d, rel=1e-9)


def test_blockage_custom_input_not_mutated(tmp_path, capsys):
    src = tmp_path / "stats.csv"
    src.write_text(
        "region,avg_perimeter_m,avg_area_m2,coverage_fraction,"
        "lognormal_mu,lognormal_sigma,floor_height_m,bs_height_m\n"
        "Test,120.0,600.0,0.3,1.5,0.3,3.0,12.0\n"
    )
    before = src.read_text()
    code, _, _ = _run(
        capsys, "blockage", "--set", f"input={src}", "--output", str(tmp_path / "o.csv")
    )
    assert code == EXIT_OK
    assert src.read_text() == before
    _, rows = read_output_csv(str(tmp_path / "o.csv"))
    assert rows[0]["region"] == "Test"


# --- se / allocate ------------------------------------------------------------


def test_se_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "se.csv"
    code, _, _ = _run(
        capsys, "se", "--output", str(out), "--set", "lambda_hat_grid=10,100"
    )
    assert code == EXIT_OK
    _, rows = read_output_csv(str(out))
    assert [r["lambda_hat"] for r in rows] == [10.0, 100.0]
    assert all(r["lower_bound"] <= r["upper_bound"] for r in rows)


def test_allocate_stdout_and_json(tmp_path, capsys):
    code, out_text, _ = _run(capsys, "allocate", "--set", "lambda_hat_grid=10,100")
    assert code == EXIT_OK
    assert "lambda_hat_m,region,beta_m,beta_mu,r_d,r_u,r_d_decoupled,gain" in out_text
    # Every emitted line above the table is a config echo.
    assert all(
        line.startswith("#") for line in out_text.splitlines() if " = " in line
    )
    code, json_text, _ = _run(
        capsys, "allocate", "--format", "json", "--set", "lambda_hat_grid=10"
    )
    assert code == EXIT_OK
    doc = json.loads(json_text)
    assert doc["rows"][0]["lambda_hat_m"] == 10.0
    assert any(line.startswith("zeta") for line in doc["config"])


def test_allocate_bits_columns(tmp_path, capsys):
    out = tmp_path / "alloc.csv"
    code, _, _ = _run(
        capsys, "allocate", "--output", str(out), "--set", "lambda_hat_grid=100"
    )
    assert code == EXIT_OK
    _, rows = read_output_csv(str(out))
    row = rows[0]
    assert row["r_d_bits"] == pytest.approx(row["r_d"] / 0.6931471805599453, rel=1e-8)


# --- README recipes -----------------------------------------------------------


def _recipe(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the MC recipe's window warns
        code, out_text, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    return next(line for line in out_text.splitlines() if not line.startswith("#"))


def test_recipe_allocation_sweep(capsys):
    header = _recipe(
        capsys, "allocate", "--set", "r_los_m=49.61", "--set", "lambda_hat_grid=1.05:1e4:200"
    )
    assert header.split(",") == SWEEP_CSV_HEADER


def test_recipe_se_bounds_figure(capsys):
    header = _recipe(capsys, "se", "--set", "lambda_hat_grid=1:1e4:60")
    assert header == "lambda_hat,tier,lower_bound,upper_bound,asymptotic"


def test_recipe_mc_validation(capsys):
    header = _recipe(
        capsys,
        "sweep",
        "--set", "lambda_u_per_m2=0.01",
        "--set", "window_side_m=200",
        "--set", "r_los_m=10",
        "--set", "replications=4",
        "--set", "threads=2",
    )
    assert header.split(",") == SE_CSV_HEADER


def _readme_invocations() -> list[str]:
    """Every ``mmudn ...`` command in README's code blocks, with backslash
    continuations joined."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```[a-z]*\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("mmudn "):
                commands.append(line.split("#", 1)[0].strip())
    return commands


def test_readme_commands_name_known_subcommands_and_keys():
    commands = _readme_invocations()
    assert commands, "README shows no mmudn command"
    for command in commands:
        assert command.split()[1] in _COMMANDS, command
        for key in re.findall(r"--set\s+([A-Za-z_]\w*)=", command):
            assert key in _KEYS, f"{command}: unknown key {key!r}"


# --- sweep ------------------------------------------------------------------------

ONE_POINT = ["--set", "lambda_hat_grid=100"]


def test_simulate_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = _run(
            capsys, "sweep", "--set", "seed=3", "--output", str(out), *ONE_POINT, *FAST_SIM
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_echoed(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = _run(
        capsys, "sweep", "--set", "seed=42", "--output", str(out), *ONE_POINT, *FAST_SIM
    )
    assert code == EXIT_OK
    header, rows = read_output_csv(str(out))
    assert "seed = 42" in header
    assert rows[0]["tier"] == "muw"


def test_sweep_runs_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = _run(
        capsys,
        "sweep",
        "--output",
        str(out),
        "--set",
        "lambda_hat_grid=10,100",
        *FAST_SIM,
    )
    assert code == EXIT_OK
    _, rows = read_output_csv(str(out))
    assert [r["lambda_hat"] for r in rows] == [10.0, 100.0]


def test_json_writes_non_finite_numbers_as_null():
    out = io.StringIO()
    _emit([{"a": math.nan, "b": -math.inf, "c": 1.5}], ["a", "b", "c"], {"seed": 0}, out, "json")

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    doc = json.loads(out.getvalue(), parse_constant=reject)
    assert doc["rows"] == [{"a": None, "b": None, "c": 1.5}]


# --- config handling and exit codes -----------------------------------------------


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("zeta = 0.5\nlambda_hat_grid = 10,100  # comment\n")
    code, out_text, _ = _run(capsys, "allocate", "--config", str(cfg))
    assert code == EXIT_OK
    assert "# zeta = 0.5" in out_text


def test_unknown_key_exits_2(tmp_path, capsys):
    code, _, err = _run(capsys, "allocate", "--set", "zetta=0.5")
    assert code == EXIT_CONFIG
    assert "zetta" in err


@pytest.mark.parametrize(
    "key", ["f_s_hz", "delta", "epsilon", "floor_height_m", "lambda_hat", "lambda_m_per_m2"]
)
def test_removed_key_exits_2(capsys, key):
    # W_m,u is set directly as w_m_ul_hz, a floor height comes with each
    # region's building stats, and every command reads its density ratios,
    # and with them lambda_m, from lambda_hat_grid.
    code, _, err = _run(capsys, "allocate", "--set", f"{key}=0.2")
    assert code == EXIT_CONFIG
    assert "unknown configuration key" in err


@pytest.mark.parametrize("flag", ["--seed", "--threads", "--input"])
def test_set_aliases_are_argparse_errors(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(["blockage", flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_command_is_argparse_error(capsys):
    # A one-point sweep is the single-point Monte Carlo run.
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--set", "lambda_hat_grid=100"])
    assert exc.value.code == 2
    assert "invalid choice: 'simulate'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["se", "--set", "tier=muw", "--set", "lambda_hat_grid=0"],
        ["se", "--set", "tier=mmw", "--set", "lambda_hat_grid=0"],
        ["se", "--set", "lambda_hat_grid=10,-5"],
        ["sweep", "--set", "lambda_hat_grid=0", *FAST_SIM],
    ],
    ids=["se_muw", "se_mmw", "se_negative", "sweep"],
)
def test_nonpositive_density_ratio_exits_2(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert "density ratio must be positive" in err


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_empty_grid_exits_2(capsys, command):
    # Every command parses the grid, so an empty one fails before any runs.
    code, out, err = _run(capsys, command, "--set", "lambda_hat_grid=,")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "lambda_hat grid must be nonempty" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["se", "--set", "alpha_mu=nan", "--set", "lambda_hat_grid=10"],
        ["se", "--set", "lambda_hat_grid=nan:10:3"],
        ["se", "--set", "lambda_hat_grid=1:inf:3"],
        ["allocate", "--set", "lambda_mu_per_m2=nan"],
        ["allocate", "--set", "w_m_ul_hz=nan"],
        ["allocate", "--set", "w_m_hz=inf"],
        ["se", "--set", "tier=mmw", "--set", "lambda_hat_grid=inf"],
        ["se", "--set", "alpha_mu=inf"],
        ["se", "--set", "tier=mmw", "--set", "r_los_m=nan"],
        ["sweep", "--set", "lambda_hat_grid=10", *FAST_SIM, "--set", "window_side_m=-5"],
        ["sweep", "--set", "lambda_hat_grid=10", *FAST_SIM, "--set", "window_side_m=nan"],
        ["sweep", "--set", "lambda_hat_grid=10", *FAST_SIM, "--set", "seed=-1"],
        ["se", "--set", "tier=thz"],
        ["se", "--set", "tier=MMW"],
    ],
    ids=[
        "se_alpha_nan", "se_grid_start_nan", "se_grid_stop_inf", "allocate_density_nan",
        "allocate_ul_band_nan", "allocate_band_inf", "se_mmw_ratio_inf", "se_alpha_inf",
        "se_mmw_r_los_nan", "sweep_window_negative", "sweep_window_nan", "sweep_seed_negative",
        "se_tier_unknown", "se_tier_upper_case",
    ],
)
def test_non_finite_or_out_of_range_input_exits_2(capsys, argv):
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""


@pytest.mark.parametrize("command", ["se", "allocate", "sweep"])
def test_infinite_los_distance_means_no_blockage(capsys, command):
    argv = [command, "--set", "tier=mmw", "--set", "r_los_m=inf", "--set", "lambda_hat_grid=10"]
    if command == "sweep":
        argv += FAST_SIM
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the MC window warns
        code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    row = next(line for line in out.splitlines() if line.startswith("10,"))
    assert "nan" not in row and "inf" not in row


def test_missing_input_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code, _, err = _run(capsys, "blockage", "--set", f"input={missing}")
    assert code == EXIT_CONFIG
    assert str(missing) in err


@pytest.mark.parametrize("cell", ["abc", "nan"])
def test_non_numeric_input_cell_exits_2(tmp_path, capsys, cell):
    src = tmp_path / "stats.csv"
    src.write_text(
        "region,avg_perimeter_m,avg_area_m2,coverage_fraction,"
        "lognormal_mu,lognormal_sigma,floor_height_m,bs_height_m\n"
        "Good,120.0,600.0,0.3,1.5,0.3,3.0,12.0\n"
        f"Bad,120.0,{cell},0.3,1.5,0.3,3.0,12.0\n"
    )
    code, _, err = _run(capsys, "blockage", "--set", f"input={src}")
    assert code == EXIT_CONFIG
    assert str(src) in err and "data row 2 ('Bad')" in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "x.csv"
    code, _, err = _run(capsys, "se", "--output", str(out))
    assert code == EXIT_CONFIG
    assert "cannot write output" in err
    assert not out.exists()


def test_bad_value_exits_2(capsys):
    code, _, err = _run(capsys, "allocate", "--set", "zeta=abc")
    assert code == EXIT_CONFIG
    assert "zeta" in err


def test_missing_config_file_exits_2(capsys):
    code, _, _ = _run(capsys, "allocate", "--config", "/nonexistent/x.cfg")
    assert code == EXIT_CONFIG


def test_strict_assumption_violation_exits_3(capsys):
    code, _, err = _run(
        capsys,
        "allocate",
        "--set",
        "lambda_hat_grid=1.05",
        "--set",
        "strict_assumptions=true",
    )
    assert code == EXIT_NUMERIC
    assert "dominate" in err


def test_failure_leaves_no_output_file(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, _ = _run(
        capsys,
        "allocate",
        "--output",
        str(out),
        "--set",
        "lambda_hat_grid=1.05",
        "--set",
        "strict_assumptions=true",
    )
    assert code == EXIT_NUMERIC
    assert not out.exists()
