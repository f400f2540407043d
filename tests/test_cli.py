import io
import json
import math
import warnings

import pytest

from mmudn import blockage as blk
from mmudn.allocation import SWEEP_CSV_HEADER
from mmudn.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, _emit, read_output_csv, run
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


# --- simulate ---------------------------------------------------------------------


def test_simulate_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = _run(
            capsys, "simulate", "--set", "seed=3", "--output", str(out), *FAST_SIM
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_echoed(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = _run(capsys, "simulate", "--set", "seed=42", "--output", str(out), *FAST_SIM)
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


@pytest.mark.parametrize("key", ["f_s_hz", "delta", "epsilon", "floor_height_m"])
def test_removed_key_exits_2(capsys, key):
    # W_m,u is set directly as w_m_ul_hz, and a floor height comes with each
    # region's building stats.
    code, _, err = _run(capsys, "allocate", "--set", f"{key}=0.2")
    assert code == EXIT_CONFIG
    assert "unknown configuration key" in err


@pytest.mark.parametrize("flag", ["--seed", "--threads", "--input"])
def test_set_aliases_are_argparse_errors(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(["blockage", flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["se", "--set", "tier=muw", "--set", "lambda_hat_grid=0"],
        ["se", "--set", "tier=mmw", "--set", "lambda_hat_grid=0"],
        ["se", "--set", "lambda_hat_grid=10,-5"],
        ["sweep", "--set", "lambda_hat_grid=0", *FAST_SIM],
        ["simulate", "--set", "lambda_hat=0", *FAST_SIM],
    ],
    ids=["se_muw", "se_mmw", "se_negative", "sweep", "simulate"],
)
def test_nonpositive_density_ratio_exits_2(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert "density ratio must be positive" in err


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
