import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.stats import norm

from mmudn.blockage import (
    REFERENCE_REGIONS,
    BuildingStats,
    blockage_beta,
    blockage_params,
    height_fraction_eta,
    read_building_stats_csv,
)
from mmudn.errors import ParameterError


def stats(name):
    return REFERENCE_REGIONS[name]["stats"]


# --- beta --------------------------------------------------------------------


def test_beta_reference_values():
    # Four regions match their published values; Jongro's published 0.014 is
    # inconsistent with its own inputs (the recomputed 0.147 reproduces the
    # published 2D LOS distance exactly).
    for name in ("Gangnam", "Yonsei", "Manhattan", "Chicago"):
        rec = REFERENCE_REGIONS[name]
        assert blockage_beta(rec["stats"]) == pytest.approx(rec["beta"], rel=0.02)
    assert blockage_beta(stats("Jongro")) == pytest.approx(0.1471, rel=0.01)


def test_beta_vanishes_with_coverage():
    st = BuildingStats(50.0, 200.0, 1e-9, 1.0, 0.3, 3.0, 10.0)
    assert blockage_beta(st) < 1e-9


def test_beta_monotone_in_coverage():
    betas = [
        blockage_beta(BuildingStats(50.0, 200.0, k, 1.0, 0.3, 3.0, 10.0))
        for k in np.linspace(0.05, 0.9, 20)
    ]
    assert np.all(np.diff(betas) > 0)


def test_beta_rejects_full_coverage():
    with pytest.raises(ParameterError):
        BuildingStats(50.0, 200.0, 1.0, 1.0, 0.3, 3.0, 10.0)


# --- eta ----------------------------------------------------------------------


def test_eta_degenerate_short_buildings():
    # All buildings essentially height zero -> nothing blocks -> eta = 1.
    st = BuildingStats(50.0, 200.0, 0.3, -30.0, 0.1, 3.0, 10.0)
    assert height_fraction_eta(st) == pytest.approx(1.0, abs=1e-9)


def test_eta_degenerate_buildings_at_bs_height():
    # H concentrated exactly at B blocks any positive fraction -> eta -> 0.
    st = BuildingStats(50.0, 200.0, 0.3, math.log(10.0 / 3.0), 1e-6, 3.0, 10.0)
    assert height_fraction_eta(st) < 1e-3


def test_eta_in_unit_interval_and_monotone_in_bs_height():
    vals = [
        height_fraction_eta(
            BuildingStats(50.0, 200.0, 0.3, 1.0, 0.4, 3.0, b)
        )
        for b in (3.0, 6.0, 12.0, 24.0)
    ]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert np.all(np.diff(vals) > 0)


def _quad_eta(stats: BuildingStats) -> float:
    """eta by adaptive quadrature of its defining integral; raises
    ``IntegrationWarning`` where ``quad`` does not converge.

    The integrand steps from 1 to 0 where the height threshold (1 - s) B
    passes the buildings' heights, over a width sigma (1 - s) that quad
    alone can step over, so the steps' quantiles z = 0, +-2, +-8 are
    breakpoints.
    """
    c = stats.bs_height / stats.floor_height
    mu, sigma = stats.mu_ln, stats.sigma_ln

    def cdf(s):
        h = (1.0 - s) * c
        return norm.cdf((math.log(h) - mu) / sigma) if h > 0 else 0.0

    cuts = (1.0 - math.exp(mu + z * sigma) / c for z in (-8, -2, 0, 2, 8))
    points = sorted(s for s in cuts if 0.0 < s < 1.0) or None
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        val, _ = quad(cdf, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200, points=points)
    return val


@given(
    mu_ln=st.floats(-1.0, 5.0),
    sigma_ln=st.floats(0.01, 2.0),
    floor_height=st.floats(2.0, 6.0),
    bs_height=st.floats(1.0, 500.0),
)
@settings(max_examples=150, deadline=None)
def test_eta_closed_form_matches_quad(mu_ln, sigma_ln, floor_height, bs_height):
    stats = BuildingStats(50.0, 200.0, 0.3, mu_ln, sigma_ln, floor_height, bs_height)
    try:
        want = _quad_eta(stats)
    except IntegrationWarning:
        assume(False)
    assert height_fraction_eta(stats) == pytest.approx(want, abs=1e-10)


def test_eta_wide_lognormal_does_not_overflow():
    # exp(mu + sigma^2/2) alone overflows; the second term is formed in logs.
    wide = BuildingStats(50.0, 200.0, 0.3, 0.0, 38.0, 3.0, 10.0)
    assert 0.0 <= height_fraction_eta(wide) <= 1.0


def test_eta_gangnam_formula_value():
    # Formula evaluation with B = published mean height; deviates from the
    # published table value 0.36 (documented model/table mismatch).
    val = height_fraction_eta(stats("Gangnam"))
    assert val == pytest.approx(0.0681591, rel=1e-3)
    assert abs(val - 0.36) > 0.25  # the deviation is real, not a tolerance slip


# --- LOS distances -------------------------------------------------------------


def test_los_2d_reference_values():
    for name, rec in REFERENCE_REGIONS.items():
        assert blockage_params(rec["stats"]).r_los_2d == pytest.approx(
            rec["r_los_2d"], rel=0.01
        )


def test_los_3d_with_table_eta():
    for name, rec in REFERENCE_REGIONS.items():
        got = blockage_params(rec["stats"]).r_los_2d / rec["eta"]
        # Table I prints eta to two decimals.  Yonsei's published distances
        # imply eta = 26.63 / 198.76 = 0.1340, which prints as the tabulated
        # 0.13, so the row is consistent at eta's printed precision; taking
        # 0.13 as exact puts the 3D distance ~3% off, hence the wider bound.
        tol = 0.02 if name != "Yonsei" else 0.035
        assert got == pytest.approx(rec["r_los_3d"], rel=tol)


def test_los_3d_geq_2d():
    for rec in REFERENCE_REGIONS.values():
        p = blockage_params(rec["stats"])
        assert p.r_los_3d >= p.r_los_2d
        assert p.r_los_3d == pytest.approx(p.r_los_2d / p.eta, rel=1e-12)


def test_blockage_params_rejects_bad_eta():
    # A BS of 1e-6 m under Gangnam's buildings: the closed form underflows to
    # eta = 0, which leaves no 3D LOS distance.
    low_bs = replace(stats("Gangnam"), bs_height=1e-6)
    assert height_fraction_eta(low_bs) == 0.0
    with pytest.raises(ParameterError):
        blockage_params(low_bs)


# --- CSV I/O ---------------------------------------------------------------------


def test_stats_csv_missing_column(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("region,avg_perimeter_m\nX,1.0\n")
    with pytest.raises(ParameterError, match="missing columns"):
        read_building_stats_csv(bad)


# --- scripts ---------------------------------------------------------------------


def test_reproduce_table1_script_runs():
    # The script reads the library's public names, so it must run: in a
    # fresh interpreter importing mmudn from this checkout.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_table1.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [(line.split(" ", 1)[0], line) for line in proc.stdout.splitlines()]
    rows = [(name, line) for name, line in rows if name in REFERENCE_REGIONS]
    assert [name for name, _ in rows] == list(REFERENCE_REGIONS)
    flagged = [name for name, line in rows if "published beta inconsistent" in line]
    assert flagged == ["Jongro"]
