"""Acceptance suite: one test per criterion, each emitting a single
``[ACCEPTANCE n] PASS/FAIL`` line.  Sub-checks are collected so a criterion
reports every violated clause at once.  Monte Carlo fixtures are module-scoped
and shared between the bracketing and DL/UL-convergence criteria.
"""

import contextlib
import math
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from mmudn.allocation import (
    SpectrumParams,
    lp_oracle,
    optimal_allocation,
    optimal_allocation_decoupled,
    sweep_allocation,
)
from mmudn.analytic_se import (
    NetworkParams,
    se_mmw_bounds_integral,
    se_muw_bounds,
)
from mmudn.blockage import REFERENCE_REGIONS, blockage_beta, blockage_params
from mmudn.pointprocess import Window, sample_ppp
from mmudn.simulator import (
    SimConfig,
    estimate_se,
    validate_homogenization,
)


def _report(num: int, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"[ACCEPTANCE {num:02d}] {status}"
    if detail:
        line += f" — {detail}"
    for f in failures:
        line += f"\n    violated: {f}"
    print(line, file=sys.stderr)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)
    assert not failures, line


# ---------------------------------------------------------------------------
# Shared Monte Carlo fixtures (criteria 2 and 3)
# ---------------------------------------------------------------------------

MC_LAMBDA_U = 0.01


def _sim(tier, direction, lhat, side, reps, seed):
    if tier == "muw":
        params = NetworkParams(
            lambda_m=2 * MC_LAMBDA_U,
            lambda_mu=lhat * MC_LAMBDA_U,
            lambda_u=MC_LAMBDA_U,
            alpha_mu=4.0,
        )
    else:
        params = NetworkParams(
            lambda_m=lhat * MC_LAMBDA_U,
            lambda_mu=2 * MC_LAMBDA_U,
            lambda_u=MC_LAMBDA_U,
            alpha_m=2.5,
            theta=math.radians(15.0),
            r_los=10.0,
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = SimConfig(
            params=params,
            window=Window(side=side),
            replications=reps,
            fading_draws=20,
            master_seed=seed,
            tier=tier,
            direction=direction,
            workers=2,
        )
    return params, estimate_se(config)


@pytest.fixture(scope="module")
def muw_mc():
    out = {}
    for lhat, side in ((10.0, 316.0), (100.0, 200.0), (1000.0, 150.0)):
        for direction in ("dl", "ul"):
            _, est = _sim("muw", direction, lhat, side, 200, seed=101)
            out[(lhat, direction)] = est
    return out


@pytest.fixture(scope="module")
def mmw_mc():
    out = {}
    for lhat, side in ((10.0, 100.0), (100.0, 100.0), (1000.0, 60.0)):
        for direction in ("dl", "ul"):
            params, est = _sim("mmw", direction, lhat, side, 400, seed=202)
            out[(lhat, direction)] = (params, est)
    return out


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_blockage_table_reproduction():
    failures = []
    for name, rec in REFERENCE_REGIONS.items():
        p = blockage_params(rec["stats"])
        if name == "Jongro":
            # Documented table typo: the tabulated 0.014 is inconsistent with
            # its own inputs; the recomputed value validates via the 2D LOS
            # distance instead.
            if abs(p.beta - 0.147) / 0.147 > 0.02:
                failures.append(f"Jongro recomputed beta {p.beta:.4f} != 0.147")
        else:
            err = abs(p.beta - rec["beta"]) / rec["beta"]
            if err > 0.02:
                failures.append(f"{name} beta off by {err:.2%} (> 2%)")
        err2d = abs(p.r_los_2d - rec["r_los_2d"]) / rec["r_los_2d"]
        if err2d > 0.01:
            failures.append(f"{name} 2D LOS distance off by {err2d:.2%} (> 1%)")
        # Table I prints eta to two decimals, so the published 3D distance is
        # consistent when the eta it implies rounds to the printed one: within
        # half a unit in the last printed place.
        implied_eta = p.r_los_2d / rec["r_los_3d"]
        if abs(implied_eta - rec["eta"]) > 0.005:
            failures.append(
                f"{name} published 3D LOS distance {rec['r_los_3d']:.2f} implies "
                f"eta {implied_eta:.4f}, not the printed {rec['eta']:.2f} (+-0.005)"
            )
    _report(1, failures, f"{len(REFERENCE_REGIONS)} regions checked")


def test_criterion_02_bounds_bracket_monte_carlo(muw_mc, mmw_mc):
    failures = []
    details = []
    for lhat in (10.0, 100.0, 1000.0):
        b = se_muw_bounds(lhat, 4.0)
        for direction in ("dl", "ul"):
            est = muw_mc[(lhat, direction)]
            if not b.lower - 0.3 <= est.mean <= b.upper + 0.3:
                failures.append(
                    f"muw {direction} lhat={lhat:g}: SE {est.mean:.3f} outside "
                    f"[{b.lower - 0.3:.3f}, {b.upper + 0.3:.3f}]"
                )
        details.append(f"muw@{lhat:g}=[{b.lower:.2f},{b.upper:.2f}]")
    for lhat in (10.0, 100.0, 1000.0):
        params, _ = mmw_mc[(lhat, "dl")]
        b = se_mmw_bounds_integral(params)
        for direction in ("dl", "ul"):
            _, est = mmw_mc[(lhat, direction)]
            if not b.lower - 0.3 <= est.mean <= b.upper + 0.3:
                failures.append(
                    f"mmw {direction} lhat={lhat:g}: SE {est.mean:.3f} outside "
                    f"[{b.lower - 0.3:.3f}, {b.upper + 0.3:.3f}]"
                )
    _report(2, failures, "; ".join(details))


def test_criterion_03_dl_ul_convergence(muw_mc, mmw_mc):
    failures = []
    dl, ul = muw_mc[(1000.0, "dl")], muw_mc[(1000.0, "ul")]
    gap = abs(dl.mean - ul.mean)
    if gap > max(0.2, dl.ci_half_width + ul.ci_half_width):
        failures.append(f"muw DL/UL gap {gap:.3f} at lhat=1000")
    (_, dl), (_, ul) = mmw_mc[(1000.0, "dl")], mmw_mc[(1000.0, "ul")]
    gap_m = abs(dl.mean - ul.mean)
    if gap_m > max(0.2, dl.ci_half_width + ul.ci_half_width):
        failures.append(f"mmw DL/UL gap {gap_m:.3f} at lhat=1000")
    _report(3, failures, f"gaps muw={gap:.3f}, mmw={gap_m:.3f}")


def test_criterion_04_power_invariance(power_mismatches):
    # The simulator's power-free SIR against a reference that sends at
    # explicit per-tier, per-direction powers, scaled down and up by 1e3.
    failures = []
    params = NetworkParams(
        lambda_m=1e-2, lambda_mu=2e-4, lambda_u=1e-4, r_los=50.0
    )
    for tier, direction in (("muw", "dl"), ("muw", "ul"), ("mmw", "dl"), ("mmw", "ul")):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = SimConfig(
                params=params,
                window=Window(side=1500.0),
                replications=10,
                fading_draws=8,
                master_seed=7,
                tier=tier,
                direction=direction,
            )
        for scale in (1e-3, 1e3):
            bad = power_mismatches(config, scale)
            if bad:
                failures.append(f"{tier} {direction} x{scale:g}: replications {bad} differ from the reference")
    _report(4, failures, "SIR against explicit transmit powers scaled by 1e-3 and 1e3")


def test_criterion_05_homogenization():
    params = NetworkParams(lambda_m=1.0, lambda_mu=100.0, lambda_u=1.0, r_los=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = SimConfig(
            params=params,
            window=Window(side=15.0),  # 22500 expected BSs per replication
            replications=40,
            master_seed=5,
            tier="muw",
            direction="dl",
        )
    out = validate_homogenization(config)
    failures = []
    if not 0.95 <= out["ratio"] <= 1.05:
        failures.append(f"active density ratio {out['ratio']:.4f} outside [0.95, 1.05]")
    _report(5, failures, f"ratio={out['ratio']:.4f} at lhat=100")


def _lp_sweep_configs():
    for w_m, zeta in ((500e6, 0.25), (1e9, 0.5)):
        for r_los in (33.33, 49.61):
            yield SpectrumParams(
                w_m=w_m, w_mu_band=20e6, w_m_ul=100e6, zeta=zeta
            ), r_los


def test_criterion_06_lp_oracle_equivalence():
    failures = []
    grid = np.logspace(math.log10(1.05), 4, 200)
    t0 = time.perf_counter()
    for spectrum, r_los in _lp_sweep_configs():
        for lhat in grid:
            params = NetworkParams(
                lambda_m=lhat * 1e-4,
                lambda_mu=2e-4,
                lambda_u=1e-4,
                alpha_m=2.5,
                alpha_mu=4.0,
                r_los=r_los,
            )
            for decoupled in (False, True):
                if decoupled:
                    cf = optimal_allocation_decoupled(params, spectrum)
                else:
                    cf = optimal_allocation(params, spectrum)
                lp_alloc, lp_rd = lp_oracle(params, spectrum, decoupled=decoupled)
                if (
                    abs(cf.allocation.beta_m - lp_alloc.beta_m) > 1e-6
                    or abs(cf.allocation.beta_mu - lp_alloc.beta_mu) > 1e-6
                ):
                    failures.append(
                        f"beta mismatch at lhat={lhat:.4g}, zeta={spectrum.zeta}, "
                        f"R_L={r_los}, decoupled={decoupled}"
                    )
                elif abs(cf.rate.r_d - lp_rd) > 1e-9 * max(1.0, abs(lp_rd)):
                    failures.append(
                        f"R_d mismatch at lhat={lhat:.4g}, zeta={spectrum.zeta}, "
                        f"R_L={r_los}, decoupled={decoupled}"
                    )
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"sweep took {elapsed:.2f} s (>= 1 s)")
    _report(6, failures[:10], f"1600 points x 2 solvers in {elapsed:.2f} s")


def test_criterion_07_printed_formula_cross_check(printed_r_d, pinned_p_l):
    failures = []
    spectrum = SpectrumParams(w_m=500e6, w_mu_band=20e6, w_m_ul=100e6, zeta=0.25)

    def net(lhat):
        return NetworkParams(
            lambda_m=lhat * 1e-4,
            lambda_mu=2e-4,
            lambda_u=1e-4,
            alpha_m=2.5,
            alpha_mu=4.0,
            r_los=49.61,
        )

    def optimum(lhat, p_l=None, decoupled=False):
        with contextlib.nullcontext() if p_l is None else pinned_p_l(p_l):
            res = optimal_allocation(net(lhat), spectrum, decoupled=decoupled)
        printed, _ = printed_r_d(res, spectrum, net(lhat), p_l)
        return res, res.rate.r_d, printed

    _, cl, cl_printed = optimum(1.2, p_l=0.6046)
    if abs(cl - cl_printed) > 1e-9 * cl:
        failures.append("low-density branch: substitution != closed form")
    if abs(cl - 7.729e7) / 7.729e7 > 1e-3:
        failures.append(f"low-density rate {cl:.4e} != 7.729e7")

    _, ch, ch_printed = optimum(100.0, p_l=0.6864)
    if abs(ch - ch_printed) > 1e-9 * ch:
        failures.append("high-density branch: substitution != closed form")
    if abs(ch - 9.3969e8) / 9.3969e8 > 1e-3:
        failures.append(f"high-density rate {ch:.4e} != 9.3969e8")

    # Decoupled non-dense branches must also self-agree.
    for lhat in (1.3, 100.0):
        dec, r_d, printed = optimum(lhat, decoupled=True)
        if not dec.region.in_d and abs(r_d - printed) > 1e-9 * max(1.0, r_d):
            failures.append(f"decoupled {dec.region} branch disagrees at lhat={lhat}")

    # Dense-branch deviation is reported with both values, not hidden.
    _, d, d_printed = optimum(1.25, p_l=0.6196, decoupled=True)
    if abs(d - 9.23e7) / 9.23e7 > 1e-3:
        failures.append(f"dense-branch substitution {d:.4e} != 9.23e7")
    if abs(d_printed - 3.64e7) / 3.64e7 > 2e-3:
        failures.append(f"dense-branch closed form {d_printed:.4e} != 3.64e7")
    _report(
        7,
        failures,
        f"dense branch reported: substitution={d:.4e}, closed-form={d_printed:.4e}",
    )


def test_criterion_08_structural_properties():
    failures = []
    spectrum = SpectrumParams(w_m=500e6, w_mu_band=20e6, w_m_ul=100e6, zeta=0.25)
    template = NetworkParams(
        lambda_m=1e-3, lambda_mu=2e-4, lambda_u=1e-4, alpha_m=2.5, alpha_mu=4.0,
        r_los=49.61,
    )
    rows = sweep_allocation(np.logspace(math.log10(1.05), 4, 120), template, spectrum)
    for r in rows:
        if r["beta_m"] > 1e-12 and r["beta_mu"] != 1.0:
            failures.append(
                f"sequential allocation violated at lhat={r['lambda_hat_m']:.4g}"
            )
        if r["gain"] < 1.0 - 1e-12:
            failures.append(f"gain {r['gain']:.12f} < 1 at lhat={r['lambda_hat_m']:.4g}")
        if r["region"] == "C_L" and abs(r["gain"] - 1.0) > 1e-9:
            failures.append(
                f"gain != 1 outside the decoupling region at "
                f"lhat={r['lambda_hat_m']:.4g}"
            )

    near_one = optimal_allocation(
        NetworkParams(
            lambda_m=(1 + 1e-9) * 1e-4, lambda_mu=2e-4, lambda_u=1e-4,
            alpha_m=2.5, alpha_mu=4.0, r_los=49.61,
        ),
        spectrum,
    )
    target = spectrum.zeta / (1 + spectrum.zeta)
    if abs(near_one.allocation.beta_mu - target) > 1e-6:
        failures.append(
            f"beta_mu at the unity limit {near_one.allocation.beta_mu:.8f} != {target}"
        )

    dense = optimal_allocation(
        NetworkParams(
            lambda_m=1e8, lambda_mu=2e-4, lambda_u=1e-4,
            alpha_m=2.5, alpha_mu=4.0, r_los=49.61,
        ),
        spectrum,
    )
    # The paper's dense-limit cap on beta_m.
    beta_m_cap = 1 / (1 + spectrum.w_m_ul / (spectrum.zeta * spectrum.w_m))
    gap = abs(dense.allocation.beta_m - beta_m_cap)
    if gap > 1e-3:
        failures.append(
            f"beta_m at lhat=1e12 is {dense.allocation.beta_m:.6f}, "
            f"{gap:.2e} below the dense-limit cap {beta_m_cap:.6f} (> 1e-3); "
            "the cap is approached only logarithmically"
        )
    _report(8, failures, f"120 sweep points; dense-limit gap={gap:.2e}")


def test_criterion_09_decoupling_gain_magnitude():
    spectrum = SpectrumParams(w_m=500e6, w_mu_band=20e6, w_m_ul=100e6, zeta=0.25)
    grid = np.logspace(math.log10(1.05), 4, 300)
    peak, peak_city, peak_lhat = 0.0, "", 0.0
    for name, rec in REFERENCE_REGIONS.items():
        template = NetworkParams(
            lambda_m=1e-3, lambda_mu=2e-4, lambda_u=1e-4,
            alpha_m=2.5, alpha_mu=4.0, r_los=rec["r_los_3d"],
        )
        rows = sweep_allocation(grid, template, spectrum)
        for r in rows:
            if r["gain"] > peak:
                peak, peak_city, peak_lhat = r["gain"], name, r["lambda_hat_m"]
    failures = []
    if peak <= 1.2:
        failures.append(f"peak decoupling gain {peak:.4f} <= 1.2")
    _report(
        9,
        failures,
        f"peak gain {peak:.4f} ({peak_city}, lhat={peak_lhat:.3g}); "
        "published headline values 1.64/1.65 are not reproducible because the "
        "effective mmW UL bandwidth behind them is under-specified",
    )


def test_criterion_10_papr(papr_outage, mmw_ul_bandwidth):
    failures = []
    f_s, delta, eps = 244140.0, 10.0, 0.7
    w_star = mmw_ul_bandwidth(f_s, delta, eps)
    if abs(papr_outage(w_star, f_s, delta) - eps) > 1e-9:
        failures.append("exact inversion does not round-trip within 1e-9")
    if w_star != pytest.approx(2.000719142e9, rel=1e-9):
        failures.append(f"w* = {w_star:.10e} Hz, not 2.000719142e9")
    grid = np.linspace(1e6, 5e9, 100)
    vals = np.array([papr_outage(w, f_s, delta) for w in grid])
    if not np.all(np.diff(vals) > 0):
        failures.append("outage not strictly increasing on the 100-point grid")
    if papr_outage(0.0, f_s, delta) != 0.0 or not np.all((vals >= 0.0) & (vals < 1.0)):
        failures.append("outage outside [0, 1) or nonzero at w = 0")
    _report(10, failures, f"w* = {w_star:.6e} Hz")


def test_criterion_11_voronoi_law(kd_tree, estimate_cell_areas):
    failures = []
    rng = np.random.default_rng(2024)
    window = Window(side=100.0)
    bss = sample_ppp(1.0, window, rng)  # ~1e4 cells
    areas = estimate_cell_areas(bss, window, 4_000_000, rng)
    # The shape-4.5 law describes the cell containing a uniformly random
    # point (the typical user's cell), i.e. the size-biased cell area.
    probe = rng.uniform(0.0, window.side, size=(100_000, 2))
    _, owner = kd_tree(bss, window).query(probe, k=1)
    stat = kstest(areas[owner], "gamma", args=(4.5, 0.0, 1.0 / 3.5)).statistic
    if stat > 0.1:
        failures.append(f"KS distance {stat:.4f} > 0.1")
    _report(11, failures, f"{len(bss)} cells, KS={stat:.4f}")
