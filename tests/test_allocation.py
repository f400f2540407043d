import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mmudn.allocation import (
    Allocation,
    Gammas,
    SpectrumParams,
    cl_boundary,
    gammas_from_params,
    lp_oracle,
    optimal_allocation,
    optimal_allocation_decoupled,
    rates,
    sweep_allocation,
)
from mmudn.analytic_se import (
    NetworkParams,
    los_probability,
    se_mmw_bounds_integral,
    se_mmw_bounds_tractable,
    se_muw_bounds,
)
from mmudn.errors import AssumptionError, DomainError, ParameterError

LAMBDA_U = 1e-4


def net(lhat_m, lhat_mu=2.0, r_los=49.61, **kw):
    return NetworkParams(
        lambda_m=lhat_m * LAMBDA_U,
        lambda_mu=lhat_mu * LAMBDA_U,
        lambda_u=LAMBDA_U,
        alpha_m=2.5,
        alpha_mu=4.0,
        r_los=r_los,
        **kw,
    )


def spec(zeta=0.25, w_m=500e6, w_mu=20e6, w_m_ul=100e6):
    return SpectrumParams(w_m=w_m, w_mu_band=w_mu, w_m_ul=w_m_ul, zeta=zeta)


# --- PAPR-limited UL bandwidth (the paper's formulas, held test-side) -----------


def test_papr_outage_basic(papr_outage):
    assert papr_outage(0.0, 244140.0, 10.0) == 0.0
    vals = [papr_outage(w, 244140.0, 10.0) for w in np.linspace(1e6, 5e9, 50)]
    assert np.all(np.diff(vals) > 0)
    assert all(0.0 <= v < 1.0 for v in vals)


def test_papr_bandwidth_exact_roundtrip(papr_outage, mmw_ul_bandwidth):
    w = mmw_ul_bandwidth(244140.0, 10.0, 0.7)
    assert papr_outage(w, 244140.0, 10.0) == pytest.approx(0.7, abs=1e-12)
    assert w == pytest.approx(2.000719142e9, rel=1e-9)


# --- spectrum -------------------------------------------------------------------


def test_spectrum_clamps_oversized_ul_band():
    with pytest.warns(UserWarning, match="clamp"):
        s = SpectrumParams(w_m=500e6, w_mu_band=20e6, w_m_ul=4.66e9)
    assert s.w_m_ul == 500e6


# --- rate model -----------------------------------------------------------------


def test_rates_hand_evaluation():
    g = Gammas(gamma_m=3.9513, gamma_mu=1.3863, gamma_m_u=3.9513)
    r = rates(Allocation(0.0, 0.5), spec(), g)
    assert r.r_d == pytest.approx(1.9895130e9, rel=1e-12)
    assert r.r_u == pytest.approx(1.3863e7, rel=1e-12)


def test_rates_corners():
    g = Gammas(gamma_m=2.0, gamma_mu=1.0, gamma_m_u=1.5)
    s = spec()
    all_dl = rates(Allocation(0.0, 0.0), s, g)
    assert all_dl.r_u == 0.0
    assert all_dl.r_d == pytest.approx(s.w_m * 2.0 + s.w_mu_band * 1.0, rel=1e-12)
    all_ul = rates(Allocation(1.0, 1.0), s, g)
    assert all_ul.r_d == 0.0
    assert all_ul.r_u == pytest.approx(s.w_m_ul * 1.5 + s.w_mu_band * 1.0, rel=1e-12)


@pytest.mark.parametrize("r_los", [10.0, 49.61, 198.76])
def test_gammas_are_the_bounds_asymptote(r_los):
    # One asymptote: the allocation's SEs are the bound functions' asymptotic
    # fields, bit for bit, over the whole UDN density range.
    for lhat in np.logspace(0.0, 8.0, 41):
        p = net(lhat, lhat_mu=lhat, r_los=r_los)
        g = gammas_from_params(p)
        assert g.gamma_m == se_mmw_bounds_tractable(p).asymptotic
        assert g.gamma_m == se_mmw_bounds_integral(p).asymptotic
        assert g.gamma_mu == se_muw_bounds(p.lambda_hat_mu, p.alpha_mu).asymptotic


# --- region classification ---------------------------------------------------------


def test_zeta_zero_is_always_low_region():
    s = spec(zeta=0.0)
    for lhat in (1.1, 10.0, 1e6):
        assert optimal_allocation(net(lhat), s).region.region == "C_L"


def test_region_examples():
    s = spec()
    assert optimal_allocation(net(1.2), s).region.region == "C_L"
    assert optimal_allocation(net(100.0), s).region.region == "C_H"


def test_decoupling_region_membership():
    # W_m / W_m_ul = 5, lhat_mu = 2: lhat_m = 1.25 inside, 1.3 outside.
    s = spec()
    assert optimal_allocation(net(1.25), s, decoupled=True).region.in_d is True
    assert optimal_allocation(net(1.3), s, decoupled=True).region.in_d is False
    assert optimal_allocation(net(1.25), s, decoupled=False).region.in_d is None


def test_cl_boundary_value():
    # LOS distance 33.33 m: switch near 1.53.
    lhat = cl_boundary(net(10.0, r_los=33.33), spec())
    assert lhat == pytest.approx(1.53420, abs=1e-4)
    assert 1.35 <= lhat <= 1.65
    # At the boundary the classification flips.
    assert optimal_allocation(net(lhat * 0.999, r_los=33.33), spec()).region.region == "C_L"
    assert optimal_allocation(net(lhat * 1.001, r_los=33.33), spec()).region.region == "C_H"


@pytest.mark.parametrize("r_los", [33.33, 49.61])
def test_cl_boundary_matches_brentq(r_los):
    # The bisection in ln lhat_m against scipy's root finder run to machine
    # precision on the same switch condition zeta W_m gamma_m = W_mu gamma_mu.
    p = net(10.0, r_los=r_los)
    target = spec().w_mu_band * 0.5 * p.alpha_mu * math.log(p.lambda_hat_mu)
    for zeta in np.linspace(0.05, 0.5, 50):
        s = spec(zeta=float(zeta))

        def f(lhat):
            pl = los_probability(lhat * p.lambda_u, p.r_los)
            return s.zeta * s.w_m * 0.5 * p.alpha_m * pl * math.log(lhat) - target

        want = brentq(f, 1.0 + 1e-12, 1e12, xtol=1e-300, rtol=1e-15)
        assert cl_boundary(p, s) == pytest.approx(want, rel=1e-9)


def test_cl_boundary_infinite_when_no_switch():
    assert cl_boundary(net(10.0), spec(zeta=0.0)) == math.inf


def test_cl_boundary_at_and_below_unit_muw_ratio():
    # Below lhat_mu = 1 the asymptotic SEs are undefined, as in the gammas.
    for lhat_mu in (0.5, 1.0 - 1e-9):
        with pytest.raises(DomainError):
            cl_boundary(net(10.0, lhat_mu=lhat_mu), spec())
        with pytest.raises(DomainError):
            gammas_from_params(net(10.0, lhat_mu=lhat_mu))
    # At lhat_mu = 1 the uW band carries no rate: only lhat_m = 1 is in C_L.
    assert cl_boundary(net(10.0, lhat_mu=1.0), spec()) == 1.0
    assert optimal_allocation(net(1.0, lhat_mu=1.0), spec()).region.region == "C_L"
    for lhat in (1.0 + 1e-9, 1.5):
        assert optimal_allocation(net(lhat, lhat_mu=1.0), spec()).region.region == "C_H"
    # Just above it the switch moves off 1 and the classification flips there.
    lhat = cl_boundary(net(10.0, lhat_mu=1.01), spec())
    assert 1.0 < lhat < 1.01
    assert optimal_allocation(net(lhat * 0.999, lhat_mu=1.01), spec()).region.region == "C_L"
    assert optimal_allocation(net(lhat * 1.001, lhat_mu=1.01), spec()).region.region == "C_H"


# --- optimal allocation -----------------------------------------------------------------


def test_ch_worked_point(pinned_p_l):
    with pinned_p_l(0.6864):
        res = optimal_allocation(net(100.0), spec())
    assert res.region.region == "C_H"
    assert res.allocation.beta_m == pytest.approx(0.5243688168, rel=1e-9)
    assert res.allocation.beta_mu == 1.0
    assert res.rate.r_d == pytest.approx(9.396655315e8, rel=1e-9)


def test_cl_worked_point_rate(printed_r_d, pinned_p_l):
    with pinned_p_l(0.6046):
        res = optimal_allocation(net(1.2), spec())
    printed, _ = printed_r_d(res, spec(), net(1.2), p_l=0.6046)
    assert str(res.region) == "C_L"
    assert res.rate.r_d == pytest.approx(7.729651640e7, rel=1e-8)
    assert printed == pytest.approx(res.rate.r_d, rel=1e-9)


def test_ch_worked_point_rate(printed_r_d, pinned_p_l):
    with pinned_p_l(0.6864):
        res = optimal_allocation(net(100.0), spec())
    printed, _ = printed_r_d(res, spec(), net(100.0), p_l=0.6864)
    assert str(res.region) == "C_H"
    assert res.rate.r_d == pytest.approx(9.396655315e8, rel=1e-8)
    assert printed == pytest.approx(res.rate.r_d, rel=1e-9)


def test_zeta_one_limit_beta_mu_half():
    s = SpectrumParams(w_m=500e6, w_mu_band=20e6, w_m_ul=100e6, zeta=1.0)
    res = optimal_allocation(net(1.0 + 1e-7), s)
    assert res.allocation.beta_m == 0.0
    assert res.allocation.beta_mu == pytest.approx(0.5, abs=1e-5)


def test_zeta_zero_gives_zero_allocation():
    res = optimal_allocation(net(100.0), spec(zeta=0.0))
    assert res.allocation == Allocation(0.0, 0.0)
    assert res.rate.r_u == 0.0


def test_constraint_tight_off_the_corner():
    for lhat in (1.2, 3.0, 100.0, 1e4):
        res = optimal_allocation(net(lhat), spec())
        assert res.rate.r_u == pytest.approx(0.25 * res.rate.r_d, rel=1e-9)


def test_a1_flag_and_strict_raise():
    # Near lhat_m = 1 the mmW DL term no longer dominates: strict raises
    # there, and not where it dominates.
    with pytest.raises(AssumptionError):
        optimal_allocation(net(1.05), spec(), strict=True)
    optimal_allocation(net(100.0), spec(), strict=True)


# --- decoupled allocation ---------------------------------------------------------------


def test_decoupled_d_worked_point(pinned_p_l):
    with pinned_p_l(0.6196):
        res = optimal_allocation_decoupled(net(1.25), spec())
    assert res.region.in_d
    assert str(res.region) == "C_L+D"
    assert res.allocation.beta_m == pytest.approx(0.2527644474, rel=1e-9)
    assert res.allocation.beta_mu == 0.0


def test_decoupled_d_max_rate_both_values(printed_r_d, pinned_p_l):
    with pinned_p_l(0.6196):
        res = optimal_allocation(net(1.25), spec(), decoupled=True)
    printed, literal = printed_r_d(res, spec(), net(1.25), p_l=0.6196)
    assert res.region.in_d
    assert res.rate.r_d == pytest.approx(9.229626003e7, rel=1e-8)
    # The printed expression disagrees with the optimum on this branch, and
    # so does its literal alternative reading.
    assert printed == pytest.approx(3.639536862e7, rel=1e-8)
    assert literal == pytest.approx(1.141385294e9, rel=1e-8)


def test_decoupled_d_saturated_mmw_band_matches_lp():
    # The allocate recipe at R_L = 10 m (lambda_hat_grid=1.05:1e4:40): at
    # lambda_hat = 1.05 the D formula asks for beta_m > 1, so the optimum
    # fills the mmW band and puts the rest of the UL on the uW band.
    s = spec()
    grid = np.logspace(math.log10(1.05), 4, 40)
    rows = sweep_allocation(grid, net(10.0, r_los=10.0), s)
    for row in rows:
        p = net(row["lambda_hat_m"], r_los=10.0)
        res = optimal_allocation_decoupled(p, s)
        alloc, r_d = lp_oracle(p, s, decoupled=True)
        assert res.allocation.beta_m == pytest.approx(alloc.beta_m, rel=1e-12)
        assert res.allocation.beta_mu == pytest.approx(alloc.beta_mu, rel=1e-12)
        assert res.rate.r_d == pytest.approx(r_d, rel=1e-12)
        assert row["r_d_decoupled"] == pytest.approx(r_d, rel=1e-12)
    saturated = optimal_allocation_decoupled(net(1.05, r_los=10.0), s)
    assert str(saturated.region) == "C_L+D"
    assert saturated.allocation.beta_m == 1.0
    assert saturated.allocation.beta_mu == pytest.approx(0.0694910044, rel=1e-9)


def test_decoupled_matches_plain_in_cl_outside_d():
    p = net(1.3)  # low-density region but outside the decoupling region
    s = spec()
    plain = optimal_allocation(p, s)
    dec = optimal_allocation_decoupled(p, s)
    assert plain.region.region == "C_L"
    assert not dec.region.in_d
    assert dec.allocation.beta_m == plain.allocation.beta_m
    assert dec.allocation.beta_mu == plain.allocation.beta_mu
    assert dec.rate.r_d == pytest.approx(plain.rate.r_d, rel=1e-12)


def test_decoupled_reduces_mmw_ul_share_in_ch():
    s = spec()
    for lhat in np.logspace(1, 4, 12):
        p = net(lhat)
        plain = optimal_allocation(p, s)
        dec = optimal_allocation_decoupled(p, s)
        if plain.region.region == "C_H" and not dec.region.in_d:
            assert dec.allocation.beta_m <= plain.allocation.beta_m + 1e-12


# --- LP oracle -----------------------------------------------------------------------------


def test_lp_zeta_zero_corner():
    g_params = net(100.0)
    alloc, r_d = lp_oracle(g_params, spec(zeta=0.0))
    assert (alloc.beta_m, alloc.beta_mu) == (0.0, 0.0)
    plain = optimal_allocation(g_params, spec(zeta=0.0))
    assert r_d == pytest.approx(plain.rate.r_d, rel=1e-12)


def test_lp_agrees_at_worked_points(pinned_p_l):
    s = spec()
    with pinned_p_l(0.6864):
        alloc, r_d = lp_oracle(net(100.0), s)
    assert alloc.beta_m == pytest.approx(0.5243688168, rel=1e-9)
    assert r_d == pytest.approx(9.396655315e8, rel=1e-9)
    with pinned_p_l(0.6196):
        alloc, r_d = lp_oracle(net(1.25), s, decoupled=True)
    assert alloc.beta_m == pytest.approx(0.2527644474, rel=1e-9)
    assert alloc.beta_mu == 0.0


@given(
    lhat_m=st.floats(1.0, 1e8),
    lhat_mu=st.floats(1.0, 1e6),
    lambda_u=st.floats(1e-6, 0.1),
    zeta=st.floats(0.0, 1.0),
    r_los=st.floats(1.0, 1000.0),
    alpha_m=st.floats(2.05, 6.0),
    alpha_mu=st.floats(2.05, 6.0),
    w_mu=st.floats(1e5, 1e8),
    w_m_over_w_mu=st.floats(1.02, 1e3),
    w_m_ul_over_w_m=st.floats(1e-3, 1.0),
    decoupled=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_lp_solution_feasible_and_dominant(
    lhat_m, lhat_mu, lambda_u, zeta, r_los, alpha_m, alpha_mu, w_mu,
    w_m_over_w_mu, w_m_ul_over_w_m, decoupled,
):
    # The closed form equals lp_oracle over the whole domain, in every region.
    p = NetworkParams(
        lambda_m=lhat_m * lambda_u, lambda_mu=lhat_mu * lambda_u, lambda_u=lambda_u,
        alpha_m=alpha_m, alpha_mu=alpha_mu, r_los=r_los,
    )
    w_m = w_m_over_w_mu * w_mu
    s = SpectrumParams(w_m=w_m, w_mu_band=w_mu, w_m_ul=w_m_ul_over_w_m * w_m, zeta=zeta)
    alloc, r_d = lp_oracle(p, s, decoupled=decoupled)
    g = gammas_from_params(p, decoupled=decoupled)
    rp = rates(alloc, s, g)
    assert 0.0 <= alloc.beta_m <= 1.0 and 0.0 <= alloc.beta_mu <= 1.0
    assert rp.r_u >= zeta * rp.r_d - 1e-6 * max(1.0, abs(rp.r_d))
    assert r_d == pytest.approx(rp.r_d, rel=1e-12)
    cf = optimal_allocation(p, s, decoupled=decoupled)
    assert cf.rate.r_d == pytest.approx(r_d, rel=1e-12, abs=0.0)
    gap_m = abs(cf.allocation.beta_m - alloc.beta_m)
    gap_mu = abs(cf.allocation.beta_mu - alloc.beta_mu)
    if max(gap_m, gap_mu) > 1e-12:
        # Only a tie at double precision may part them: a gap that moves R_d
        # by no more than the 1e-12 the rates are held to.  It happens where
        # the uW SE rounds away (lambda_hat_mu within ulps of 1), and
        # rounding, not the model, picks the vertex.
        assert gap_m * w_m * g.gamma_m + gap_mu * w_mu * g.gamma_mu <= 1e-12 * r_d
        assert cf.rate.r_u >= zeta * cf.rate.r_d - 1e-6 * max(1.0, abs(cf.rate.r_d))


# --- sweep ------------------------------------------------------------------------------------


def test_sweep_rows_and_gain():
    rows = sweep_allocation(np.logspace(math.log10(1.05), 4, 25), net(10.0), spec())
    assert len(rows) == 25
    for r in rows:
        assert set(r) == {
            "lambda_hat_m",
            "region",
            "beta_m",
            "beta_mu",
            "r_d",
            "r_u",
            "r_d_decoupled",
            "gain",
        }
        assert r["gain"] >= 1.0 - 1e-12
    # Gain is exactly 1 wherever decoupling changes nothing (C_L outside D).
    for r in rows:
        if r["region"] == "C_L":
            assert r["gain"] == pytest.approx(1.0, rel=1e-12)


def test_sweep_empty_grid_rejected():
    with pytest.raises(ParameterError):
        sweep_allocation([], net(10.0), spec())


def test_sweep_strict_propagates():
    with pytest.raises(AssumptionError):
        sweep_allocation([1.05], net(10.0), spec(), strict=True)


# --- unit of bandwidth ----------------------------------------------------------------


@pytest.mark.parametrize("c", [2.0, 3.0])
def test_unit_of_bandwidth_changes_no_allocation(c):
    # The allocation depends only on ratios of bandwidths: with every W
    # times c at fixed zeta, each region and beta stays and each rate scales
    # by c.  A power of two scales every operation exactly; at c = 3 the
    # betas, fractions of a band, move by at most ulp(1), and the rates by
    # at most 4 ulps of c R (3 measured, one of them the rounding of c R).
    def same_beta(a, b):
        return a == b if c == 2 else abs(a - b) <= math.ulp(1.0)

    def scaled_rate(a, b):
        return b == c * a if c == 2 else abs(b - c * a) <= 4 * math.ulp(c * a)

    lhats = np.logspace(math.log10(1.05), 12, 9)
    for w_m, w_mu, w_m_ul, zeta in ((500e6, 20e6, 100e6, 0.25), (1e9, 40e6, 400e6, 0.5), (200e6, 10e6, 150e6, 0.1)):
        s = spec(zeta, w_m, w_mu, w_m_ul)
        s_c = spec(zeta, c * w_m, c * w_mu, c * w_m_ul)
        for r_los in (33.33, 49.61):
            for lhat in lhats:
                p = net(lhat, r_los=r_los)
                for decoupled in (False, True):
                    a = optimal_allocation(p, s, decoupled=decoupled)
                    b = optimal_allocation(p, s_c, decoupled=decoupled)
                    assert a.region == b.region, (lhat, r_los, decoupled)
                    assert same_beta(a.allocation.beta_m, b.allocation.beta_m), (lhat, a, b)
                    assert same_beta(a.allocation.beta_mu, b.allocation.beta_mu), (lhat, a, b)
                    assert scaled_rate(a.rate.r_d, b.rate.r_d) and scaled_rate(a.rate.r_u, b.rate.r_u), (lhat, a, b)
                    (alloc, r_d), (alloc_c, r_d_c) = lp_oracle(p, s, decoupled), lp_oracle(p, s_c, decoupled)
                    assert same_beta(alloc.beta_m, alloc_c.beta_m) and same_beta(alloc.beta_mu, alloc_c.beta_mu), lhat
                    assert scaled_rate(r_d, r_d_c), (lhat, r_d, r_d_c)
            template = net(1.0, r_los=r_los)
            for row, row_c in zip(sweep_allocation(lhats, template, s), sweep_allocation(lhats, template, s_c)):
                assert row["region"] == row_c["region"], row
                assert same_beta(row["beta_m"], row_c["beta_m"]) and same_beta(row["beta_mu"], row_c["beta_mu"]), row
                for key in ("r_d", "r_u", "r_d_decoupled"):
                    assert scaled_rate(row[key], row_c[key]), (key, row, row_c)
