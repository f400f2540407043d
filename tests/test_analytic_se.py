import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from mmudn import analytic_se as ase
from mmudn.analytic_se import (
    NetworkParams,
    UDNRegimeWarning,
    interference_constant,
    los_probability,
    se_mmw_bounds_integral,
    se_mmw_bounds_tractable,
    se_muw_bounds,
)
from mmudn.cli import read_output_csv
from mmudn.errors import DomainError, NumericError, ParameterError

GOLDEN_SE_MMW = Path(__file__).parent / "golden" / "se_mmw.csv"


def mk_params(lambda_hat_m, r_los=50.0, lambda_u=1e-4, **kw):
    return NetworkParams(
        lambda_m=lambda_hat_m * lambda_u,
        lambda_mu=2 * lambda_u,
        lambda_u=lambda_u,
        r_los=r_los,
        **kw,
    )


# --- interference constant ---------------------------------------------------


def test_interference_constant_values():
    assert interference_constant(4.0) == pytest.approx(math.pi / 2, rel=1e-12)
    assert interference_constant(2.5) == pytest.approx(4.275837328, rel=1e-8)
    assert interference_constant(1e6) == pytest.approx(1.0, abs=1e-9)


def test_interference_constant_domain():
    for alpha in (2.0, 1.5, -1.0):
        with pytest.raises(DomainError):
            interference_constant(alpha)


# --- microwave tier ----------------------------------------------------------


def test_muw_asymptotic_values():
    assert se_muw_bounds(1.0, 4.0).asymptotic == 0.0
    assert se_muw_bounds(100.0, 4.0).asymptotic == pytest.approx(9.21034037, rel=1e-8)
    assert se_muw_bounds(50.0, 8.0).asymptotic == pytest.approx(
        2 * se_muw_bounds(50.0, 4.0).asymptotic, rel=1e-12
    )


def test_muw_bounds_reference_point():
    b = se_muw_bounds(100.0, 4.0)
    assert b.lower == pytest.approx(6.307422, abs=1e-5)
    assert b.upper == pytest.approx(8.021315, abs=1e-5)
    # The asymptote (alpha/2) ln lhat is a density->inf limit, not bracketed
    # at finite lhat; only the ordering of the finite-density bounds holds.
    assert b.lower <= b.upper


def test_muw_bounds_clamped_at_unity_ratio():
    b = se_muw_bounds(1.0, 4.0)
    assert b.lower == 0.0
    assert b.upper == 0.0
    assert b.asymptotic == 0.0


def test_muw_gap_stays_bounded():
    # Analytic gap limit (alpha/2) * log(rho * (1 + 2/alpha)) ~ 1.714 at alpha=4.
    limit = 2.0 * math.log(interference_constant(4.0) * 1.5)
    assert limit == pytest.approx(1.714, abs=2e-3)
    for lhat in (1e2, 1e3):
        b = se_muw_bounds(lhat, 4.0)
        assert b.upper - b.lower <= limit + 1e-6


def test_muw_warns_outside_udn_regime():
    with pytest.warns(UDNRegimeWarning):
        se_muw_bounds(0.5, 4.0)


@given(st.floats(1.0, 1e8), st.floats(2.1, 8.0))
@settings(max_examples=100, deadline=None)
def test_muw_bounds_ordering(lhat, alpha):
    b = se_muw_bounds(lhat, alpha)
    assert 0.0 <= b.lower <= b.upper


def test_muw_lower_to_asymptotic_ratio_converges():
    # The ratio improves monotonically and approaches 1 deep in the UDN regime
    # (it is still ~0.9 at lhat = 1e6 for alpha = 4).
    ratios = [
        se_muw_bounds(lh, 4.0).lower / se_muw_bounds(lh, 4.0).asymptotic
        for lh in (1e4, 1e6, 1e9, 1e13)
    ]
    assert np.all(np.diff(ratios) > 0)
    assert ratios[-1] > 0.95


# --- LOS probability ----------------------------------------------------------


def test_los_probability_values():
    assert los_probability(0.0, 10.0) == 0.0
    assert los_probability(1.0, 10.0) == pytest.approx(1.0, abs=1e-12)
    assert los_probability(1.5e-4, 49.61) == pytest.approx(0.686477, abs=1e-4)


def test_los_probability_monotone():
    grid = np.linspace(1e-5, 1e-2, 30)
    vals = [los_probability(l, 30.0) for l in grid]
    assert np.all(np.diff(vals) > 0)


def test_los_probability_rejects_nan():
    with pytest.raises(ParameterError):
        los_probability(math.nan, 10.0)
    with pytest.raises(ParameterError):
        los_probability(1e-3, math.nan)
    # An unbounded LOS distance stays legal.
    assert los_probability(1e-3, math.inf) == 1.0


# --- millimeter-wave tier -------------------------------------------------------


def _mmw_asymptotic(lhat, lambda_m, alpha_m, r_los):
    p = NetworkParams(
        lambda_m=lambda_m, lambda_mu=lambda_m, lambda_u=lambda_m / lhat,
        alpha_m=alpha_m, r_los=r_los,
    )
    return se_mmw_bounds_tractable(p).asymptotic


def test_mmw_asymptotic_values():
    # Saturated LOS probability: (alpha/2) ln lhat.
    assert _mmw_asymptotic(100.0, 1.0, 2.5, 10.0) == pytest.approx(
        1.25 * math.log(100.0), rel=1e-9
    )
    assert _mmw_asymptotic(1.0, 1e-4, 2.5, 50.0) == 0.0
    assert _mmw_asymptotic(100.0, 1e-4, 2.5, 1e-6) == pytest.approx(0.0, abs=1e-9)


def test_mmw_tractable_omnidirectional_reduces_gain():
    p_wide = mk_params(100.0, theta=2 * math.pi)
    p_narrow = mk_params(100.0, theta=math.pi / 12)
    wide, narrow = se_mmw_bounds_tractable(p_wide), se_mmw_bounds_tractable(p_narrow)
    # Narrow mainlobes thin interference -> higher SE bounds.
    assert narrow.lower > wide.lower
    assert narrow.upper > wide.upper


def test_mmw_integral_within_tractable():
    for lhat in (5.0, 100.0, 1e4):
        for r_los in (10.0, 50.0):
            p = mk_params(lhat, r_los=r_los, alpha_m=2.5)
            tr = se_mmw_bounds_tractable(p)
            it = se_mmw_bounds_integral(p)
            assert it.lower >= tr.lower - 1e-9
            assert it.upper <= tr.upper + 1e-9
            assert it.lower <= it.upper


def test_mmw_integral_frozen_point():
    # Directional-mmW reference parameters, frozen against the quadrature oracle.
    p = NetworkParams(
        lambda_m=1.0,
        lambda_mu=1e-9,
        lambda_u=0.01,
        alpha_m=2.5,
        theta=math.radians(15.0),
        r_los=10.0,
    )
    b = se_mmw_bounds_integral(p)
    assert b.lower == pytest.approx(5.8829, abs=2e-3)
    assert b.upper == pytest.approx(8.4215, abs=2e-3)


def test_mmw_bounds_monotone_in_density_ratio():
    uppers, lowers = [], []
    for lhat in (10.0, 100.0, 1000.0):
        b = se_mmw_bounds_integral(mk_params(lhat))
        uppers.append(b.upper)
        lowers.append(b.lower)
    assert np.all(np.diff(uppers) > 0)
    assert np.all(np.diff(lowers) > 0)


@given(st.floats(1.0, 1e6), st.floats(2.2, 6.0), st.floats(5.0, 200.0))
@settings(max_examples=60, deadline=None)
def test_mmw_tractable_ordering(lhat, alpha, r_los):
    p = mk_params(lhat, r_los=r_los, alpha_m=alpha)
    b = se_mmw_bounds_tractable(p)
    assert 0.0 <= b.lower <= b.upper


def _quad_bound(p: NetworkParams, lower: bool) -> float:
    """Integral-form mmW bound by adaptive quadrature, written from the
    formula apart from ``analytic_se``; raises ``IntegrationWarning`` where
    ``quad`` does not converge.

    It integrates in u with t = t_max u^5: near alpha = 2 the LOS factor
    rises within ~(alpha - 2) of t = 0, and ``quad`` in t steps over that
    layer while reporting convergence (off by 5e-5 at alpha = 2.000003).
    """
    a, lhat = p.alpha_m, p.lambda_hat_m
    rho = (2 * math.pi / a) / math.sin(2 * math.pi / a)
    lam_pi_rl2 = p.lambda_m * math.pi * p.r_los**2
    shrink = rho / lhat if lower else 1.0 / ((1 + 2 / a) * lhat)
    gain = p.theta / (2 * math.pi)
    t_max = math.log1p(shrink ** (-a / 2) / gain)

    def f(u):
        frac = (gain * math.expm1(t_max * u**5)) ** (2 / a)
        p_l = -math.expm1(-lam_pi_rl2 * (1 + rho / lhat * frac))
        return 5 * t_max * u**4 * p_l * max(0.0, 1 - shrink * frac)

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        val, _ = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return max(0.0, val)


@given(
    lhat=st.floats(1.0, 1e8),
    alpha=st.floats(2.0, 6.0, exclude_min=True),
    theta=st.floats(math.radians(1.0), 2 * math.pi),
    r_los=st.floats(1.0, 300.0),
    lambda_u=st.floats(1e-5, 0.1),
)
@settings(max_examples=150, deadline=None)
def test_mmw_integral_matches_quad(lhat, alpha, theta, r_los, lambda_u):
    # The CLI's legal domain; no NumericError wherever quad converges.
    p = NetworkParams(
        lambda_m=lhat * lambda_u, lambda_mu=lambda_u, lambda_u=lambda_u,
        alpha_m=alpha, theta=theta, r_los=r_los,
    )
    try:
        want = (_quad_bound(p, lower=True), _quad_bound(p, lower=False))
    except IntegrationWarning:
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UDNRegimeWarning)
        b = se_mmw_bounds_integral(p)
    assert abs(b.lower - want[0]) <= ase._BOUND_ABS_TOL
    assert abs(b.upper - want[1]) <= ase._BOUND_ABS_TOL


def test_gauss_legendre_doubles_to_a_sharp_peak():
    # 64 nodes miss a Lorentzian of width 1/30; 512 resolve it.
    k = 30.0
    val = ase._gauss_legendre(lambda t: 1.0 / (1.0 + (k * (t - 0.5)) ** 2), 1.0, 1e-6)
    assert val == pytest.approx(2.0 / k * math.atan(k / 2.0), abs=1e-12)


def test_gauss_legendre_node_cap_raises():
    # A unit step never converges: the estimate stays ~1/n past the cap.
    with pytest.raises(NumericError, match="Gauss–Legendre"):
        ase._gauss_legendre(lambda t: 1.0 if t < 1 / math.pi else 0.0, 1.0, 1e-6)


def test_mmw_bounds_do_not_depend_on_how_sum_rounds(monkeypatch):
    # Python 3.12 made the builtin sum of floats compensated (as math.fsum
    # is).  The quadrature must not call it, or the se_mmw golden's last
    # bits would depend on the Python version: with sum swapped for fsum in
    # the module, no bound on 40 points of the golden's range moves by a bit.
    grid = np.geomspace(1.05, 1e4, 40)

    def bounds():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UDNRegimeWarning)
            return [se_mmw_bounds_integral(mk_params(lhat)) for lhat in grid]

    plain = bounds()
    monkeypatch.setattr(ase, "sum", math.fsum, raising=False)
    assert bounds() == plain


def test_se_mmw_golden_holds_the_integral():
    # Every bound in the golden equals the integral to 1e-9 relative (its
    # ten printed digits hold 5e-10), not the quadrature's noise.
    echo, rows = read_output_csv(str(GOLDEN_SE_MMW))
    cfg = {k.strip(): v.strip() for k, _, v in (line.partition("=") for line in echo)}
    lambda_u = float(cfg["lambda_u_per_m2"])
    for row in rows:
        p = NetworkParams(
            lambda_m=row["lambda_hat"] * lambda_u,
            lambda_mu=float(cfg["lambda_mu_per_m2"]),
            lambda_u=lambda_u,
            alpha_m=float(cfg["alpha_m"]),
            theta=float(cfg["theta_rad"]),
            r_los=float(cfg["r_los_m"]),
        )
        for key, lower in (("lower_bound", True), ("upper_bound", False)):
            assert row[key] == pytest.approx(_quad_bound(p, lower), rel=1e-9, abs=1e-12), (
                row["lambda_hat"], key
            )


def test_inverted_integral_bounds_raise(monkeypatch):
    # No clamp hides an inverted pair: lower 2 over upper 1 is a NumericError.
    monkeypatch.setattr(
        ase, "_integral_bound", lambda lhat, a, theta, lam, rho, shrink: 2.0 if shrink == rho / lhat else 1.0
    )
    with pytest.raises(NumericError, match="exceeds upper bound"):
        se_mmw_bounds_integral(mk_params(100.0))


def test_inverted_tractable_bounds_raise(monkeypatch):
    # A LOS probability of 10 lifts the lower bound above the upper one.
    monkeypatch.setattr(ase, "los_probability", lambda lambda_m, r_los: 10.0)
    with pytest.raises(NumericError, match="exceeds upper bound"):
        se_mmw_bounds_tractable(mk_params(100.0))


# --- parameter validation -------------------------------------------------------


def test_network_params_validation():
    with pytest.raises(ParameterError):
        NetworkParams(lambda_m=-1.0, lambda_mu=1.0, lambda_u=1.0)
    with pytest.raises(ParameterError):
        NetworkParams(lambda_m=1.0, lambda_mu=1.0, lambda_u=1.0, alpha_m=2.0)
    with pytest.raises(ParameterError):
        NetworkParams(lambda_m=1.0, lambda_mu=1.0, lambda_u=1.0, theta=7.0)
    with pytest.raises(ParameterError):
        NetworkParams(lambda_m=1.0, lambda_mu=1.0, lambda_u=1.0, r_los=0.0)
    with pytest.raises(ParameterError):
        NetworkParams(lambda_m=1.0, lambda_mu=1.0, lambda_u=0.0).lambda_hat_m
