"""Closed-form spectral-efficiency asymptotics and bounds for microwave and
millimeter-wave ultra-dense networks.

All spectral efficiencies are in nats/s/Hz.  Downlink and uplink share one
implementation per tier: the bounds are identical in the ultra-dense regime
and transmit powers cancel out of the SIR, so no power is a parameter.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

from .errors import DomainError, NumericError, ParameterError

__all__ = [
    "NetworkParams",
    "SEBounds",
    "NATS_PER_BIT",
    "interference_constant",
    "los_probability",
    "se_muw_bounds",
    "se_mmw_bounds_tractable",
    "se_mmw_bounds_integral",
    "bounds_for",
]

NATS_PER_BIT = math.log(2.0)

_TIERS = ("mmw", "muw")

# Absolute tolerance of the Gauss–Legendre rule behind the integral-form mmW bounds.
_BOUND_ABS_TOL = 1e-6

# Orders of that rule: the first one, whose error is estimated against the
# rule of half its order, and the cap of the doubling.
_GL_FIRST_ORDER = 64
_GL_MAX_ORDER = 512


class UDNRegimeWarning(UserWarning):
    """Raised when a BS-to-user density ratio falls below 1 (outside the UDN regime)."""


@dataclass(frozen=True)
class NetworkParams:
    """Densities, propagation exponents and mmW geometry of the two-tier network.

    Densities are per m^2; ``theta`` is the mmW mainlobe width in radians and
    ``r_los`` the average LOS distance in meters.  Transmit powers cancel
    out of every SIR (all transmitters of a tier and direction send at one
    power), so none is a field.
    """

    lambda_m: float
    lambda_mu: float
    lambda_u: float
    alpha_m: float = 2.5
    alpha_mu: float = 4.0
    theta: float = math.pi / 12
    r_los: float = 50.0

    def __post_init__(self):
        # Every check is written so that NaN fails it.  An infinite LOS
        # distance is allowed: it means no blockage.
        if not all(0 <= x < math.inf for x in (self.lambda_m, self.lambda_mu, self.lambda_u)):
            raise ParameterError("densities must be finite and nonnegative")
        if not (2 < self.alpha_m < math.inf and 2 < self.alpha_mu < math.inf):
            raise ParameterError("path-loss exponents must be finite and exceed 2")
        if not 0 < self.theta <= 2 * math.pi:
            raise ParameterError("beamwidth must lie in (0, 2*pi]")
        if not self.r_los > 0:
            raise ParameterError("LOS distance must be positive")

    @property
    def lambda_hat_m(self) -> float:
        if self.lambda_u <= 0:
            raise ParameterError("lambda_u must be positive for density ratios")
        return self.lambda_m / self.lambda_u

    @property
    def lambda_hat_mu(self) -> float:
        if self.lambda_u <= 0:
            raise ParameterError("lambda_u must be positive for density ratios")
        return self.lambda_mu / self.lambda_u


@dataclass(frozen=True)
class SEBounds:
    lower: float
    upper: float
    asymptotic: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise NumericError(f"lower bound {self.lower} exceeds upper bound {self.upper}")


def interference_constant(alpha: float) -> float:
    """Full-plane interference constant ``(2*pi/alpha) * csc(2*pi/alpha)``."""
    if alpha <= 2:
        raise DomainError(f"interference integral diverges for alpha <= 2, got {alpha}")
    x = 2 * math.pi / alpha
    return x / math.sin(x)


def _warn_if_sparse(lambda_hat: float) -> None:
    if lambda_hat < 1:
        warnings.warn(
            f"density ratio {lambda_hat} < 1 is outside the ultra-dense regime",
            UDNRegimeWarning,
            stacklevel=3,
        )


def _asymptote(lambda_hat: float, alpha: float, p_l: float = 1.0) -> float:
    """Limit SE (alpha/2) * p_L * ln(lambda_hat) at the density ratio as
    passed; DL and UL coincide, and p_L = 1 gives the uW law."""
    return 0.5 * alpha * p_l * math.log(lambda_hat)


def se_muw_bounds(lambda_hat_mu: float, alpha_mu: float) -> SEBounds:
    """Microwave DL/UL SE bounds, clamped at zero:

    lower = ln(1 + [lhat/rho]^(a/2)) - a/2,
    upper = ln(1 + [(1 + 2/a) lhat]^(a/2)) - a/2.
    """
    rho = interference_constant(alpha_mu)
    _warn_if_sparse(lambda_hat_mu)
    half = 0.5 * alpha_mu
    lower = math.log1p((lambda_hat_mu / rho) ** half) - half
    upper = math.log1p(((1 + 2 / alpha_mu) * lambda_hat_mu) ** half) - half
    return SEBounds(
        lower=max(0.0, lower),
        upper=max(0.0, upper),
        asymptotic=max(0.0, _asymptote(lambda_hat_mu, alpha_mu)),
    )


def los_probability(lambda_m: float, r_los: float) -> float:
    """Probability the nearest mmW BS is within the LOS distance,
    ``1 - exp(-lambda_m * pi * r_los^2)``.
    """
    if not (lambda_m >= 0):
        raise ParameterError(f"lambda_m must be nonnegative, got {lambda_m}")
    if not (r_los > 0):
        raise ParameterError(f"r_los must be positive, got {r_los}")
    return -math.expm1(-lambda_m * math.pi * r_los**2)


def se_mmw_bounds_tractable(params: NetworkParams) -> SEBounds:
    """Closed-form mmW DL/UL SE bounds.

    lower = p_L * [ln(1 + (2pi/theta) [lhat/rho]^(a/2)) - a/2],
    upper = C * ln(1 + (2pi/theta) [(1 + 2/a) lhat]^(a/2)) with
    C = 1 - exp(-lambda_m pi R_L^2 (1 + rho (1 + 2/a))).
    """
    a = params.alpha_m
    lhat = params.lambda_hat_m
    rho = interference_constant(a)
    _warn_if_sparse(lhat)
    p_l = los_probability(params.lambda_m, params.r_los)
    gain = 2 * math.pi / params.theta
    half = 0.5 * a
    lower = p_l * (math.log1p(gain * (lhat / rho) ** half) - half)
    c_l2 = -math.expm1(
        -params.lambda_m * math.pi * params.r_los**2 * (1 + rho * (1 + 2 / a))
    )
    upper = c_l2 * math.log1p(gain * ((1 + 2 / a) * lhat) ** half)
    lower = max(0.0, lower)
    upper = max(0.0, upper)
    asym = max(0.0, _asymptote(lhat, a, p_l))
    return SEBounds(lower=lower, upper=upper, asymptotic=asym)


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, p_prev


@functools.cache
def _gauss_legendre_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes ``u**5`` and weights ``5 u**4 w`` of the n-point Gauss–Legendre
    rule (u, w) on [0, 1], so that ``sum(W f(S))`` integrates f over [0, 1]
    after the substitution s = u^5.

    Computed once per order by Newton's method on the Legendre recurrence
    (nodes to ~1e-16 absolute), in plain Python: no numpy.
    """
    nodes, weights = [0.0] * n, [0.0] * n
    for i in range((n + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, p_prev = _legendre(n, x)
            dx = p * (x * x - 1.0) / (n * (x * p - p_prev))
            x -= dx
            if abs(dx) <= 1e-16:
                break
        # Weight on [0, 1]: (1 - x^2) / (n P_{n-1}(x))^2.
        w = (1.0 - x * x) / (n * _legendre(n, x)[1]) ** 2
        for j, u in ((i, 0.5 * (1.0 - x)), (n - 1 - i, 0.5 * (1.0 + x))):
            u4 = u**4
            nodes[j], weights[j] = u4 * u, 5.0 * u4 * w
    return tuple(nodes), tuple(weights)


def _gauss_legendre(f, upper: float, tol: float) -> float:
    """Integrate ``f`` over [0, upper] by Gauss–Legendre in u with
    t = upper * u^5, which removes a t^(2/a) cusp at 0.

    The error of the n-point rule is estimated by its distance to the
    n/2-point rule; n doubles from ``_GL_FIRST_ORDER`` while that estimate
    exceeds ``tol``, and past ``_GL_MAX_ORDER`` the rule gives up.
    """

    def rule(n: int) -> float:
        nodes, weights = _gauss_legendre_rule(n)
        # Summed left to right by hand: the builtin sum of floats is
        # compensated from Python 3.12 on, and would move the last bits.
        total = 0.0
        for s, w in zip(nodes, weights):
            total += w * f(upper * s)
        return upper * total

    n = _GL_FIRST_ORDER
    coarse = rule(n // 2)
    while True:
        fine = rule(n)
        err = abs(fine - coarse)
        if err <= tol:
            return fine
        if n >= _GL_MAX_ORDER:
            raise NumericError(
                f"SE bound quadrature error {err:.3e} exceeds tolerance {tol:.1e} "
                f"at {n} Gauss–Legendre nodes (value {fine:.6e})"
            )
        coarse, n = fine, 2 * n


def _integral_bound(
    lhat: float,
    alpha: float,
    theta: float,
    lam_pi_rl2: float,
    rho: float,
    shrink: float,
) -> float:
    """Integrate p_L^(t) * (1 - shrink * [theta/(2pi) (e^t - 1)]^(2/a))^+ over t > 0.

    ``shrink`` is rho/lhat for the lower bound and 1/((1+2/a) lhat) for the
    upper one; the integrand's bracket hits zero at a finite cutoff, so the
    integral runs over [0, t_max] by ``_gauss_legendre``.
    """
    gain = theta / (2 * math.pi)
    two_over_a = 2.0 / alpha

    def integrand(t: float) -> float:
        x = gain * math.expm1(t)
        frac = x**two_over_a
        bracket = 1.0 - shrink * frac
        if bracket <= 0.0:
            return 0.0
        p_l_t = -math.expm1(-lam_pi_rl2 * (1.0 + rho / lhat * frac))
        return p_l_t * bracket

    # Cutoff where the bracket vanishes: e^t - 1 = (2pi/theta) shrink^(-a/2).
    t_max = math.log1p(shrink ** (-alpha / 2.0) / gain)
    return _gauss_legendre(integrand, t_max, _BOUND_ABS_TOL)


def se_mmw_bounds_integral(params: NetworkParams) -> SEBounds:
    """mmW DL/UL SE bounds in integral form (tighter than the tractable pair
    on the lower side).  Gauss–Legendre quadrature with an error estimate
    held to absolute tolerance ``_BOUND_ABS_TOL``.
    """
    a = params.alpha_m
    lhat = params.lambda_hat_m
    rho = interference_constant(a)
    _warn_if_sparse(lhat)
    lam_pi_rl2 = params.lambda_m * math.pi * params.r_los**2
    lower = _integral_bound(lhat, a, params.theta, lam_pi_rl2, rho, rho / lhat)
    upper = _integral_bound(
        lhat, a, params.theta, lam_pi_rl2, rho, 1.0 / ((1 + 2 / a) * lhat)
    )
    lower = max(0.0, lower)
    upper = max(0.0, upper)
    p_l = los_probability(params.lambda_m, params.r_los)
    asym = max(0.0, _asymptote(lhat, a, p_l))
    return SEBounds(lower=lower, upper=upper, asymptotic=asym)


def bounds_for(tier: str, params: NetworkParams, lambda_hat: float) -> SEBounds:
    """Analytic SE bounds and asymptote of ``tier`` at BS-to-user density
    ratio ``lambda_hat``: the integral-form mmW bounds with the mmW density
    set to ``lambda_hat * lambda_u``, or the uW bounds at ``lambda_hat``
    itself (not re-derived from a density, which can move it by an ulp)."""
    if tier not in _TIERS:
        raise ParameterError(f"tier must be one of {_TIERS}, got {tier!r}")
    if tier == "mmw":
        return se_mmw_bounds_integral(replace(params, lambda_m=lambda_hat * params.lambda_u))
    return se_muw_bounds(lambda_hat, params.alpha_mu)

