"""Reference values computed apart from mmudn.

Every function here re-derives a quantity from the paper's formulas with
its own arithmetic (closed forms, Gauss-Legendre quadrature, bisection and
``scipy.optimize.linprog``), so a benchmark check compares the program
against something it did not compute itself.  Nothing here imports mmudn.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

# Table I of the paper: building statistics per region (average perimeter m,
# average area m^2, coverage, lognormal floor-count mu and sigma, floor
# height m, BS height m) and the published 2D blockage outputs.  The
# published Jongro beta (0.014) contradicts its own inputs and its own 2D
# LOS distance; the recomputed 0.147 is the value checked.
PUBLISHED_REGIONS = {
    "Gangnam": dict(stats=(59.02, 218.60, 0.3477, 1.62, 0.27, 3.0, 14.23), beta=0.073, r_los_2d=17.77),
    "Jongro": dict(stats=(39.29, 107.67, 0.4690, 0.69, 0.55, 3.0, 8.12), beta=0.147, r_los_2d=7.22),
    "Yonsei": dict(stats=(51.99, 173.95, 0.2548, 1.10, 0.34, 3.0, 11.14), beta=0.056, r_los_2d=26.63),
    "Manhattan": dict(stats=(73.78, 312.26, 0.4583, 3.32, 0.30, 3.0, 101.00), beta=0.092, r_los_2d=11.75),
    "Chicago": dict(stats=(114.48, 886.46, 0.4202, 1.36, 1.23, 3.0, 28.95), beta=0.045, r_los_2d=25.88),
}


def rel_close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def interference_rho(alpha: float) -> float:
    x = 2.0 * math.pi / alpha
    return x / math.sin(x)


def muw_bounds(lhat: float, alpha: float) -> tuple[float, float, float]:
    """Unclamped microwave (lower, upper, asymptote)."""
    half = alpha / 2.0
    lower = math.log(1.0 + (lhat / interference_rho(alpha)) ** half) - half
    upper = math.log(1.0 + ((1.0 + 2.0 / alpha) * lhat) ** half) - half
    return lower, upper, half * math.log(lhat)


def los_prob(lambda_m: float, r_los: float) -> float:
    return 1.0 - math.exp(-lambda_m * math.pi * r_los * r_los)


def mmw_tractable(lhat, lambda_m, alpha, theta, r_los) -> tuple[float, float, float]:
    """Unclamped closed-form mmW (lower, upper, asymptote)."""
    rho = interference_rho(alpha)
    half = alpha / 2.0
    p_l = los_prob(lambda_m, r_los)
    gain = 2.0 * math.pi / theta
    lower = p_l * (math.log(1.0 + gain * (lhat / rho) ** half) - half)
    c = 1.0 - math.exp(-lambda_m * math.pi * r_los**2 * (1.0 + rho * (1.0 + 2.0 / alpha)))
    upper = c * math.log(1.0 + gain * ((1.0 + 2.0 / alpha) * lhat) ** half)
    return lower, upper, half * p_l * math.log(lhat)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(200)
_GL_U = 0.5 * (_GL_X + 1.0)  # nodes on [0, 1]
_GL_UW = 0.5 * _GL_W


def mmw_integral(lhat, lambda_m, alpha, theta, r_los) -> tuple[float, float]:
    """Unclamped integral-form mmW (lower, upper): the integral over t > 0 of
    p_L(t) (1 - s [theta/(2 pi) (e^t - 1)]^(2/alpha))^+ with
    p_L(t) = 1 - exp(-lambda_m pi R_L^2 (1 + rho/lhat [..]^(2/alpha))) and
    s = rho/lhat (lower) or 1/((1 + 2/alpha) lhat) (upper).

    The bracket vanishes at t_max; substituting t = t_max u^5 removes the
    u^(2/alpha) cusp at t = 0 so 200-point Gauss-Legendre converges.
    """
    rho = interference_rho(alpha)
    g = theta / (2.0 * math.pi)
    lam_pi_rl2 = lambda_m * math.pi * r_los * r_los
    out = []
    for s in (rho / lhat, 1.0 / ((1.0 + 2.0 / alpha) * lhat)):
        t_max = math.log(1.0 + s ** (-alpha / 2.0) / g)
        t = t_max * _GL_U**5
        frac = (g * np.expm1(t)) ** (2.0 / alpha)
        bracket = np.clip(1.0 - s * frac, 0.0, None)
        p_l_t = -np.expm1(-lam_pi_rl2 * (1.0 + rho / lhat * frac))
        jac = 5.0 * t_max * _GL_U**4
        out.append(float(np.sum(_GL_UW * p_l_t * bracket * jac)))
    return out[0], out[1]


def gammas(lhat_m, lhat_mu, lambda_m, r_los, alpha_m, alpha_mu, decoupled) -> tuple[float, float, float]:
    """Asymptotic per-band SEs (mmW DL, uW, mmW UL) of the linear rate model."""
    p_l = los_prob(lambda_m, r_los)
    g_m = 0.5 * alpha_m * p_l * math.log(lhat_m)
    g_mu = 0.5 * alpha_mu * math.log(lhat_mu)
    g_mu_ul = 0.5 * alpha_m * p_l * math.log(lhat_m + lhat_mu) if decoupled else g_m
    return g_m, g_mu, g_mu_ul


def lp_optima(cases) -> list[tuple[float, float, float]]:
    """Solve max R_d s.t. R_u >= zeta R_d, 0 <= beta <= 1 for many cases at once.

    Each case is (gamma_m, gamma_mu, gamma_m_ul, w_m, w_mu, w_m_ul, zeta) with
    R_d = (1 - b_m) W_m g_m + (1 - b_mu) W_mu g_mu and
    R_u = b_m W_m.u g_m.u + b_mu W_mu g_mu.  The cases are independent, so
    they are stacked block-diagonally into one normalized LP.  Returns
    (beta_m, beta_mu, R_d) per case.
    """
    n = len(cases)
    c = np.empty(2 * n)
    rows, cols, vals = [], [], []
    b_ub = np.empty(n)
    scale = np.empty(n)
    for i, (g_m, g_mu, g_mu_ul, w_m, w_mu, w_m_ul, zeta) in enumerate(cases):
        d_m, d_mu = w_m * g_m, w_mu * g_mu
        s = d_m + d_mu
        scale[i] = s
        c[2 * i], c[2 * i + 1] = d_m / s, d_mu / s
        # R_u - zeta R_d >= 0  <=>  -(A b_m + B b_mu) <= -zeta (normalized by s)
        rows += [i, i]
        cols += [2 * i, 2 * i + 1]
        vals += [-(w_m_ul * g_mu_ul + zeta * d_m) / s, -(1.0 + zeta) * d_mu / s]
        b_ub[i] = -zeta
    a_ub = coo_matrix((vals, (rows, cols)), shape=(n, 2 * n)).tocsr()
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    x = res.x
    return [
        (float(x[2 * i]), float(x[2 * i + 1]), float(scale[i] * (1.0 - c[2 * i] * x[2 * i] - c[2 * i + 1] * x[2 * i + 1])))
        for i in range(n)
    ]


def cl_boundary(lambda_u, lambda_mu, r_los, alpha_m, alpha_mu, w_m, w_mu, zeta, lhat_max=1e12) -> float:
    """Density ratio where zeta W_m gamma_m = W_mu gamma_mu, by bisection in log space."""
    target = 0.5 * alpha_mu * w_mu * math.log(lambda_mu / lambda_u)

    def f(lhat):
        return zeta * w_m * 0.5 * alpha_m * los_prob(lhat * lambda_u, r_los) * math.log(lhat) - target

    if f(lhat_max) < 0:
        return math.inf
    lo, hi = math.log(1.0 + 1e-12), math.log(lhat_max)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(math.exp(mid)) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return math.exp(0.5 * (lo + hi))


def blockage(stats) -> tuple[float, float, float]:
    """(beta, eta, 2D LOS distance) from Table I building statistics.

    eta = int_0^1 Phi((ln((1 - s) B / h_f) - mu) / sigma) ds, by
    Gauss-Legendre on u = 1 - s.
    """
    perim, area, cov, mu, sigma, floor_h, bs_h = stats
    beta = -2.0 * perim * math.log(1.0 - cov) / (math.pi * area)
    scale = bs_h / floor_h
    eta = sum(
        w * 0.5 * (1.0 + math.erf((math.log(u * scale) - mu) / (sigma * math.sqrt(2.0))))
        for u, w in zip(_GL_U, _GL_UW)
    )
    return beta, eta, 2.0 * (1.0 - cov) / beta
