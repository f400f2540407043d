"""TDD UL/DL resource allocation for the two-tier network.

Covers the linear DL/UL rate model, low/high-density region
classification, closed-form optimal UL allocation fractions (and the DL
rate they reach) with and without mmW UL decoupling, and an exact
two-variable LP oracle used to verify the closed forms.

Rates are in nats/s throughout; the ``mmudn allocate`` output adds bits/s
columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from .analytic_se import NetworkParams, _asymptote, los_probability
from .errors import AssumptionError, DomainError, ParameterError

__all__ = [
    "SpectrumParams",
    "Allocation",
    "RatePair",
    "RegionLabel",
    "Gammas",
    "AllocationResult",
    "gammas_from_params",
    "rates",
    "cl_boundary",
    "optimal_allocation",
    "optimal_allocation_decoupled",
    "lp_oracle",
    "sweep_allocation",
    "SWEEP_CSV_HEADER",
]

_BOX_TOL = 1e-12
# Upper end of the C_L/C_H boundary search in cl_boundary.
_CL_LHAT_MAX = 1e12

SWEEP_CSV_HEADER = [
    "lambda_hat_m",
    "region",
    "beta_m",
    "beta_mu",
    "r_d",
    "r_u",
    "r_d_decoupled",
    "gain",
    "r_d_bits",
    "r_u_bits",
    "r_d_decoupled_bits",
]


@dataclass(frozen=True)
class SpectrumParams:
    """Bandwidths (Hz) and the minimum UL/DL rate ratio.

    ``w_m_ul`` is the usable mmW UL bandwidth, taken as given (the paper
    derives it from a PAPR outage target; criterion 10 of the acceptance
    suite checks that derivation).  The rate model assumes w_m > w_mu_band;
    w_m_ul is clamped to w_m with a warning because the PAPR-limited
    bandwidth can exceed the mmW band itself (about 2.0 GHz at
    f_s = 244.14 kHz, delta = 10, epsilon = 0.7).
    """

    w_m: float
    w_mu_band: float
    w_m_ul: float = 100e6
    zeta: float = 0.25

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not math.inf > self.w_m > self.w_mu_band > 0:
            raise ParameterError(
                f"need inf > w_m > w_mu_band > 0, got {self.w_m}, {self.w_mu_band}"
            )
        if not self.w_m_ul > 0:
            raise ParameterError("w_m_ul must be positive")
        if self.w_m_ul > self.w_m:
            warnings.warn(
                f"w_m_ul = {self.w_m_ul:.4g} Hz exceeds w_m = {self.w_m:.4g} Hz; "
                "clamping to w_m",
                stacklevel=2,
            )
            object.__setattr__(self, "w_m_ul", self.w_m)
        if not 0 <= self.zeta <= 1:
            raise ParameterError(f"zeta must lie in [0, 1], got {self.zeta}")


@dataclass(frozen=True)
class Allocation:
    """UL bandwidth fractions: beta_m for the mmW band, beta_mu for the uW band."""

    beta_m: float
    beta_mu: float

    def __post_init__(self):
        for name, b in (("beta_m", self.beta_m), ("beta_mu", self.beta_mu)):
            if not -_BOX_TOL <= b <= 1 + _BOX_TOL:
                raise ParameterError(f"{name} must lie in [0, 1], got {b}")
        object.__setattr__(self, "beta_m", min(1.0, max(0.0, self.beta_m)))
        object.__setattr__(self, "beta_mu", min(1.0, max(0.0, self.beta_mu)))


@dataclass(frozen=True)
class RatePair:
    r_d: float
    r_u: float

    def __post_init__(self):
        if self.r_d < 0 or self.r_u < 0:
            raise ParameterError("rates must be nonnegative")


@dataclass(frozen=True)
class RegionLabel:
    """Density-region label: 'C_L' or 'C_H', plus decoupling-region membership.

    ``in_d`` is None when decoupling is not considered.
    """

    region: str
    in_d: bool | None = None

    def __post_init__(self):
        if self.region not in ("C_L", "C_H"):
            raise ParameterError(f"region must be 'C_L' or 'C_H', got {self.region!r}")

    def __str__(self) -> str:
        if self.in_d:
            return f"{self.region}+D"
        return self.region


@dataclass(frozen=True)
class Gammas:
    """Per-band spectral efficiencies (nats/s/Hz): mmW DL, uW DL/UL, mmW UL."""

    gamma_m: float
    gamma_mu: float
    gamma_m_u: float

    def __post_init__(self):
        if min(self.gamma_m, self.gamma_mu, self.gamma_m_u) < 0:
            raise ParameterError("spectral efficiencies must be nonnegative")


@dataclass(frozen=True)
class AllocationResult:
    allocation: Allocation
    region: RegionLabel
    rate: RatePair
    gammas: Gammas


# ---------------------------------------------------------------------------
# Rate model and regions
# ---------------------------------------------------------------------------


def gammas_from_params(
    params: NetworkParams,
    p_l: float | None = None,
    decoupled: bool = False,
) -> Gammas:
    """Asymptotic per-band SEs from network parameters.

    ``p_l`` overrides the computed LOS probability.  Without decoupling the
    mmW UL SE equals the DL one; with decoupling the UL receiver set has
    density lambda_m + lambda_mu, so the density ratio inside the log grows
    accordingly (the LOS probability stays that of the mmW BSs).
    """
    lhat_m, lhat_mu = params.lambda_hat_m, params.lambda_hat_mu
    if lhat_m < 1 or lhat_mu < 1:
        raise DomainError("density ratios must be >= 1 for the asymptotic SEs")
    pl = los_probability(params.lambda_m, params.r_los) if p_l is None else p_l
    if not 0 <= pl <= 1:
        raise ParameterError(f"p_l must lie in [0, 1], got {pl}")
    gamma_m = _asymptote(lhat_m, params.alpha_m, pl)
    gamma_mu = _asymptote(lhat_mu, params.alpha_mu)
    if not decoupled:
        gamma_m_u = gamma_m
    else:
        gamma_m_u = _asymptote(lhat_m + lhat_mu, params.alpha_m, pl)
    return Gammas(gamma_m=gamma_m, gamma_mu=gamma_mu, gamma_m_u=gamma_m_u)


def rates(alloc: Allocation, spectrum: SpectrumParams, gammas: Gammas) -> RatePair:
    """Linear DL/UL rates of the allocation:

    R_u = beta_m W_m.u gamma_m.u + beta_mu W_mu gamma_mu,
    R_d = (1 - beta_m) W_m gamma_m + (1 - beta_mu) W_mu gamma_mu.
    """
    r_u = (
        alloc.beta_m * spectrum.w_m_ul * gammas.gamma_m_u
        + alloc.beta_mu * spectrum.w_mu_band * gammas.gamma_mu
    )
    return RatePair(r_d=_r_d(alloc.beta_m, alloc.beta_mu, spectrum, gammas), r_u=r_u)


def _r_d(beta_m: float, beta_mu: float, spectrum: SpectrumParams, gammas: Gammas) -> float:
    """R_d of :func:`rates`, without building an Allocation."""
    return (1.0 - beta_m) * spectrum.w_m * gammas.gamma_m + (
        1.0 - beta_mu
    ) * spectrum.w_mu_band * gammas.gamma_mu


def _classify(
    params: NetworkParams, spectrum: SpectrumParams, g: Gammas, decoupled: bool
) -> RegionLabel:
    """Classify the operating point into C_L / C_H and (if decoupled) D.

    C_L holds iff zeta W_m gamma_m <= W_mu gamma_mu (the low-density side of
    the allocation branch switch); zeta = 0 is C_L by convention.  D holds iff
    ln(lhat_m + lhat_mu) >= (W_m / W_m.u) ln(lhat_m), evaluated in log form.
    The mmW UL SE of ``g`` is not read, so decoupled gammas serve as well.
    """
    if spectrum.zeta == 0:
        low = True
    else:
        low = spectrum.zeta * spectrum.w_m * g.gamma_m <= spectrum.w_mu_band * g.gamma_mu
    in_d = None
    if decoupled:
        lhat_m, lhat_mu = params.lambda_hat_m, params.lambda_hat_mu
        in_d = math.log(lhat_m + lhat_mu) >= (
            spectrum.w_m / spectrum.w_m_ul
        ) * math.log(lhat_m)
    return RegionLabel(region="C_L" if low else "C_H", in_d=in_d)


def cl_boundary(params: NetworkParams, spectrum: SpectrumParams) -> float:
    """Density ratio lhat_m at the C_L/C_H switch, by bisection in ln lhat_m.

    The LOS probability depends on lambda_m = lhat_m * lambda_u, so the
    boundary is a fixed point; solved to 1e-9 relative tolerance.  Returns
    inf when the switch never happens (zeta = 0 or the band is too narrow),
    and 1 when the uW band carries no rate (lhat_mu = 1): only lhat_m = 1 is
    then in C_L.  Raises DomainError for lhat_mu < 1, as
    :func:`gammas_from_params` does.
    """
    if params.lambda_hat_mu < 1:
        raise DomainError("lambda_hat_mu must be >= 1 for the asymptotic SEs")
    if spectrum.zeta == 0:
        return math.inf
    target = spectrum.w_mu_band * _asymptote(params.lambda_hat_mu, params.alpha_mu)

    def f(log_lhat: float) -> float:
        lhat = math.exp(log_lhat)
        pl = los_probability(lhat * params.lambda_u, params.r_los)
        return spectrum.zeta * spectrum.w_m * _asymptote(lhat, params.alpha_m, pl) - target

    lo, hi = math.log(1.0 + 1e-12), math.log(_CL_LHAT_MAX)
    if f(hi) < 0:
        return math.inf
    if f(lo) > 0:
        # The switch lies below 1 + 1e-12: at 1 to the tolerance.
        return 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# Optimal allocations
# ---------------------------------------------------------------------------


def _check_a1(spectrum: SpectrumParams, g: Gammas) -> None:
    """Raise unless the dominant-mmW-DL assumption W_m gamma_m > W_mu gamma_mu
    underlying the closed forms holds; it fails near lhat_m = 1, where the
    branch formulas still match the LP, so only ``strict`` callers check it.
    """
    if not spectrum.w_m * g.gamma_m > spectrum.w_mu_band * g.gamma_mu:
        raise AssumptionError(
            "W_m gamma_m <= W_mu gamma_mu: mmW DL does not dominate "
            f"({spectrum.w_m * g.gamma_m:.6g} <= {spectrum.w_mu_band * g.gamma_mu:.6g})"
        )


def _closed_form(
    spectrum: SpectrumParams, g: Gammas, region: RegionLabel
) -> Allocation:
    """Branch formulas shared by the plain and decoupled optima (the decoupled
    case differs only through gamma_m_u and the D branch)."""
    z = spectrum.zeta
    wm_gm = spectrum.w_m * g.gamma_m
    wmu_gmu = spectrum.w_mu_band * g.gamma_mu
    wmul_gmu_ul = spectrum.w_m_ul * g.gamma_m_u
    if z == 0:
        return Allocation(0.0, 0.0)
    if region.in_d:
        beta_m = z * (wm_gm + wmu_gmu) / (wmul_gmu_ul + z * wm_gm)
        if beta_m <= 1.0:
            return Allocation(beta_m, 0.0)
        # The whole mmW band cannot carry the UL: it all goes to the UL, and
        # the uW band carries the rest of R_u = zeta R_d.
        beta_mu = (z * wmu_gmu - wmul_gmu_ul) / ((1.0 + z) * wmu_gmu)
        return Allocation(1.0, max(0.0, beta_mu))
    # At lambda_hat_mu = 1 the uW band carries no rate either way, so it stays
    # DL: beta_mu = 0, the pick of lp_oracle's tie-break among equal optima
    # (in C_L that means lambda_hat_m = 1 too, and no band carries a rate).
    if region.region == "C_L":
        if wmu_gmu == 0.0:
            return Allocation(0.0, 0.0)
        beta_mu = (z / (1.0 + z)) * (1.0 + wm_gm / wmu_gmu)
        return Allocation(0.0, min(1.0, beta_mu))
    beta_m = (z * wm_gm - wmu_gmu) / (z * wm_gm + wmul_gmu_ul)
    return Allocation(max(0.0, beta_m), 1.0 if wmu_gmu > 0.0 else 0.0)


def optimal_allocation(
    params: NetworkParams,
    spectrum: SpectrumParams,
    p_l: float | None = None,
    strict: bool = False,
    decoupled: bool = False,
) -> AllocationResult:
    """DL-rate-maximizing UL allocation subject to R_u >= zeta R_d.

    With ``decoupled`` the uW BSs also receive the mmW UL: in the dense
    region D the UL rides on the mmW band (beta_mu = 0), and on the uW band
    too only once the whole mmW band is UL (beta_m = 1); outside D the plain
    branch formulas apply with the decoupled mmW UL SE.  With ``strict``
    a point where the dominant-mmW-DL assumption fails raises.
    """
    g = gammas_from_params(params, p_l=p_l, decoupled=decoupled)
    if strict:
        _check_a1(spectrum, g)
    region = _classify(params, spectrum, g, decoupled)
    alloc = _closed_form(spectrum, g, region)
    return AllocationResult(
        allocation=alloc,
        region=region,
        rate=rates(alloc, spectrum, g),
        gammas=g,
    )


def optimal_allocation_decoupled(
    params: NetworkParams,
    spectrum: SpectrumParams,
    p_l: float | None = None,
    strict: bool = False,
) -> AllocationResult:
    """:func:`optimal_allocation` with mmW UL decoupling."""
    return optimal_allocation(params, spectrum, p_l=p_l, strict=strict, decoupled=True)


# ---------------------------------------------------------------------------
# Exact LP oracle
# ---------------------------------------------------------------------------


def lp_oracle(
    params: NetworkParams,
    spectrum: SpectrumParams,
    decoupled: bool = False,
    p_l: float | None = None,
) -> tuple[Allocation, float]:
    """Exact solution of the two-variable LP max R_d s.t. R_u >= zeta R_d,
    0 <= beta <= 1, by vertex enumeration of the feasible polygon.

    Both tolerances are relative, so the answer does not depend on the rates'
    scale.  Ties (within 1e-15 relative in R_d) break toward smaller beta_m,
    then smaller beta_mu.  Returns (allocation, maximal R_d).
    """
    g = gammas_from_params(params, p_l=p_l, decoupled=decoupled)
    z = spectrum.zeta
    # Constraint A beta_m + B beta_mu >= C.
    a = spectrum.w_m_ul * g.gamma_m_u + z * spectrum.w_m * g.gamma_m
    b = (1.0 + z) * spectrum.w_mu_band * g.gamma_mu
    c = z * (spectrum.w_m * g.gamma_m + spectrum.w_mu_band * g.gamma_mu)

    def feasible(bm: float, bmu: float) -> bool:
        slack = a * bm + b * bmu - c
        return slack >= -1e-9 * c

    candidates: list[tuple[float, float]] = [
        (bm, bmu) for bm in (0.0, 1.0) for bmu in (0.0, 1.0) if feasible(bm, bmu)
    ]
    # Intersections of the constraint line with the four box edges.
    if a != 0.0:
        for bmu in (0.0, 1.0):
            bm = (c - b * bmu) / a
            if 0.0 <= bm <= 1.0:
                candidates.append((bm, bmu))
    if b != 0.0:
        for bm in (0.0, 1.0):
            bmu = (c - a * bm) / b
            if 0.0 <= bmu <= 1.0:
                candidates.append((bm, bmu))
    if not candidates:
        raise AssumptionError(
            "empty feasible region: UL constraint unsatisfiable inside the box "
            f"(A={a:.6g}, B={b:.6g}, C={c:.6g})"
        )

    r_d = [_r_d(bm, bmu, spectrum, g) for bm, bmu in candidates]
    best = max(r_d)
    tol = 1e-15 * best
    bm, bmu = min(v for v, r in zip(candidates, r_d) if r >= best - tol)
    return Allocation(bm, bmu), best


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_allocation(
    lambda_hat_grid,
    params_template: NetworkParams,
    spectrum: SpectrumParams,
    strict: bool = False,
) -> list[dict]:
    """Optimal allocation with and without decoupling over a lhat_m grid.

    Each row: lambda_hat_m, region label (decoupling-aware), plain-optimum
    betas and rates, decoupled DL rate and the decoupling gain.  With
    ``strict`` a point where the dominant-mmW-DL assumption fails raises.
    """
    grid = [float(lhat) for lhat in lambda_hat_grid]
    if not grid:
        raise ParameterError("lambda_hat grid must be nonempty")
    rows = []
    for lhat in grid:
        params = replace(params_template, lambda_m=lhat * params_template.lambda_u)
        plain = optimal_allocation(params, spectrum, strict=strict)
        dec = optimal_allocation(params, spectrum, strict=strict, decoupled=True)
        gain = dec.rate.r_d / plain.rate.r_d if plain.rate.r_d > 0 else math.nan
        rows.append(
            dict(
                lambda_hat_m=lhat,
                region=str(dec.region),
                beta_m=plain.allocation.beta_m,
                beta_mu=plain.allocation.beta_mu,
                r_d=plain.rate.r_d,
                r_u=plain.rate.r_u,
                r_d_decoupled=dec.rate.r_d,
                gain=gain,
            )
        )
    return rows
