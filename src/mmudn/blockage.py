"""2D/3D blockage parameters and average LOS distances from building statistics.

Building heights are modeled as ``floor_height`` times a lognormal floor
count; the BS height defaults to the mean building height.  The five
reference regions of Table I (three Seoul districts plus Manhattan and
Chicago) are the ``REFERENCE_REGIONS`` constant; other regions are read from
a CSV with the ``STATS_CSV_HEADER`` columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError

__all__ = [
    "BuildingStats",
    "BlockageParams",
    "blockage_beta",
    "height_fraction_eta",
    "blockage_params",
    "read_building_stats_csv",
    "REFERENCE_REGIONS",
]

STATS_CSV_HEADER = [
    "region",
    "avg_perimeter_m",
    "avg_area_m2",
    "coverage_fraction",
    "lognormal_mu",
    "lognormal_sigma",
    "floor_height_m",
    "bs_height_m",
]

@dataclass(frozen=True)
class BuildingStats:
    """Per-region building statistics driving the blockage model.

    ``mu_ln``/``sigma_ln`` parameterize the lognormal *floor count*; the
    building height is ``floor_height`` times that count.  ``bs_height``
    defaults to the mean building height.
    """

    avg_perimeter: float
    avg_area: float
    coverage: float
    mu_ln: float
    sigma_ln: float
    floor_height: float = 3.0
    bs_height: float | None = None

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not (0 < self.avg_perimeter < math.inf and 0 < self.avg_area < math.inf):
            raise ParameterError("perimeter and area must be finite and positive")
        if not 0 <= self.coverage < 1:
            raise ParameterError(f"coverage must lie in [0, 1), got {self.coverage}")
        if not 0 < self.sigma_ln < math.inf:
            raise ParameterError("sigma_ln must be finite and positive")
        if not 0 < self.floor_height < math.inf:
            raise ParameterError("floor_height must be finite and positive")
        if self.bs_height is not None and not 0 < self.bs_height < math.inf:
            raise ParameterError("bs_height must be finite and positive")

    @property
    def mean_height(self) -> float:
        """Mean building height of the lognormal floor-count model."""
        return self.floor_height * math.exp(self.mu_ln + 0.5 * self.sigma_ln**2)

    @property
    def effective_bs_height(self) -> float:
        return self.bs_height if self.bs_height is not None else self.mean_height


@dataclass(frozen=True)
class BlockageParams:
    beta: float
    eta: float
    r_los_2d: float
    r_los_3d: float

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ParameterError(f"eta must lie in (0, 1], got {self.eta}")


def blockage_beta(stats: BuildingStats) -> float:
    """2D blockage parameter ``beta = -2 rho ln(1 - kappa) / (pi A)`` (per meter)."""
    if stats.coverage >= 1:
        raise DomainError("coverage >= 1 leaves no LOS paths")
    return -2.0 * stats.avg_perimeter * math.log1p(-stats.coverage) / (
        math.pi * stats.avg_area
    )


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def height_fraction_eta(stats: BuildingStats) -> float:
    """Height thinning factor ``eta = int_0^1 Pr(H <= (1 - s) B) ds``.

    H is ``floor_height`` times a lognormal floor count N and B the BS
    height.  Swapping the integral and the expectation gives
    ``eta = E[(1 - N/c)^+] = Pr(N <= c) - E[N; N <= c] / c`` with
    c = B / floor_height, which is closed form:
    ``eta = Phi(z) - exp(mu + sigma^2/2) / c * Phi(z - sigma)``,
    z = (ln c - mu) / sigma.  The second term is formed in logs, so a wide
    lognormal cannot overflow it.
    """
    c = stats.effective_bs_height / stats.floor_height
    mu, sigma = stats.mu_ln, stats.sigma_ln
    z = (math.log(c) - mu) / sigma
    eta = _normal_cdf(z)
    tail = _normal_cdf(z - sigma)
    if tail > 0.0:
        eta -= math.exp(mu + 0.5 * sigma**2 - math.log(c) + math.log(tail))
    return min(1.0, max(0.0, eta))


def blockage_params(stats: BuildingStats) -> BlockageParams:
    """Blockage parameter, height factor and average LOS distances
    ``R_L^2D = 2 (1 - kappa) / beta`` and ``R_L^3D = R_L^2D / eta``.

    eta comes from the height model; a BS far below the buildings drives it
    to 0, which leaves no 3D LOS distance.
    """
    beta = blockage_beta(stats)
    eta = height_fraction_eta(stats)
    if not 0 < eta <= 1:
        raise ParameterError(f"eta must lie in (0, 1], got {eta}")
    r2d = 2.0 * (1.0 - stats.coverage) / beta
    return BlockageParams(beta=beta, eta=eta, r_los_2d=r2d, r_los_3d=r2d / eta)


# Table values for the five reference regions: measured building statistics
# (perimeter, area, coverage, lognormal floor-count fit, mean height used as
# BS height) plus the published blockage outputs for cross-checks.  The
# published Jongro beta (0.014) is inconsistent with its own inputs and its
# 2D LOS distance; the recomputed value (~0.147) reproduces the distance.
REFERENCE_REGIONS: dict[str, dict] = {
    "Gangnam": dict(
        stats=BuildingStats(59.02, 218.60, 0.3477, 1.62, 0.27, 3.0, 14.23),
        beta=0.073, eta=0.36, r_los_2d=17.77, r_los_3d=49.61,
    ),
    "Jongro": dict(
        stats=BuildingStats(39.29, 107.67, 0.4690, 0.69, 0.55, 3.0, 8.12),
        beta=0.014, eta=0.22, r_los_2d=7.22, r_los_3d=33.33, beta_typo=True,
    ),
    "Yonsei": dict(
        stats=BuildingStats(51.99, 173.95, 0.2548, 1.10, 0.34, 3.0, 11.14),
        beta=0.056, eta=0.13, r_los_2d=26.63, r_los_3d=198.76,
    ),
    "Manhattan": dict(
        stats=BuildingStats(73.78, 312.26, 0.4583, 3.32, 0.30, 3.0, 101.00),
        beta=0.092, eta=0.12, r_los_2d=11.75, r_los_3d=98.11,
    ),
    "Chicago": dict(
        stats=BuildingStats(114.48, 886.46, 0.4202, 1.36, 1.23, 3.0, 28.95),
        beta=0.045, eta=0.46, r_los_2d=25.88, r_los_3d=56.20,
    ),
}


def read_building_stats_csv(path) -> dict[str, BuildingStats]:
    """Parse a region stats CSV file into BuildingStats.

    A file that cannot be read, a missing column or a cell that is not a
    number raises ParameterError naming the file (and the data row).
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParameterError(f"cannot read stats CSV {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(row for row in fh if not row.lstrip().startswith("#"))
        missing = set(STATS_CSV_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ParameterError(f"stats CSV {path} missing columns: {sorted(missing)}")
        out: dict[str, BuildingStats] = {}
        for n, row in enumerate(reader, 1):
            try:
                # The columns after ``region`` are BuildingStats' fields in order.
                out[row["region"]] = BuildingStats(
                    *(float(row[col]) for col in STATS_CSV_HEADER[1:])
                )
            except (TypeError, ValueError) as exc:  # ParameterError is a ValueError
                raise ParameterError(
                    f"stats CSV {path}, data row {n} ({row['region']!r}): {exc}"
                ) from exc
        return out
