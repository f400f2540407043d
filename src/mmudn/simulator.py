"""Monte Carlo SIR/SE estimation for both tiers and directions.

Each replication samples fresh BS and user point processes, associates users
to their strongest (nearest qualifying) BS, schedules one user per BS
uniformly at random, and measures ln(1 + SIR) at the typical receiver — the
receiving end of a scheduled link drawn uniformly among all scheduled links,
so that every link is equally likely to be the typical one — averaging over
i.i.d. unit-mean exponential fading draws.  mmW links require the LOS
indicator (distance within R_L) and interferers must additionally cover the
receiver with their mainlobe.

The geometry of a replication is computed for a block of receivers at once:
the (B, A) torus displacements from B receivers to all A active transmitters,
one coordinate plane at a time, then the distances and the mask of
interferers that count (not the receiver's own transmitter, within R_L and
with a covering mainlobe for mmW).  B is derived from A so that a block holds
at most 2^14 pairs, which bounds its scratch memory.  Each element takes the
same floating-point operations as a one-receiver computation, so the block
height changes no bit.  Fading stays per receiver: ``g0`` then ``g_i`` for
each receiver in turn, with the sizes and order of a one-receiver loop, so
the random stream and every SIR sample are those of that loop.  One large
draw per replication would reorder the stream, and measured slower.

Replications are independent and reproducible: replication ``i`` runs on
``default_rng([master_seed, i])`` regardless of execution order or worker
count.  Parallel estimates share one worker pool per process (see
:func:`_run_reps`).  The simulator and the point-process stack it imports
load numpy but no scipy, so a forked worker starts with all it needs.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from .analytic_se import (
    NetworkParams,
    bounds_for,
    # Not called here: perfbench's traced run patches these two names on
    # this module by getattr and raises AttributeError without them.
    se_mmw_bounds_integral,
    se_muw_bounds,
)
from .errors import ParameterError

# Forked pool workers inherit this numpy-only stack: no worker imports scipy.
from .pointprocess import (
    Window,
    associate_strongest,
    sample_ppp,
    schedule_active,
)

__all__ = [
    "SimConfig",
    "SEEstimate",
    "estimate_se",
    "validate_homogenization",
    "power_invariance_check",
    "sweep_se",
    "SE_CSV_HEADER",
]

SE_CSV_HEADER = [
    "lambda_hat",
    "tier",
    "direction",
    "se_mean",
    "se_ci",
    "lower_bound",
    "upper_bound",
    "asymptotic",
    "interference_free_fraction",
]

_TIERS = ("mmw", "muw")
_DIRECTIONS = ("dl", "ul")
# Receiver-transmitter pairs per geometry block.  Each block holds a handful
# of (B, A) float arrays, 128 KiB each at 2^14 pairs.  Blocks of 2^16 pairs
# raised the all-receiver benchmark's peak RSS by 4.5 MiB (5 %) and ran no
# faster.
_BLOCK_PAIRS = 1 << 14


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo experiment: which tier/direction to measure and how."""

    params: NetworkParams
    window: Window | None = None
    replications: int = 200
    fading_draws: int = 20
    master_seed: int = 0
    tier: str = "muw"
    direction: str = "dl"
    decoupled: bool = False
    average_all_receivers: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.tier not in _TIERS:
            raise ParameterError(f"tier must be one of {_TIERS}, got {self.tier!r}")
        if self.direction not in _DIRECTIONS:
            raise ParameterError(
                f"direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )
        if self.replications < 1 or self.fading_draws < 1:
            raise ParameterError("replications and fading draws must be >= 1")
        if self.workers < 1:
            raise ParameterError("workers must be >= 1")
        if self.decoupled and (self.tier, self.direction) != ("mmw", "ul"):
            raise ParameterError("decoupling applies to the mmW uplink only")
        if self.window is None:
            object.__setattr__(
                self,
                "window",
                Window.for_expected_points(self.params.lambda_u, 1e3),
            )
        expected_users = self.params.lambda_u * self.window.area
        if expected_users < 1e3:
            warnings.warn(
                f"window holds only {expected_users:.0f} expected users (< 1000); "
                "estimates may carry extra boundary variance",
                stacklevel=2,
            )

    @property
    def bs_density(self) -> float:
        base = self.params.lambda_m if self.tier == "mmw" else self.params.lambda_mu
        if self.decoupled:
            base = self.params.lambda_m + self.params.lambda_mu
        return base

    @property
    def lambda_hat(self) -> float:
        return self.bs_density / self.params.lambda_u

    @property
    def alpha(self) -> float:
        return self.params.alpha_m if self.tier == "mmw" else self.params.alpha_mu


@dataclass(frozen=True)
class SEEstimate:
    """SE mean over interference-limited replications with a 95% normal CI.

    ``interference_free_fraction`` counts replications whose typical receiver
    saw no LOS-and-aligned interferer; those are excluded from the mean.
    ``discarded`` counts replications with no active transmitter at all.
    """

    mean: float
    ci_half_width: float
    n: int
    interference_free_fraction: float
    discarded: int = 0

    def __post_init__(self):
        if self.mean < 0 or self.ci_half_width < 0:
            raise ParameterError("mean and CI half-width must be nonnegative")


def _scheduled_network(config: SimConfig, rng: np.random.Generator, los_radius: float):
    """Sample BSs then users, associate each user within ``los_radius`` and
    schedule one user per BS: (bss, users, assoc), or None when either point
    set is empty.  Every replication draws through here, in this order."""
    bss = sample_ppp(config.bs_density, config.window, rng)
    users = sample_ppp(config.params.lambda_u, config.window, rng)
    if len(bss) == 0 or len(users) == 0:
        return None
    assoc = schedule_active(associate_strongest(users, bss, los_radius), rng)
    return bss, users, assoc


def _replication_sir(config: SimConfig, rep: int):
    """One spatial replication.

    Returns (status, sir) where status is 'ok', 'interference_free' or
    'no_active'; sir is a (fading_draws,) array of SIR samples (or an array
    of shape (n_receivers, fading_draws) when averaging all receivers).
    """
    rng = np.random.default_rng([config.master_seed, rep])
    window = config.window
    mmw = config.tier == "mmw"
    network = _scheduled_network(config, rng, config.params.r_los if mmw else math.inf)
    if network is None:
        return "no_active", None
    bss, users, assoc = network
    active = assoc.active_bs
    if active.size == 0:
        return "no_active", None

    alpha = config.alpha
    bs_pos = bss.points[active]
    user_pos = users.points[assoc.scheduled_user[active]]
    if config.direction == "dl":
        rx_all, tx_all, partner_all = user_pos, bs_pos, user_pos
    else:
        rx_all, tx_all, partner_all = bs_pos, user_pos, bs_pos

    if config.average_all_receivers:
        receiver_ids = np.arange(active.size)
    else:
        # The typical link is drawn uniformly among the scheduled links, the
        # Palm-typical link, in both directions.  Anchoring at a fixed point
        # (say the user nearest the window center) would size-bias the pick
        # toward users with few scheduled neighbours, who see less
        # interference.
        receiver_ids = np.array([int(rng.integers(active.size))])

    n_draws = config.fading_draws
    r_los = config.params.r_los
    if mmw:
        # Each transmitter aims its mainlobe at its own partner.
        to_partner = window.displacement(tx_all, partner_all)
        partner_norm = np.linalg.norm(to_partner, axis=1)
        cos_half = math.cos(config.params.theta / 2.0)
    block = max(1, _BLOCK_PAIRS // active.size)
    # Same-tier transmit powers cancel exactly in the SIR, so it is computed
    # power-free and a global power rescale cannot perturb a single bit.
    sir_rows = []
    for start in range(0, receiver_ids.size, block):
        ids = receiver_ids[start : start + block]
        rx = rx_all[ids]
        # Receiver-to-transmitter torus displacement, one coordinate plane
        # at a time: (B, A) each.
        dx = window.displacement(rx[:, :1], tx_all[:, 0])
        dy = window.displacement(rx[:, 1:], tx_all[:, 1])
        dist = np.sqrt(dx * dx + dy * dy)
        keep = dist > 0
        keep[np.arange(ids.size), ids] = False
        if mmw:
            keep &= dist <= r_los
            # Interferer j covers receiver b when the angle between its
            # partner direction and its direction to b is within theta/2.
            num = to_partner[:, 0] * -dx + to_partner[:, 1] * -dy
            den = partner_norm * dist
            cos_angle = np.where(den > 0, num / np.maximum(den, 1e-300), 1.0)
            keep &= cos_angle >= cos_half
        for row, ridx in enumerate(ids):
            r0 = float(dist[row, ridx])
            if r0 <= 0 or (mmw and r0 > r_los):
                # Desired link violating the LOS indicator carries no signal.
                sir_rows.append(np.zeros(n_draws))
                continue
            d_i = dist[row, keep[row]]
            if d_i.size == 0:
                sir_rows.append(None)
                continue
            g0 = rng.standard_exponential(n_draws)
            g_i = rng.standard_exponential((n_draws, d_i.size))
            signal = g0 * r0 ** (-alpha)
            interference = g_i @ d_i ** (-alpha)
            sir_rows.append(signal / interference)

    if not config.average_all_receivers:
        row = sir_rows[0]
        if row is None:
            return "interference_free", None
        return "ok", row
    kept = [r for r in sir_rows if r is not None]
    if not kept:
        return "interference_free", None
    return "ok", np.stack(kept)


def _rep_se(config: SimConfig, rep: int):
    status, sir = _replication_sir(config, rep)
    se = float(np.mean(np.log1p(sir))) if status == "ok" else math.nan
    return status, se


# The process's worker pool and its size: created at the first parallel
# call, replaced when the worker count changes, dropped when it breaks.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _run_reps(config: SimConfig, fn):
    """Apply fn(config, rep) over all replications, optionally in parallel,
    reducing in replication order so results are interleaving-independent.

    Parallel calls share one pool per process, with min(workers, CPU count)
    workers; the output does not depend on that count.  The workers are
    forked at the first parallel call (or when the pool is replaced) and see
    module state as of then.  A call whose worker dies raises
    ``BrokenProcessPool``, and the next call forks a new pool.
    """
    global _pool, _pool_workers
    reps = range(config.replications)
    workers = min(config.workers, os.cpu_count() or 1)
    if workers == 1 or config.replications == 1:
        return [fn(config, rep) for rep in reps]
    if _pool is None or _pool_workers != workers:
        if _pool is not None:
            _pool.shutdown()
        _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
    # About four chunks per worker: few enough to amortize the hand-off,
    # enough that even a short estimate reaches every worker.
    chunksize = max(1, math.ceil(config.replications / (4 * workers)))
    try:
        return list(
            _pool.map(fn, [config] * config.replications, reps, chunksize=chunksize)
        )
    except BrokenProcessPool:
        _pool = None
        raise


def estimate_se(config: SimConfig) -> SEEstimate:
    """Monte Carlo SE (nats/s/Hz) at the typical receiver of the configured
    tier and direction."""
    results = _run_reps(config, _rep_se)
    ses = np.array([se for status, se in results if status == "ok"])
    n_free = sum(1 for status, _ in results if status == "interference_free")
    n_dead = sum(1 for status, _ in results if status == "no_active")
    n_counted = config.replications - n_dead
    free_frac = n_free / n_counted if n_counted else 0.0
    if ses.size == 0:
        return SEEstimate(0.0, 0.0, 0, free_frac, discarded=n_dead)
    mean = float(ses.mean())
    ci = 1.96 * float(ses.std(ddof=1)) / math.sqrt(ses.size) if ses.size > 1 else 0.0
    return SEEstimate(mean, ci, int(ses.size), free_frac, discarded=n_dead)


def _rep_active_count(config: SimConfig, rep: int) -> int:
    rng = np.random.default_rng([config.master_seed, rep])
    network = _scheduled_network(config, rng, math.inf)
    return 0 if network is None else int(network[2].active_bs.size)


def validate_homogenization(config: SimConfig) -> dict:
    """Empirical active-BS density vs. the user density it should approach.

    Valid only for uniformly placed users on the downlink; the active-BS
    process homogenizes toward density lambda_u as the ratio grows.
    """
    if config.direction != "dl":
        raise ParameterError("homogenization check is a downlink diagnostic")
    counts = _run_reps(config, _rep_active_count)
    density = float(np.sum(counts)) / (config.window.area * config.replications)
    return {
        "empirical_active_density": density,
        "lambda_u": config.params.lambda_u,
        "ratio": density / config.params.lambda_u,
    }


def _all_sir_samples(config: SimConfig) -> tuple[np.ndarray, tuple]:
    results = _run_reps(config, _replication_sir)
    chunks = [np.ravel(sir) for status, sir in results if status == "ok"]
    statuses = tuple(status for status, _ in results)
    samples = np.concatenate(chunks) if chunks else np.empty(0)
    return samples, statuses


def power_invariance_check(config: SimConfig, scale: float) -> bool:
    """True iff scaling every transmit power by ``scale`` leaves all SIR
    samples bit-identical under the same seed (powers cancel in each SIR)."""
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    base_samples, base_status = _all_sir_samples(config)
    p = config.params
    scaled_params = replace(
        p,
        p_m_d=p.p_m_d * scale,
        p_m_u=p.p_m_u * scale,
        p_mu_d=p.p_mu_d * scale,
        p_mu_u=p.p_mu_u * scale,
    )
    scaled = replace(config, params=scaled_params)
    scaled_samples, scaled_status = _all_sir_samples(scaled)
    return base_status == scaled_status and np.array_equal(
        base_samples, scaled_samples
    )


def sweep_se(lambda_hat_grid, config: SimConfig) -> list[dict]:
    """Estimate SE over a grid of BS-to-user density ratios, attaching the
    matching analytic bounds and asymptote to every row."""
    grid = np.atleast_1d(np.asarray(lambda_hat_grid, dtype=float))
    if grid.size == 0:
        raise ParameterError("lambda_hat grid must be nonempty")
    rows = []
    for lhat in grid:
        p = config.params
        new_density = float(lhat) * p.lambda_u
        if config.tier == "mmw":
            params = replace(p, lambda_m=new_density)
        else:
            params = replace(p, lambda_mu=new_density)
        point = replace(config, params=params)
        est = estimate_se(point)
        bounds = bounds_for(config.tier, p, float(lhat))
        rows.append(
            dict(
                lambda_hat=float(lhat),
                tier=config.tier,
                direction=config.direction,
                se_mean=est.mean,
                se_ci=est.ci_half_width,
                lower_bound=bounds.lower,
                upper_bound=bounds.upper,
                asymptotic=bounds.asymptotic,
                interference_free_fraction=est.interference_free_fraction,
            )
        )
    return rows
