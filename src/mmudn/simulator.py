"""Monte Carlo SIR/SE estimation for both tiers and directions.

Each replication samples a fresh user point process, associates users to
their strongest (nearest qualifying) BS of a fresh BS process drawn only
around them (:class:`~mmudn.pointprocess.LazyPPP`: a BS left undrawn serves
no user, so it is inactive and never interferes), schedules one user per BS
uniformly at random, and measures ln(1 + SIR) at the typical receiver — the
receiving end of a scheduled link drawn uniformly among all scheduled links,
so that every link is equally likely to be the typical one — averaging over
i.i.d. unit-mean exponential fading draws.  mmW links require the LOS
indicator (distance within R_L) and interferers must additionally cover the
receiver with their mainlobe.  One pass gives each replication one record,
its status, SE and active-BS count (see :func:`_reps_records`):
:func:`estimate_se` reads the status and SE, and
:func:`validate_homogenization` the active-BS count of the same network.

Replications run in batches (see :func:`_batches`): each numpy pass of a
batch covers all its replications, so the fixed cost of a numpy call, which
dominates a replication of a few hundred users, is paid once per batch.
Every replication still draws on its own stream, in the order it would
alone: users, the BSs around them, the count of the BSs left undrawn, the
schedule, the typical receiver, then the fading.  Association and scheduling
run once per batch (see :mod:`~mmudn.pointprocess`).  An estimate has one
batch plan: batches of nearly equal size, each within ``_BATCH_POINTS``
expected points (the cells of the users' blocks and the BSs drawn), which
bounds its memory whatever the replication count.

One rule decides which transmitters interfere, in both receiver modes (see
:func:`_receivers_sir`): typical mode measures one receiver per
replication, all-receiver mode every receiver.  A transmitter counts when
it is not the receiver's own, at a positive distance and, for mmW, within
R_L with a covering mainlobe (tested only for the pairs within R_L).  Each
receiver is paired only with candidates of its own replication: for mmW
with many receivers per replication, the transmitters in the 3x3 block of
grid cells around its own, cells at least R_L wide and keyed
k n^2 + x n + y as in association and read as the same row runs, so the
pairs grow linearly with the users; otherwise (muW, few receivers, or a
block that wraps the grid) every active transmitter of its replication.
The pairs run in the blocks an association search uses (at most
``pointprocess._BLOCK_PAIRS`` pairs at a time).  Fading is drawn per
receiver, ``g0`` then ``g_i``, receiver by receiver, with the sizes and
order of a one-receiver loop, interferers in ascending transmitter index;
one large draw per replication would reorder the stream, and measured
slower.  Elements take the same floating-point operations however the pairs
are cut into batches, cells and chunks, so none of these changes a bit.

Replications are independent and reproducible: replication ``i`` runs on
``default_rng([master_seed, i])`` regardless of batch, execution order or
worker count.  Parallel estimates share one worker pool per process, whose
tasks are contiguous groups of the plan's whole batches (see
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
    _TIERS,
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
    LazyPPP,
    Window,
    _block_candidates,
    _pair_blocks,
    _ragged_index,
    associate_strongest,
    sample_ppp,
    schedule_active,
)

__all__ = [
    "SimConfig",
    "SEEstimate",
    "estimate_se",
    "validate_homogenization",
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

_DIRECTIONS = ("dl", "ul")
# Expected points per batch of replications (see _batches).  A batch's
# association and receiver geometry run over all its replications at once,
# so the fixed cost of each numpy call is shared, but its scratch grows by
# about 45-100 bytes per point: the largest batch of the muW lambda_hat =
# 10, 1,000-user configuration (6 replications) peaks at 5.0 MiB under
# tracemalloc, within the 6 MiB that tests/test_simulator.py holds it to,
# and the benchmark's largest, 8 muW replications at lambda_hat = 1000, at
# 7.9 MiB.  Most of the spread is the association grid's cell table (8
# bytes per cell, n^2 cells per replication), which the count leaves out:
# it weighs most at high lambda_hat, where the grid has far more cells than
# the users' blocks cover (56,000 against about 2,000 at lambda_hat = 1000).
# Summed medians of ms per mc_acceptance operation at 2^14 to 2^18 (9
# interleaved passes, 2-core VM): 1005, 844, 735, 717 and 728 ms on one
# worker, 612, 507, 460, 438 and 400 ms on two.  Whole two-worker
# benchmark runs (10 s) were faster at 2^17 than at 2^18 in 6 of 6 pairs,
# and the pool workers peaked at 65.8 MiB resident against 70.3 MiB.
# BENCH_32.json has each operation.
_BATCH_POINTS = 1 << 17

# Receivers per replication from which the receiver geometry bins a batch's
# transmitters into cells (see _candidates); with fewer, pairing each
# receiver with every transmitter of its replication costs less.  Timed on
# a 2-core VM, geometry per mmW replication at R_L = 10 m and lambda_u =
# 0.01, cells against all pairs on the same networks: cells took 80-93 %
# longer with one receiver (typical mode), 38-52 % longer with 12-16
# receivers and 8-10 % with 25, and 4-11 % less with 36 (4 % more in one
# run of three), 15-17 % with 49, 33 % with 64, 50 % with 100 and 93 % with
# 1,000 (BENCH_31.json, cell_threshold_geometry_ms_per_replication).
_CELL_RECEIVERS = 24


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
        if self.master_seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.master_seed}")
        if self.decoupled and (self.tier, self.direction) != ("mmw", "ul"):
            raise ParameterError("decoupling applies to the mmW uplink only")
        if self.window is None:
            # Sized for 1,000 expected users, it does not warn however it rounds.
            object.__setattr__(
                self,
                "window",
                Window.for_expected_points(self.params.lambda_u, 1e3),
            )
        elif (expected_users := self.params.lambda_u * self.window.area) < 1e3:
            warnings.warn(
                f"window holds only {expected_users:.4g} expected users (< 1000); "
                "estimates leave out interference from beyond half the window side",
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
    (in all-receiver mode: every receiver) saw no LOS-and-aligned
    interferer; those are excluded from the mean.  ``discarded`` counts
    replications with no active transmitter at all.
    """

    mean: float
    ci_half_width: float
    n: int
    interference_free_fraction: float
    discarded: int = 0

    def __post_init__(self):
        if self.mean < 0 or self.ci_half_width < 0:
            raise ParameterError("mean and CI half-width must be nonnegative")


def _generators(config: SimConfig, reps: range) -> list[np.random.Generator]:
    """Replication i's stream: ``default_rng([master_seed, i])``."""
    return [np.random.default_rng([config.master_seed, rep]) for rep in reps]


def _worker_count(config: SimConfig) -> int:
    """The pool's real size for ``config``: min(workers, CPU count)."""
    return min(config.workers, os.cpu_count() or 1)


def _cut(items, parts: int) -> list:
    """``items`` cut into ``parts`` contiguous slices whose lengths differ
    by at most one, the longer first."""
    size, extra = divmod(len(items), parts)
    ends = [k * size + min(k, extra) for k in range(parts + 1)]
    return [items[lo:hi] for lo, hi in zip(ends, ends[1:])]


def _replication_points(config: SimConfig) -> float:
    """A replication's expected points: the nine cells of each user's
    block, read as three row runs of three cells, the BSs association
    draws, which are at most the window's and about four per cell, and 16
    more for its generator (1 KiB, the scratch of about ten points).  The
    association grid's cell table, 8 bytes for each of its n^2 cells, is
    not counted (see ``_BATCH_POINTS``)."""
    area = config.window.area
    cells = 9 * config.params.lambda_u * area
    return 16 + cells + min(config.bs_density * area, 4 * cells)


def _batches(config: SimConfig) -> list[range]:
    """The estimate's batch plan: ``range(config.replications)`` cut into
    contiguous batches whose sizes differ by at most one.

    Their count is the smallest that keeps each batch within
    ``_BATCH_POINTS`` expected points (see :func:`_replication_points`), or
    at one replication, rounded up to a multiple of the pool's worker count
    so that the workers get equal shares of whole batches, but at most one
    batch per replication."""
    cap = max(1, int(_BATCH_POINTS // _replication_points(config)))
    workers = _worker_count(config)
    count = math.ceil(math.ceil(config.replications / cap) / workers) * workers
    return _cut(range(config.replications), min(count, config.replications))


def _scheduled_network(config: SimConfig, rngs, los_radius: float):
    """Sample each replication's users, then associate each within
    ``los_radius`` with its nearest BS of the replication's lazily drawn BS
    process, and schedule one user per BS, for a batch of replications with
    one generator each: (bss, user_points, assoc), the users of the whole
    batch in one array, indexed as :class:`~mmudn.pointprocess.AssociationMap`
    says.  Every replication draws through here, on its own generator, in
    this order: users, the BSs around them, the count of the BSs left
    undrawn, then the schedule."""
    users = [sample_ppp(config.params.lambda_u, config.window, rng) for rng in rngs]
    bss = LazyPPP(config.bs_density, config.window, rngs)
    assoc = schedule_active(associate_strongest(users, bss, los_radius), rngs)
    return bss, np.concatenate(users), assoc


def _batch_sir(config: SimConfig, reps: range) -> list[tuple]:
    """The replications of one batch, in order.

    Returns one (status, sir, active) per replication, where status is 'ok',
    'interference_free' or 'no_active'; sir is a (fading_draws,) array of
    SIR samples (or an array of shape (n_receivers, fading_draws) when
    averaging all receivers), or None; and active counts the replication's
    active BSs.

    In typical mode each replication's one receiver is the receiving end of
    a scheduled link drawn uniformly among its scheduled links, the
    Palm-typical link, in both directions.  Anchoring at a fixed point (say
    the user nearest the window center) would size-bias the pick toward
    users with few scheduled neighbours, who see less interference.
    """
    rngs = _generators(config, reps)
    mmw = config.tier == "mmw"
    bss, user_points, assoc = _scheduled_network(config, rngs, config.params.r_los if mmw else math.inf)
    active = assoc.active_bs
    # Replication k's active BSs are active[bounds[k]:bounds[k + 1]].
    bounds = np.searchsorted(active, assoc.bs_starts)
    bs_pos = bss.points[active]
    user_pos = user_points[assoc.scheduled_user[active]]
    if config.direction == "dl":
        rx_all, tx_all, partner_all = user_pos, bs_pos, user_pos
    else:
        rx_all, tx_all, partner_all = bs_pos, user_pos, bs_pos
    if config.average_all_receivers:
        receivers = np.arange(active.size)
    else:
        spans = zip(rngs, bounds.tolist(), bounds[1:].tolist())
        receivers = np.array([lo + int(rng.integers(hi - lo)) for rng, lo, hi in spans if hi > lo], dtype=np.int64)
    sirs = _receivers_sir(config, rngs, bounds, receivers, rx_all, tx_all, partner_all)
    # Replication k's receivers are receivers[ends[k]:ends[k + 1]].
    ends = np.searchsorted(receivers, bounds).tolist()
    out = []
    for a, b, n_active in zip(ends, ends[1:], np.diff(bounds).tolist()):
        rows = [sir for sir in sirs[a:b] if sir is not None]
        if a == b:
            out.append(("no_active", None, n_active))
        elif not rows:
            out.append(("interference_free", None, n_active))
        else:
            out.append(("ok", np.stack(rows) if config.average_all_receivers else rows[0], n_active))
    return out


def _faded(config: SimConfig, rng: np.random.Generator, r0: float, d_i: np.ndarray):
    """A receiver's SIR samples, at distance ``r0`` from its transmitter and
    ``d_i`` from the interferers that count: all zeros when it has no link
    (``r0`` is inf), None when no interferer counts.  The fading draws come
    from ``rng``, ``g0`` then ``g_i``.  Same-tier transmit powers cancel
    exactly in the SIR, so it is computed power-free."""
    n_draws, alpha = config.fading_draws, config.alpha
    if r0 == math.inf:
        return np.zeros(n_draws)
    if d_i.size == 0:
        return None
    g0 = rng.standard_exponential(n_draws)
    g_i = rng.standard_exponential((n_draws, d_i.size))
    signal = g0 * r0 ** (-alpha)
    interference = g_i @ d_i ** (-alpha)
    return signal / interference


def _receivers_sir(config: SimConfig, rngs, bounds, receivers, rx_all, tx_all, partner_all) -> list:
    """The SIR samples of each receiver, by :func:`_faded`, in order.

    ``receivers`` are indices of active links, ascending; replication k's
    links are ``bounds[k]`` to ``bounds[k + 1] - 1``.  Each receiver is
    paired with the candidate transmitters of its runs (see
    :func:`_candidates`): those of its replication in the 3x3 block of cells
    around its own, or every one of its replication when that block wraps
    the grid.  The pairs are cut by
    :func:`~mmudn.pointprocess._pair_blocks` into blocks of at most
    ``_BLOCK_PAIRS`` (or one receiver's, when it has more).  A pair is kept
    at a positive distance, for mmW also within R_L.  The receiver's own
    kept pair gives its link length ``r0``; without one it has no link and
    its SIR is zero.  Any other kept transmitter interferes, for mmW only
    when its mainlobe, aimed at its own partner, covers the receiver.  Each
    receiver meets its interferers in ascending transmitter index, and its
    fading draws come from its replication stream, receiver by receiver.
    """
    window, mmw = config.window, config.tier == "mmw"
    rep = np.searchsorted(bounds, receivers, side="right") - 1
    rx = rx_all[receivers]
    order, starts, counts = _candidates(config, bounds, rep, rx, tx_all)
    # Contiguous coordinate columns: gathering 16k pairs from one took 14 us
    # against 42 us from a column of the (transmitters, 2) array.  The
    # geometry of a 1,000-user muW all-receiver replication fell from 24.4
    # to 18.7 ms (medians of 10 alternating process pairs, 2-core VM).
    tx_x, tx_y = tx_all.T.copy()
    pairs = counts.sum(axis=1)
    rep = rep.tolist()
    out = []
    for lo, hi in _pair_blocks(pairs):
        # Receiver i of the block holds pairs edges[i] to edges[i + 1] - 1.
        edges = np.concatenate(([0], np.cumsum(pairs[lo:hi])))
        tx = _ragged_index(starts[lo:hi].ravel(), counts[lo:hi].ravel())
        if order is not None:
            tx = order[tx]
        # Receiver-to-transmitter torus displacement, one coordinate at a time.
        dx = window.displacement(np.repeat(rx[lo:hi, 0], pairs[lo:hi]), tx_x[tx])
        dy = window.displacement(np.repeat(rx[lo:hi, 1], pairs[lo:hi]), tx_y[tx])
        dist = np.sqrt(dx * dx + dy * dy)
        keep = dist > 0
        if mmw:
            keep &= dist <= config.params.r_los
        own = tx == np.repeat(receivers[lo:hi], pairs[lo:hi])
        # A receiver whose own pair is not kept has no link: r0 = inf.
        mine = np.flatnonzero(keep & own)
        r0 = np.full(hi - lo, math.inf)
        r0[np.searchsorted(edges, mine, side="right") - 1] = dist[mine]
        kept = np.flatnonzero(keep & ~own)
        if mmw:
            # Receiver i of the block and transmitter j of each pair.
            i = np.searchsorted(edges, kept, side="right") - 1
            j = tx[kept]
            # Interferer j covers the receiver when the angle between its
            # partner direction and its direction to the receiver is within
            # theta/2.
            to_partner = window.displacement(tx_all[j], partner_all[j])
            num = to_partner[:, 0] * -dx[kept] + to_partner[:, 1] * -dy[kept]
            den = np.linalg.norm(to_partner, axis=1) * dist[kept]
            cos_angle = np.where(den > 0, num / np.maximum(den, 1e-300), 1.0)
            hit = cos_angle >= math.cos(config.params.theta / 2.0)
            kept, i, j = kept[hit], i[hit], j[hit]
        cuts = np.searchsorted(kept, edges).tolist()
        if order is not None:
            # Cells list a block's transmitters out of index order.
            kept = kept[np.lexsort((j, i))]
        d = dist[kept]
        for k, r, a, b in zip(rep[lo:hi], r0.tolist(), cuts, cuts[1:]):
            out.append(_faded(config, rngs[k], r, d[a:b]))
    return out


def _candidates(config: SimConfig, bounds, rep, rx, tx_all):
    """The candidate interferers of each receiver, at ``rx``, of replication
    ``rep``: run c of receiver i holds ``starts[i, c]`` to ``starts[i, c] +
    counts[i, c] - 1`` of the transmitters sorted by ``order`` (None: in
    index order).

    For mmW the candidates are the transmitters of the receiver's
    replication in the 3x3 block of cells around its own, on a grid whose
    cells are wider than R_L, read as the block's row runs (see
    :func:`~mmudn.pointprocess._block_candidates`).  With fewer than three
    such cells per side (and for muW, which has no radius) the block would
    wrap the grid, so the candidates are every transmitter of the
    replication: one run, in index order.  So are they for a batch of fewer
    than ``_CELL_RECEIVERS`` receivers per replication, for which binning
    the transmitters costs more than the pairs it saves.
    """
    if config.tier == "mmw" and rep.size >= _CELL_RECEIVERS * (np.count_nonzero(np.diff(rep)) + 1):
        cells = _block_candidates(tx_all, bounds, rx, rep, config.window.side, config.params.r_los)
        if cells is not None:
            return cells
    first = bounds[rep]
    return None, first[:, None], (bounds[rep + 1] - first)[:, None]


def _reps_records(config: SimConfig, batches: list[range]) -> list[tuple]:
    """(status, SE, active-BS count) of each replication of ``batches``,
    batch by batch, so that only one batch's SIR samples are held at a
    time."""
    return [
        (status, float(np.mean(np.log1p(sir))) if status == "ok" else math.nan, n_active)
        for batch in batches
        for status, sir, n_active in _batch_sir(config, batch)
    ]


# The process's worker pool and its size: created at the first parallel
# call, replaced when the worker count changes, dropped when it breaks.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _run_reps(config: SimConfig, fn) -> list:
    """Every replication of ``config``, by ``fn(config, batches)``, which
    runs the batches it is given, in order, and returns one result per
    replication: the results in replication order, so they are
    interleaving-independent.

    The batches are the estimate's one plan (see :func:`_batches`).  One
    worker runs them all; a pool is handed contiguous groups of whole
    batches, about four groups per worker (one batch each when there are
    fewer), so no batch is cut again.  Parallel calls share one pool per
    process, with min(workers, CPU count) workers; the output does not
    depend on that count.  The workers are forked at the first parallel call
    (or when the pool is replaced) and see module state as of then.  A call
    whose worker dies raises ``BrokenProcessPool``, and the next call forks
    a new pool.
    """
    global _pool, _pool_workers
    batches = _batches(config)
    workers = _worker_count(config)
    if workers == 1 or len(batches) == 1:
        return fn(config, batches)
    if _pool is None or _pool_workers != workers:
        if _pool is not None:
            _pool.shutdown()
        _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
    # About four groups per worker: few enough to amortize the hand-off,
    # enough that the workers finish close together.
    groups = _cut(batches, min(len(batches), 4 * workers))
    try:
        parts = list(_pool.map(fn, [config] * len(groups), groups))
    except BrokenProcessPool:
        _pool = None
        raise
    return [result for part in parts for result in part]


def estimate_se(config: SimConfig) -> SEEstimate:
    """Monte Carlo SE (nats/s/Hz) at the typical receiver of the configured
    tier and direction."""
    records = _run_reps(config, _reps_records)
    ses = np.array([se for status, se, _ in records if status == "ok"])
    n_free = sum(1 for status, _, _ in records if status == "interference_free")
    n_dead = sum(1 for status, _, _ in records if status == "no_active")
    n_counted = config.replications - n_dead
    free_frac = n_free / n_counted if n_counted else 0.0
    if ses.size == 0:
        return SEEstimate(0.0, 0.0, 0, free_frac, discarded=n_dead)
    mean = float(ses.mean())
    ci = 1.96 * float(ses.std(ddof=1)) / math.sqrt(ses.size) if ses.size > 1 else 0.0
    return SEEstimate(mean, ci, int(ses.size), free_frac, discarded=n_dead)


def validate_homogenization(config: SimConfig) -> dict:
    """Empirical active-BS density vs. the user density it should approach.

    Valid only for uniformly placed users on the downlink; the active-BS
    process homogenizes toward density lambda_u as the ratio grows.  It
    counts the active BSs of the network :func:`estimate_se` simulates for
    ``config``: an mmW BS is active only when it serves a user within R_L,
    so there the ratio tends to the LOS probability p_L, not to 1.
    """
    if config.direction != "dl":
        raise ParameterError("homogenization check is a downlink diagnostic")
    counts = [n_active for _, _, n_active in _run_reps(config, _reps_records)]
    density = float(np.sum(counts)) / (config.window.area * config.replications)
    return {
        "empirical_active_density": density,
        "lambda_u": config.params.lambda_u,
        "ratio": density / config.params.lambda_u,
    }


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
