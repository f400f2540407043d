import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mmudn import simulator as sim
from mmudn.analytic_se import NetworkParams
from mmudn.errors import ParameterError
from mmudn.pointprocess import (
    Window,
    active_bs_probability,
    associate_strongest,
    sample_ppp,
    schedule_active,
)
from mmudn.simulator import (
    SimConfig,
    estimate_se,
    power_invariance_check,
    sweep_se,
    validate_homogenization,
)

LAMBDA_U = 1e-4


def net(lhat_m=100.0, lhat_mu=100.0, **kw):
    defaults = dict(alpha_m=2.5, alpha_mu=4.0, r_los=50.0)
    defaults.update(kw)
    return NetworkParams(
        lambda_m=lhat_m * LAMBDA_U,
        lambda_mu=lhat_mu * LAMBDA_U,
        lambda_u=LAMBDA_U,
        **defaults,
    )


def cfg(**kw):
    defaults = dict(
        params=net(),
        window=Window(side=1500.0),
        replications=20,
        fading_draws=8,
        master_seed=11,
        tier="muw",
        direction="dl",
    )
    defaults.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimConfig(**defaults)


# --- configuration validation ---------------------------------------------------


def test_config_validation():
    with pytest.raises(ParameterError):
        cfg(tier="thz")
    with pytest.raises(ParameterError):
        cfg(direction="sidelink")
    with pytest.raises(ParameterError):
        cfg(replications=0)
    with pytest.raises(ParameterError):
        cfg(workers=0)
    # Decoupling is an mmW-uplink concept only.
    with pytest.raises(ParameterError):
        cfg(tier="muw", direction="ul", decoupled=True)
    with pytest.raises(ParameterError):
        cfg(tier="mmw", direction="dl", decoupled=True)
    cfg(tier="mmw", direction="ul", decoupled=True)  # allowed


def test_small_window_warns():
    with pytest.warns(UserWarning, match="expected users"):
        SimConfig(params=net(), window=Window(side=100.0))


def test_auto_window_sizes_for_thousand_users():
    c = SimConfig(params=net())
    assert c.window.area * LAMBDA_U == pytest.approx(1000.0)


# --- determinism and parallelism ----------------------------------------------------


def test_estimate_is_deterministic():
    a = estimate_se(cfg())
    b = estimate_se(cfg())
    assert a == b


def test_workers_do_not_change_results():
    # Three replications are spread over both workers too.
    for reps in (12, 3):
        serial = estimate_se(cfg(replications=reps))
        parallel = estimate_se(cfg(replications=reps, workers=2))
        assert serial == parallel
    # All-receiver mode too, where one replication yields many SIR rows.
    every = dict(tier="mmw", direction="ul", average_all_receivers=True, replications=6)
    serial = estimate_se(cfg(**every))
    assert serial.n > 0
    assert serial == estimate_se(cfg(workers=2, **every))


def _exit_worker(config, rep):
    os._exit(1)


def _drop_pool():
    # So that the next parallel call forks a new pool.
    if sim._pool is not None:
        sim._pool.shutdown()
    sim._pool = None


def test_parallel_estimates_share_one_pool():
    serial = estimate_se(cfg(replications=4))
    parallel = cfg(replications=4, workers=2)
    assert estimate_se(parallel) == serial
    pool = sim._pool
    assert pool is not None
    assert estimate_se(parallel) == serial
    assert sim._pool is pool
    # A dead worker breaks the pool: the call raises, the next call forks a
    # new pool and gives the same result.
    with pytest.raises(BrokenProcessPool):
        sim._run_reps(parallel, _exit_worker)
    assert estimate_se(parallel) == serial
    assert sim._pool is not None and sim._pool is not pool


def test_pool_size_is_capped_by_cpu_count(monkeypatch):
    sizes = []

    class AtMostTwo(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            if max_workers > 2:
                raise AssertionError(f"asked for {max_workers} workers")
            super().__init__(max_workers=max_workers)

    _drop_pool()
    monkeypatch.setattr(sim, "ProcessPoolExecutor", AtMostTwo)
    serial = estimate_se(cfg(replications=8))
    assert estimate_se(cfg(replications=8, workers=64)) == serial
    # Fewer replications than workers reuse the pool.
    assert estimate_se(cfg(replications=2, workers=64)) == estimate_se(cfg(replications=2))
    assert sizes == [2]


def test_different_seeds_differ():
    a = estimate_se(cfg(master_seed=1))
    b = estimate_se(cfg(master_seed=2))
    assert a.mean != b.mean


# --- block geometry against the per-receiver loop ------------------------------------


def _per_receiver_sir(config, rep):
    """Reference for ``_replication_sir``: the geometry one receiver at a time,
    by ``Window.distance`` and an explicit mainlobe test, with the same draws.

    Returns (status, sir, rows); ``rows`` holds every receiver's SIR row, all
    zeros when its own link breaks the LOS indicator and None when no
    interferer reaches it.
    """
    rng = np.random.default_rng([config.master_seed, rep])
    window, alpha, n_draws = config.window, config.alpha, config.fading_draws
    mmw = config.tier == "mmw"
    r_los = config.params.r_los
    network = sim._scheduled_network(config, rng, r_los if mmw else math.inf)
    if network is None or network[2].active_bs.size == 0:
        return "no_active", None, []
    bss, users, assoc = network
    active = assoc.active_bs
    bs_pos = bss.points[active]
    user_pos = users.points[assoc.scheduled_user[active]]
    if config.direction == "dl":
        rx_all, tx_all, partner_all = user_pos, bs_pos, user_pos
    else:
        rx_all, tx_all, partner_all = bs_pos, user_pos, bs_pos
    if config.average_all_receivers:
        receiver_ids = range(active.size)
    else:
        receiver_ids = [int(rng.integers(active.size))]
    rows = []
    for ridx in receiver_ids:
        rx = rx_all[ridx]
        r0 = float(window.distance(tx_all[ridx], rx))
        if r0 <= 0 or (mmw and r0 > r_los):
            rows.append(np.zeros(n_draws))
            continue
        others = np.flatnonzero(np.arange(active.size) != ridx)
        tx_i = tx_all[others]
        d_i = window.distance(rx, tx_i)
        keep = d_i > 0
        if mmw:
            keep &= d_i <= r_los
            to_partner = window.displacement(tx_i, partner_all[others])
            to_rx = window.displacement(tx_i, rx[None, :])
            num = np.einsum("ij,ij->i", to_partner, to_rx)
            den = np.linalg.norm(to_partner, axis=1) * np.linalg.norm(to_rx, axis=1)
            cos_angle = np.where(den > 0, num / np.maximum(den, 1e-300), 1.0)
            keep &= cos_angle >= math.cos(config.params.theta / 2.0)
        d_i = d_i[keep]
        if d_i.size == 0:
            rows.append(None)
            continue
        g0 = rng.exponential(size=n_draws)
        g_i = rng.exponential(size=(n_draws, d_i.size))
        rows.append(g0 * r0 ** (-alpha) / (g_i @ d_i ** (-alpha)))
    kept = [row for row in rows if row is not None]
    if not kept:
        return "interference_free", None, rows
    return "ok", np.stack(kept) if config.average_all_receivers else kept[0], rows


@pytest.mark.parametrize("block_pairs", [sim._BLOCK_PAIRS, 1])
@pytest.mark.parametrize("tier", ["muw", "mmw"])
@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_block_geometry_is_bit_identical(monkeypatch, tier, direction, block_pairs):
    # block_pairs = 1 puts one receiver in each block, however many are active.
    monkeypatch.setattr(sim, "_BLOCK_PAIRS", block_pairs)
    real_network = sim._scheduled_network

    def unrestricted_network(config, rng, los_radius):
        return real_network(config, rng, math.inf)

    seen = set()

    def check(config, reps):
        for rep in reps:
            status, sir = sim._replication_sir(config, rep)
            ref_status, ref_sir, rows = _per_receiver_sir(config, rep)
            assert status == ref_status, (config, rep)
            if ref_sir is None:
                assert sir is None
            else:
                assert np.array_equal(sir, ref_sir), (config, rep)
            if not config.average_all_receivers:
                continue
            cases = {
                status: True,
                "one active": len(rows) == 1,
                "several blocks": len(rows) > max(1, sim._BLOCK_PAIRS // max(len(rows), 1)),
                "free row": any(row is None for row in rows),
                "zero row": any(row is not None and not row.any() for row in rows),
            }
            seen.update(case for case, hit in cases.items() if hit)

    for every in (False, True):
        base = dict(tier=tier, direction=direction, average_all_receivers=every)
        check(cfg(replications=1, **base), range(4))
        # About two users in the window: some replications have one active BS.
        check(cfg(replications=1, window=Window(side=150.0), **base), range(12))
        if tier == "mmw":
            # Association ignoring R_L gives links the LOS indicator zeroes.
            with monkeypatch.context() as m:
                m.setattr(sim, "_scheduled_network", unrestricted_network)
                check(cfg(replications=1, params=net(lhat_m=2.0), **base), range(4))
    expected = {"one active", "several blocks", "free row", "ok", "interference_free"}
    if tier == "mmw":
        expected.add("zero row")
    assert expected <= seen


# --- power invariance -----------------------------------------------------------------


@pytest.mark.parametrize("scale", [1.0, 100.0, 1e-6])
def test_power_invariance(scale):
    assert power_invariance_check(cfg(replications=6), scale)
    assert power_invariance_check(
        cfg(replications=6, tier="mmw", direction="ul"), scale
    )


def test_power_invariance_rejects_bad_scale():
    with pytest.raises(ParameterError):
        power_invariance_check(cfg(replications=2), 0.0)


# --- interference-free accounting --------------------------------------------------------


def test_interference_free_fraction_near_one_for_sparse_mmw():
    # Tiny LOS radius: the typical receiver almost never sees an interferer.
    c = cfg(
        params=net(lhat_m=2.0, r_los=8.0),
        tier="mmw",
        replications=30,
    )
    est = estimate_se(c)
    assert est.interference_free_fraction > 0.8
    assert est.n + round(est.interference_free_fraction * (30 - est.discarded)) <= 30


def test_muw_counts_every_replication():
    est = estimate_se(cfg(replications=15))
    assert est.interference_free_fraction == 0.0
    assert est.n == 15 - est.discarded


# --- homogenization --------------------------------------------------------------------


def test_homogenization_dense_regime():
    out = validate_homogenization(cfg(replications=30))
    assert out["ratio"] == pytest.approx(1.0, abs=0.05)


def test_homogenization_matches_active_probability_at_unity():
    c = cfg(params=net(lhat_mu=1.0), replications=60)
    out = validate_homogenization(c)
    # Empirical active density ~ lambda_bs * p_a = lambda_u * lhat * p_a.
    assert out["ratio"] == pytest.approx(active_bs_probability(1.0), rel=0.05)


def test_homogenization_rejects_uplink():
    with pytest.raises(ParameterError):
        validate_homogenization(cfg(direction="ul"))


# --- physical consistency -----------------------------------------------------------------


def test_mmw_with_wide_beam_and_huge_los_matches_muw():
    # theta = 2 pi and R_L beyond the window diagonal with equal exponents
    # make the mmW link model coincide with the uW one.
    base = dict(window=Window(side=1200.0), replications=40, fading_draws=10)
    muw = estimate_se(cfg(tier="muw", params=net(alpha_mu=3.0), **base))
    mmw = estimate_se(
        cfg(
            tier="mmw",
            params=net(alpha_m=3.0, theta=2 * math.pi, r_los=1e5),
            **base,
        )
    )
    assert mmw.interference_free_fraction == 0.0
    tol = 2 * (muw.ci_half_width + mmw.ci_half_width)
    assert abs(mmw.mean - muw.mean) <= tol


def test_ul_and_dl_close_in_dense_regime():
    base = dict(replications=60, fading_draws=10)
    dl = estimate_se(cfg(direction="dl", **base))
    ul = estimate_se(cfg(direction="ul", **base))
    tol = 2.5 * (dl.ci_half_width + ul.ci_half_width)
    assert abs(dl.mean - ul.mean) <= tol


def test_average_all_receivers_agrees_with_typical():
    typical = estimate_se(cfg(replications=60))
    averaged = estimate_se(cfg(replications=15, average_all_receivers=True))
    tol = 2.5 * (typical.ci_half_width + averaged.ci_half_width + 0.05)
    assert abs(typical.mean - averaged.mean) <= tol


def test_typical_receiver_is_unbiased_for_dense_muw():
    # The typical link is uniform over scheduled links, so its SE has the
    # expectation of the all-receiver average.  A receiver picked by position
    # (the user nearest the window center) is not: at lambda_hat = 1000 it
    # reads ~0.6-1 nat high, beyond 4 standard errors at these counts.
    base = dict(
        params=NetworkParams(lambda_m=0.02, lambda_mu=10.0, lambda_u=0.01),
        window=Window(side=150.0),
        fading_draws=20,
        master_seed=17,
        workers=2,
    )
    typical = estimate_se(cfg(replications=1000, **base))
    averaged = estimate_se(cfg(replications=40, average_all_receivers=True, **base))
    se = math.hypot(typical.ci_half_width, averaged.ci_half_width) / 1.96
    assert abs(typical.mean - averaged.mean) <= 4 * se


# --- sweeps and CSV ---------------------------------------------------------------------------


def test_sweep_rows_carry_bounds():
    rows = sweep_se([10.0, 100.0], cfg(replications=8))
    assert [r["lambda_hat"] for r in rows] == [10.0, 100.0]
    for r in rows:
        assert r["tier"] == "muw" and r["direction"] == "dl"
        assert r["lower_bound"] <= r["upper_bound"]
        assert r["se_mean"] >= 0.0


def test_sweep_empty_grid_rejected():
    with pytest.raises(ParameterError):
        sweep_se([], cfg())


# --- lazily drawn BSs -----------------------------------------------------------------


def _acceptance_config(tier, direction, lhat, side, reps, seed):
    """A configuration of acceptance criteria 2 and 3 (lambda_u = 0.01)."""
    if tier == "muw":
        params = NetworkParams(lambda_m=0.02, lambda_mu=lhat * 0.01, lambda_u=0.01, alpha_mu=4.0)
    else:
        params = NetworkParams(
            lambda_m=lhat * 0.01, lambda_mu=0.02, lambda_u=0.01,
            alpha_m=2.5, theta=math.radians(15.0), r_los=10.0,
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimConfig(
            params=params, window=Window(side=side), replications=reps, fading_draws=20,
            master_seed=seed, tier=tier, direction=direction,
        )


def _full_window_network(config, rng, los_radius):
    """The reference draw: every BS of the window by ``sample_ppp``, then the
    users, associated against the BSs as an ordinary point set."""
    bss = sample_ppp(config.bs_density, config.window, rng)
    users = sample_ppp(config.params.lambda_u, config.window, rng)
    if len(bss) == 0 or len(users) == 0:
        return None
    return bss, users, schedule_active(associate_strongest(users, bss, los_radius), rng)


# The acceptance configurations (tier, lhat, window side), and the seeds and
# replication counts of the law test, fixed before it first ran.
_LAW_CASES = [
    ("muw", 10.0, 316.0), ("muw", 100.0, 200.0), ("muw", 1000.0, 150.0),
    ("mmw", 10.0, 100.0), ("mmw", 100.0, 100.0), ("mmw", 1000.0, 60.0),
]
_LAW_SEEDS = {"lazy": 15101, "full": 15102}
_LAW_REPS = {"muw": 120, "mmw": 240}


@pytest.mark.parametrize("direction", ["dl", "ul"])
@pytest.mark.parametrize("tier,lhat,side", _LAW_CASES)
def test_lazy_bs_draw_has_the_full_window_law(monkeypatch, tier, lhat, side, direction):
    # Typical-receiver SIR of the simulator (BSs drawn around the users)
    # against a reference that draws every BS in the window.  The KS test
    # takes one SIR per replication, its first fading draw: the draws of one
    # replication share its geometry, so only one per replication is i.i.d.
    def samples(kind):
        config = _acceptance_config(tier, direction, lhat, side, _LAW_REPS[tier], _LAW_SEEDS[kind])
        sirs = [sim._replication_sir(config, rep) for rep in range(config.replications)]
        return [sir for status, sir in sirs if status == "ok"]

    lazy = samples("lazy")
    monkeypatch.setattr(sim, "_scheduled_network", _full_window_network)
    full = samples("full")
    ks = ks_2samp([s[0] for s in lazy], [s[0] for s in full])
    assert ks.pvalue > 1e-3, (ks, len(lazy), len(full))
    # Per-replication SE, as estimate_se averages it: 95 % CIs overlap.
    (m1, c1), (m2, c2) = (
        (se.mean(), 1.96 * se.std(ddof=1) / math.sqrt(se.size))
        for se in (np.array([np.log1p(s).mean() for s in part]) for part in (lazy, full))
    )
    assert abs(m1 - m2) <= c1 + c2, (m1, c1, m2, c2)


def test_replication_cost_follows_the_users():
    # 225 users in a 150 m window: at lhat = 1e3 the window holds 225,000
    # BSs and at lhat = 1e5 22.5M, yet a replication draws only the cells of
    # the users' blocks, about 8,100 BSs (225 users x 9 cells x 4 BSs, less
    # overlap), and counts the rest.
    for lhat in (1e3, 1e5):
        config = _acceptance_config("muw", "dl", lhat, 150.0, 1, 3)
        bss, users, assoc = sim._scheduled_network(config, np.random.default_rng([3, 0]), math.inf)
        expected = config.bs_density * config.window.area
        assert len(bss) < 20_000, (lhat, len(bss))
        assert abs(assoc.n_bs - expected) < 5 * math.sqrt(expected), (lhat, assoc.n_bs)
        assert assoc.scheduled_user.size == len(bss)
        assert sim._replication_sir(config, 0)[0] == "ok"
