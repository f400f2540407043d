import functools
import math
import os
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from mmudn import pointprocess as pp
from mmudn import simulator as sim
from mmudn.analytic_se import NetworkParams
from mmudn.errors import ParameterError
from mmudn.pointprocess import (
    AssociationMap,
    Window,
    associate_strongest,
    sample_ppp,
    schedule_active,
)
from mmudn.simulator import (
    SimConfig,
    estimate_se,
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lambda_u", [1e-4, 3e-4, 1e-2])
def test_auto_window_sizes_for_thousand_users(lambda_u):
    # The window sized for the user density never warns about its own size,
    # whichever way its area rounds (3e-4 rounds below 1,000 users).
    c = SimConfig(params=NetworkParams(lambda_m=100 * lambda_u, lambda_mu=100 * lambda_u, lambda_u=lambda_u))
    assert c.window.area * lambda_u == pytest.approx(1000.0)


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


def _exit_worker(config, batches):
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


@pytest.mark.parametrize("block_pairs", [pp._BLOCK_PAIRS, 1])
@pytest.mark.parametrize("tier", ["muw", "mmw"])
@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_block_geometry_is_bit_identical(monkeypatch, per_receiver_sir, tier, direction, block_pairs):
    # block_pairs = 1 puts one receiver in each block, however many are active.
    monkeypatch.setattr(pp, "_BLOCK_PAIRS", block_pairs)
    real_candidates = sim._candidates

    def spy_candidates(config, *args):
        order, starts, counts = real_candidates(config, *args)
        seen.add("one cell" if order is None else "cells")
        # Runs 3 to 5 hold the columns of a block that wrapped the grid.
        if order is not None and counts[:, 3:].any():
            seen.add("wrapped runs")
        return order, starts, counts

    monkeypatch.setattr(sim, "_candidates", spy_candidates)
    seen = set()

    def check(config, reps):
        for rep in reps:
            [(status, sir, _)] = sim._batch_sir(config, range(rep, rep + 1))
            ref_status, ref_sir, rows = per_receiver_sir(config, rep)
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
                "several blocks": len(rows) > max(1, pp._BLOCK_PAIRS // max(len(rows), 1)),
                "free row": any(row is None for row in rows),
            }
            seen.update(case for case, hit in cases.items() if hit)

    for every in (False, True):
        base = dict(tier=tier, direction=direction, average_all_receivers=every)
        check(cfg(replications=1, **base), range(4))
        # About two users in the window: some replications have one active BS.
        check(cfg(replications=1, window=Window(side=150.0), **base), range(12))
        # Windows just over 3 R_L and 4 R_L wide, of 45 and 80 expected
        # users: grids of 3 and 4 cells per side, whose 3x3 blocks wrap the
        # torus seam, with cells in both receiver modes.
        with monkeypatch.context() as m:
            m.setattr(sim, "_CELL_RECEIVERS", 1)
            for side in (150.001, 200.001):
                params = NetworkParams(lambda_m=0.2, lambda_mu=0.2, lambda_u=2e-3, r_los=50.0)
                seen.discard("wrapped runs")
                check(cfg(replications=1, window=Window(side=side), params=params, **base), range(3))
                assert tier == "muw" or "wrapped runs" in seen, (side, every)
    expected = {"one active", "several blocks", "free row", "ok", "interference_free", "one cell"}
    if tier == "mmw":
        expected.add("cells")
    assert expected <= seen


@pytest.mark.parametrize("seam", [False, True])
@pytest.mark.parametrize("offset,counts", [(-1e-6, True), (1e-6, False)])
def test_mainlobe_half_angle(seam, offset, counts):
    # Two links by hand: an interferer 3 m from the receiver whose partner
    # lies theta/2 + offset from its direction to the receiver, and (seam)
    # the receiver just right of x = 0, its interferer and the interferer's
    # partner across the seam.
    theta, side = math.radians(15.0), 100.0
    config = cfg(tier="mmw", params=net(r_los=10.0, theta=theta), window=Window(side=side))
    rx = np.array([0.5 if seam else 50.0, 50.0])
    tx = (rx - [3.0, 0.0]) % side
    angle = theta / 2 + offset
    partner = (tx + 5.0 * np.array([math.cos(angle), math.sin(angle)])) % side
    rx_all, tx_all = np.array([rx, partner]), np.array([rx + [0.0, 4.0], tx])
    rngs = [np.random.default_rng(0)]
    [sir] = sim._receivers_sir(config, rngs, np.array([0, 2]), np.array([0]), rx_all, tx_all)
    assert (sir is not None) == counts


@pytest.mark.parametrize("tier,own_length,linked", [("muw", 8.0, True), ("mmw", 8.0, True)])
def test_receiver_without_own_link(tier, own_length, linked):
    # One receiver by hand, 3 m from an interferer whose partner lies toward
    # it, and its own transmitter own_length away, within R_L = 10 m: every
    # receiver has its link, read by its index, so its SIR is positive in
    # every draw, and the fading comes from the replication's stream.
    config = cfg(tier=tier, params=net(r_los=10.0), window=Window(side=100.0))
    rx = np.array([50.0, 50.0])
    rx_all = np.array([rx, rx - [1.0, 0.0]])
    tx_all = np.array([rx + [own_length, 0.0], rx - [3.0, 0.0]])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    [sir] = sim._receivers_sir(config, [rng], np.array([0, 2]), np.array([0]), rx_all, tx_all)
    assert sir.shape == (config.fading_draws,)
    assert bool(np.all(sir > 0)) == linked
    assert (rng.bit_generator.state != state) == linked


@pytest.mark.parametrize("tier", ["muw", "mmw"])
def test_every_active_link_is_one_the_association_made(monkeypatch, tier):
    # The receiver geometry reads each link's length by its index and does
    # not test it again.  So on real networks, in both directions, every
    # active link is longer than 0 and, for mmW, within R_L: exactly, or to
    # a few ulps where the link crosses the torus seam.  The cases are the
    # dense, ring-growth and wrapped batch cases, and the two seam windows
    # of test_block_geometry_is_bit_identical.
    seam = NetworkParams(lambda_m=0.2, lambda_mu=0.2, lambda_u=2e-3, r_los=50.0)
    cases = [(case, _BATCH_CASES[case]) for case in ("dense", "rings", "wrapped")]
    cases += [(side, dict(replications=3, window=Window(side=side), params=seam)) for side in (150.001, 200.001)]
    crossed = 0
    for case, kw in cases:
        monkeypatch.setattr(pp, "_BS_PER_CELL", 0.5 if case == "rings" else 4)
        for direction in ("dl", "ul"):
            config = cfg(tier=tier, direction=direction, **kw)
            r_los = config.params.r_los if tier == "mmw" else math.inf
            rngs = sim._generators(config, range(config.replications))
            bss, user_points, assoc = sim._scheduled_network(config, rngs, r_los)
            active = assoc.active_bs
            bs_pos, user_pos = bss.points[active], user_points[assoc.scheduled_user[active]]
            rx, tx = (user_pos, bs_pos) if direction == "dl" else (bs_pos, user_pos)
            d = config.window.displacement(rx, tx)
            length = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
            assert active.size and np.all(length > 0), (case, direction)
            assert np.all(length <= r_los * (1 + 4 * np.finfo(float).eps)), (case, direction)
            crossed += np.count_nonzero(np.abs(tx - rx).max(axis=1) > config.window.side / 2)
    assert crossed


# --- batches ------------------------------------------------------------------------------


def _sirs(config, batches):
    """(status, sir) of each replication of ``batches``, batch by batch."""
    return [(status, sir) for batch in batches for status, sir, _ in sim._batch_sir(config, batch)]


# (case, configuration), each branch of the batch pipeline: dense blocks; a
# 60 m window with 0.36 expected users, so most replications have no user
# and none has an active BS to spare; 22.5 expected BSs, too few for a 3x3
# block, so every cell is drawn and a block that wraps settles its users;
# half a BS per cell, so blocks grow by rings; and the sparse mmW setup of
# the silent-zero operations (1,000 users, R_L = 10 m).
_BATCH_CASES = {
    "dense": dict(replications=8),
    "empty": dict(replications=12, window=Window(side=60.0)),
    "wrapped": dict(replications=8, params=net(lhat_m=0.1, lhat_mu=0.1)),
    "rings": dict(replications=8),
    "sparse": dict(
        replications=4,
        window=None,
        params=NetworkParams(
            lambda_m=2e-3, lambda_mu=2e-3, lambda_u=1e-3,
            alpha_m=2.5, theta=math.radians(15.0), r_los=10.0,
        ),
    ),
}


@pytest.mark.parametrize("tier", ["muw", "mmw"])
@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_batch_composition_changes_no_bit(monkeypatch, tier, direction):
    # Every replication's status and SIR samples, with batches of one
    # replication, of two, and of the default plan, on one worker and on
    # two: the batch a replication runs in changes no bit.
    seen = {"radius": set(), "wrapped": 0}
    search = pp._search

    def spy_search(index, users, base, radius):
        seen["radius"].add(radius)
        seen["wrapped"] += 2 * radius + 1 > index.n
        return search(index, users, base, radius)

    monkeypatch.setattr(pp, "_search", spy_search)
    configs = {
        (case, every): [
            cfg(tier=tier, direction=direction, average_all_receivers=every, workers=workers, **kw)
            for workers in (1, 2)
        ]
        for case, kw in _BATCH_CASES.items()
        for every in (False, True)
    }
    default_batches = sim._batches
    reference, statuses = {}, set()
    for size in (1, 2, None):
        if size is None:
            monkeypatch.setattr(sim, "_batches", default_batches)
        else:
            monkeypatch.setattr(
                sim, "_batches", lambda config, size=size: [
                    range(config.replications)[i : i + size] for i in range(0, config.replications, size)
                ]
            )
        for (case, every), pair in configs.items():
            monkeypatch.setattr(pp, "_BS_PER_CELL", 0.5 if case == "rings" else 4)
            # The pool's workers see module state as of their fork.
            _drop_pool()
            for workers, config in enumerate(pair, 1):
                out = sim._run_reps(config, _sirs)
                ref = reference.setdefault((case, every), out)
                assert [status for status, _ in out] == [status for status, _ in ref], (case, every, size, workers)
                for (_, sir), (_, want) in zip(out, ref):
                    assert (sir is None and want is None) or np.array_equal(sir, want), (case, every, size, workers)
                statuses.update(status for status, _ in out)
    _drop_pool()
    assert statuses == {"ok", "interference_free", "no_active"}
    assert max(seen["radius"]) > 1 and seen["wrapped"] > 0


def _batch_edges(config, batches):
    """(first, end) of each batch a task is given."""
    return [(batch.start, batch.stop) for batch in batches]


def _task_batches(config, batches):
    """The number of batches a task is given."""
    return [len(batches)]


@pytest.mark.parametrize("workers", [1, 2, 64])
@pytest.mark.parametrize("replications", [1, 3, 20, 1000])
def test_pool_runs_the_batch_plan_whole(workers, replications):
    # No replication is simulated: the tasks only report what they get.  A
    # pool's tasks are contiguous groups of whole batches of the plan,
    # about four per worker, whose sizes differ by at most one batch.
    config = cfg(replications=replications, workers=workers)
    plan = sim._batches(config)
    assert sim._run_reps(config, _batch_edges) == [(batch.start, batch.stop) for batch in plan]
    groups = sim._run_reps(config, _task_batches)
    capped = min(workers, os.cpu_count() or 1)
    if capped == 1 or len(plan) == 1:
        assert groups == [len(plan)]
    else:
        assert len(groups) == min(len(plan), 4 * capped)
        assert sum(groups) == len(plan) and max(groups) - min(groups) <= 1


@settings(max_examples=300, deadline=None)
@given(
    replications=st.integers(1, 5000),
    workers=st.integers(1, 64),
    cpus=st.integers(1, 16),
    users=st.floats(0.5, 2e4),
    lhat=st.floats(0.1, 1e5),
    tier=st.sampled_from(["muw", "mmw"]),
)
def test_batch_plan_properties(replications, workers, cpus, users, lhat, tier):
    config = cfg(
        replications=replications, workers=workers, tier=tier,
        params=net(lhat_m=lhat, lhat_mu=lhat), window=Window(side=math.sqrt(users / LAMBDA_U)),
    )
    with mock.patch.object(sim.os, "cpu_count", return_value=cpus):
        plan = sim._batches(config)
    capped = min(workers, cpus)
    points = sim._replication_points(config)
    # Contiguous batches that cover every replication once.
    assert all(batch.step == 1 for batch in plan)
    assert [rep for batch in plan for rep in batch] == list(range(replications))
    sizes = [len(batch) for batch in plan]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert max(sizes) * points <= sim._BATCH_POINTS or max(sizes) == 1
    # Whole rounds of batches for the workers, unless a batch holds only one
    # replication and there are not enough of them.
    cap = max(1, int(sim._BATCH_POINTS // points))
    if replications >= capped and cap > 1:
        assert len(plan) % capped == 0
    # The fewest such rounds: one round less would overfill a batch.
    if capped < len(plan) < replications:
        assert math.ceil(replications / (len(plan) - capped)) > cap


def test_default_batch_memory_is_bounded():
    # The largest default batch of the muW lhat = 10 configuration of 1,000
    # users (48 replications, as in the benchmark) stays within the scratch
    # that _BATCH_POINTS's comment states.
    lambda_u = 0.01
    params = NetworkParams(lambda_m=2 * lambda_u, lambda_mu=10 * lambda_u, lambda_u=lambda_u, alpha_mu=4.0)
    config = SimConfig(params=params, replications=48, master_seed=7)
    batch = max(sim._batches(config), key=len)
    tracemalloc.start()
    try:
        sim._batch_sir(config, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, (len(batch), peak / 2**20)


# --- transmit powers ----------------------------------------------------------------------

@pytest.mark.parametrize("scale", [1.0, 100.0, 1e-6])
def test_power_invariance(power_mismatches, scale):
    # The simulator computes the SIR power-free; with every transmitter of a
    # tier and direction at one power the powers cancel, so the reference
    # that carries them must agree.
    for tier, direction in (("muw", "dl"), ("mmw", "ul")):
        assert power_mismatches(cfg(replications=6, tier=tier, direction=direction), scale) == []


# --- unit of length ----------------------------------------------------------------------


def _scaled(c, tier, direction, every):
    """The unit-change network with every length times ``c`` and every
    density over c^2: a 100 m window of 100 expected users, lambda_hat = 10
    in both tiers, and R_L = 5 m, short enough that association sizes the
    mmW grid by R_L."""
    params = NetworkParams(
        lambda_m=0.1 / c**2, lambda_mu=0.1 / c**2, lambda_u=0.01 / c**2, alpha_m=2.5, alpha_mu=4.0, r_los=5.0 * c
    )
    return cfg(
        params=params, window=Window(side=100.0 * c), replications=40, fading_draws=20, master_seed=5,
        tier=tier, direction=direction, average_all_receivers=every,
    )


@pytest.mark.parametrize("tier", ["muw", "mmw"])
def test_unit_of_length_changes_no_estimate(tier):
    # The model has no absolute length: the SE depends only on lambda_u
    # times the area, lambda_hat, lambda_b R_L^2, theta and alpha.  With
    # every length times c and every density over c^2, every estimate keeps
    # its counts, and its mean to a few ulps.  At c = 2 the coordinates,
    # Poisson counts, cells and streams scale exactly and only (2 r)^-alpha
    # rounds, so at alpha = 4 (muW) every estimate is bit-identical.
    for direction in ("dl", "ul"):
        for every in (False, True):
            base = estimate_se(_scaled(1, tier, direction, every))
            for c in (2, 3):
                est = estimate_se(_scaled(c, tier, direction, every))
                case = (direction, every, c, base, est)
                assert (est.n, est.interference_free_fraction, est.discarded) == (
                    base.n, base.interference_free_fraction, base.discarded
                ), case
                assert abs(est.mean - base.mean) <= 16 * math.ulp(base.mean), case
                assert est.ci_half_width == pytest.approx(base.ci_half_width, rel=1e-12), case
                if c == 2 and tier == "muw":
                    assert est == base, case


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


def test_homogenization_matches_active_probability_at_unity(active_bs_probability):
    c = cfg(params=net(lhat_mu=1.0), replications=60)
    out = validate_homogenization(c)
    # Empirical active density ~ lambda_bs * p_a = lambda_u * lhat * p_a.
    assert out["ratio"] == pytest.approx(active_bs_probability(1.0), rel=0.05)


def test_homogenization_counts_the_simulated_network():
    # The active BSs counted are those of the network estimate_se simulates:
    # mmW with no LOS limit is the uW network of the same density, bit for
    # bit, and at R_L = 5 m a BS with no user within R_L stays inactive.
    def ratio(**kw):
        return validate_homogenization(cfg(replications=10, **kw))["ratio"]

    muw = ratio()
    assert ratio(tier="mmw", params=net(r_los=math.inf)) == muw
    assert ratio(tier="mmw", params=net(r_los=5.0)) < muw


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


def _full_window_network(placed_bss, config, rngs, los_radius):
    """The reference draw, replication by replication: every BS of the
    window by ``sample_ppp``, then the users, associated against the BSs
    placed there (``placed_bss``); the batch's networks laid end to end,
    indexed as ``AssociationMap`` says."""
    bs_points, user_points, user_to_bs, scheduled = [], [], [], []
    bs_starts, user_starts = [0], [0]
    for rng in rngs:
        bss = sample_ppp(config.bs_density, config.window, rng)
        users = sample_ppp(config.params.lambda_u, config.window, rng)
        if len(bss) and len(users):
            placed = placed_bss(bss, config.window)
            assoc = schedule_active(associate_strongest([users], placed, los_radius), [rng])
            bs_points.append(bss)
            user_points.append(users)
            user_to_bs.append(np.where(assoc.user_to_bs >= 0, assoc.user_to_bs + bs_starts[-1], -1))
            scheduled.append(np.where(assoc.scheduled_user >= 0, assoc.scheduled_user + user_starts[-1], -1))
            bs_starts.append(bs_starts[-1] + len(bss))
            user_starts.append(user_starts[-1] + len(users))
        else:
            bs_starts.append(bs_starts[-1])
            user_starts.append(user_starts[-1])
    assoc = AssociationMap(
        user_to_bs=np.concatenate([np.empty(0, dtype=np.int64), *user_to_bs]),
        n_bs=bs_starts[-1],
        scheduled_user=np.concatenate([np.empty(0, dtype=np.int64), *scheduled]),
        user_starts=np.array(user_starts),
        bs_starts=np.array(bs_starts),
    )
    bss = placed_bss(np.concatenate([np.empty((0, 2)), *bs_points]), config.window)
    return bss, np.concatenate([np.empty((0, 2)), *user_points]), assoc


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
def test_lazy_bs_draw_has_the_full_window_law(monkeypatch, placed_bss, tier, lhat, side, direction):
    # Typical-receiver SIR of the simulator (BSs drawn around the users)
    # against a reference that draws every BS in the window.  The KS test
    # takes one SIR per replication, its first fading draw: the draws of one
    # replication share its geometry, so only one per replication is i.i.d.
    def samples(kind):
        config = _acceptance_config(tier, direction, lhat, side, _LAW_REPS[tier], _LAW_SEEDS[kind])
        sirs = _sirs(config, sim._batches(config))
        return [sir for status, sir in sirs if status == "ok"]

    lazy = samples("lazy")
    monkeypatch.setattr(sim, "_scheduled_network", functools.partial(_full_window_network, placed_bss))
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
        bss, _, assoc = sim._scheduled_network(config, [np.random.default_rng([3, 0])], math.inf)
        expected = config.bs_density * config.window.area
        assert len(bss) < 20_000, (lhat, len(bss))
        assert abs(assoc.n_bs - expected) < 5 * math.sqrt(expected), (lhat, assoc.n_bs)
        assert assoc.scheduled_user.size == len(bss)
        assert _sirs(config, sim._batches(config))[0][0] == "ok"
