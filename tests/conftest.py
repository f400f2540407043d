"""Shared test plumbing: collects acceptance-criterion result lines and
prints them in the terminal summary, where pytest's capture cannot hide
them for passing tests, pins the CPU count the simulator's pool sees, and
provides the per-receiver SIR reference that the simulator tests and
criterion 4 compare the simulator with (fixtures ``per_receiver_sir`` and
``power_mismatches``), and the KD-tree Voronoi cell areas that criterion 11
checks against the cell-size law (fixtures ``kd_tree`` and
``estimate_cell_areas``)."""

import math
import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

from mmudn import simulator as sim

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _two_cpus(monkeypatch):
    # The simulator's pool has min(workers, CPU count) workers.  With the
    # count pinned to 2, every workers=2 / threads=2 case forks two workers
    # on any host, and none forks more.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _per_receiver_sir(config, rep, power=1.0):
    """Reference for a replication of ``_batch_sir``: the geometry one
    receiver at a time, by ``Window.distance`` and an explicit mainlobe test,
    with the same draws, on the replication's network alone (a batch of one).
    Every transmitter sends at ``power``, in the signal and in each
    interferer's term.

    Returns (status, sir, rows); ``rows`` holds every receiver's SIR row, all
    zeros when its own link breaks the LOS indicator and None when no
    interferer reaches it.
    """
    rng = np.random.default_rng([config.master_seed, rep])
    window, alpha, n_draws = config.window, config.alpha, config.fading_draws
    mmw = config.tier == "mmw"
    r_los = config.params.r_los
    bss, user_points, assoc = sim._scheduled_network(config, [rng], r_los if mmw else math.inf)
    active = assoc.active_bs
    if active.size == 0:
        return "no_active", None, []
    bs_pos = bss.points[active]
    user_pos = user_points[assoc.scheduled_user[active]]
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
        rows.append(power * g0 * r0 ** (-alpha) / (g_i @ (power * d_i ** (-alpha))))
    kept = [row for row in rows if row is not None]
    if not kept:
        return "interference_free", None, rows
    return "ok", np.stack(kept) if config.average_all_receivers else kept[0], rows


# Per-tier, per-direction transmit powers (W) of the power reference.
POWERS = {("mmw", "dl"): 1.0, ("mmw", "ul"): 0.2, ("muw", "dl"): 40.0, ("muw", "ul"): 0.2}


def _power_mismatches(config, scale):
    """The replications whose simulator SIR differs from the reference that
    sends at the tier's and direction's power times ``scale`` by more than
    1e-12 relative, or whose status differs."""
    power = POWERS[config.tier, config.direction] * scale
    bad = []
    for rep, (status, sir) in enumerate(sim._reps_sir(config, range(config.replications))):
        ref_status, ref_sir, _ = _per_receiver_sir(config, rep, power)
        if status != ref_status or (ref_sir is None) != (sir is None):
            bad.append(rep)
        elif sir is not None and not np.allclose(sir, ref_sir, rtol=1e-12, atol=0.0):
            bad.append(rep)
    return bad


@pytest.fixture
def per_receiver_sir():
    return _per_receiver_sir


@pytest.fixture
def power_mismatches():
    return _power_mismatches


def _kd_tree(points, window):
    """Periodic KD-tree of ``points`` on the window's torus."""
    # The unbalanced, non-compact build is faster to construct and finds the
    # same nearest neighbours.  The periodic tree rejects a coordinate equal
    # to the box side; on the torus that point is the one at 0.
    if points.size and points.max() >= window.side:
        points = np.where(points >= window.side, points - window.side, points)
    return cKDTree(points, boxsize=window.side, balanced_tree=False, compact_nodes=False)


def _estimate_cell_areas(bss, n_samples, rng):
    """Voronoi cell areas estimated by uniform sampling of nearest-BS
    ownership (no polygon construction): area_i = window area * hit share."""
    tree = _kd_tree(bss.points, bss.window)
    pts = rng.uniform(0.0, bss.window.side, size=(n_samples, 2))
    _, owner = tree.query(pts, k=1)
    counts = np.bincount(owner, minlength=len(bss))
    return counts * (bss.window.area / n_samples)


@pytest.fixture
def kd_tree():
    return _kd_tree


@pytest.fixture
def estimate_cell_areas():
    return _estimate_cell_areas
