"""Shared test plumbing: collects acceptance-criterion result lines and
prints them in the terminal summary, where pytest's capture cannot hide
them for passing tests, pins the CPU count the simulator's pool sees, and
provides the torus distance and the 3.5 law of the active-BS probability
(fixtures ``torus_distance`` and ``active_bs_probability``), the
per-receiver SIR reference that the simulator tests and criterion 4
compare the simulator with (fixtures ``per_receiver_sir`` and
``power_mismatches``), the paper's printed maximal DL rates that criterion 7
and the worked-point tests compare the optimum with (fixture
``printed_r_d``), and the KD-tree Voronoi cell areas that criterion 11
checks against the cell-size law (fixtures ``kd_tree`` and
``estimate_cell_areas``)."""

import math
import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

from mmudn import simulator as sim
from mmudn.analytic_se import los_probability

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


def _torus_distance(window, src, dst):
    """Minimal-image distance(s) from ``src`` to ``dst`` on the window's torus."""
    d = window.displacement(src, dst)
    return np.sqrt(np.sum(d * d, axis=-1))


@pytest.fixture(scope="session")
def torus_distance():
    return _torus_distance


def _active_bs_probability(lambda_hat):
    """Probability that a BS has at least one associated user,
    1 - [1 + (3.5 lambda_hat)^-1]^-3.5 at BS-to-user density ratio
    lambda_hat."""
    return -math.expm1(-3.5 * math.log1p(1.0 / (3.5 * lambda_hat)))


@pytest.fixture
def active_bs_probability():
    return _active_bs_probability


def _per_receiver_sir(config, rep, power=1.0):
    """Reference for a replication of ``_batch_sir``: the geometry one
    receiver at a time, by the torus distance and an explicit mainlobe test,
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
        r0 = float(_torus_distance(window, tx_all[ridx], rx))
        if r0 <= 0 or (mmw and r0 > r_los):
            rows.append(np.zeros(n_draws))
            continue
        others = np.flatnonzero(np.arange(active.size) != ridx)
        tx_i = tx_all[others]
        d_i = _torus_distance(window, rx, tx_i)
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
    batches = sim._batches(config)
    records = [record for batch in batches for record in sim._batch_sir(config, batch)]
    for rep, (status, sir, _) in enumerate(records):
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


def _printed_r_d(result, spectrum, params, p_l=None):
    """The paper's printed maximal DL rate on the branch of ``result``, an
    ``optimal_allocation`` result at ``params`` and ``spectrum``, evaluated
    on its gammas: (printed, literal).

    C_L: (W_m g_m + W_mu g_mu) / (1 + zeta).
    C_H: W_m g_m (W_m.u g_m.u + W_mu g_mu) / (zeta W_m g_m + W_m.u g_m.u).
    D:   W_m.u g_m.u (W_mu g_mu + W_m.u g_m) / (W_m.u g_m.u + zeta W_m g_m),
    whose numerator carries the non-decoupled mmW UL SE g_m.  ``literal`` is
    the D expression read with the LOS distance in place of the LOS
    probability in g_m (g_m scaled by R_L / p_L); None off D or at p_L = 0.
    """
    g, z = result.gammas, spectrum.zeta
    wm_gm = spectrum.w_m * g.gamma_m
    wmu_gmu = spectrum.w_mu_band * g.gamma_mu
    wmul_gmu_ul = spectrum.w_m_ul * g.gamma_m_u
    if not result.region.in_d:
        if result.region.region == "C_L":
            return (wm_gm + wmu_gmu) / (1.0 + z), None
        return wm_gm * (wmul_gmu_ul + wmu_gmu) / (z * wm_gm + wmul_gmu_ul), None
    wmul_gm = spectrum.w_m_ul * g.gamma_m
    printed = wmul_gmu_ul * (wmu_gmu + wmul_gm) / (wmul_gmu_ul + z * wm_gm)
    pl = los_probability(params.lambda_m, params.r_los) if p_l is None else p_l
    if pl == 0:
        return printed, None
    wmul_gm_lit = wmul_gm * (params.r_los / pl)
    return printed, wmul_gmu_ul * (wmu_gmu + wmul_gm_lit) / (wmul_gmu_ul + z * wm_gm)


@pytest.fixture
def printed_r_d():
    return _printed_r_d


def _papr_outage(w, f_s, delta):
    """The paper's PAPR outage of an mmW UL band of width ``w`` at sampling
    rate ``f_s`` and PAPR threshold ``delta``."""
    return -math.expm1(-(w * math.exp(-delta) / f_s) * math.sqrt(math.pi * delta / 3))


def _mmw_ul_bandwidth(f_s, delta, epsilon):
    """The exact inverse of ``_papr_outage``: the widest band whose outage
    is ``epsilon``, the usable W_m,u."""
    return f_s * math.exp(delta) * math.sqrt(3.0 / (math.pi * delta)) * (-math.log1p(-epsilon))


@pytest.fixture
def papr_outage():
    return _papr_outage


@pytest.fixture
def mmw_ul_bandwidth():
    return _mmw_ul_bandwidth


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
