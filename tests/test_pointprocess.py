import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmudn import pointprocess as pp
from mmudn.errors import DomainError, ParameterError
from mmudn.pointprocess import (
    LazyPPP,
    Window,
    associate_strongest,
    sample_ppp,
    schedule_active,
)


# --- Window -----------------------------------------------------------------


def test_window_validation():
    with pytest.raises(ParameterError):
        Window(side=0.0)
    with pytest.raises(ParameterError):
        Window(side=-3.0)
    with pytest.raises(ParameterError):
        Window(side=math.inf)


def test_window_for_expected_points():
    w = Window.for_expected_points(density=0.01, n_expected=1000)
    assert w.area * 0.01 == pytest.approx(1000)


def test_torus_distance_against_image_enumeration():
    # The displacement is the vector to the nearest of the nine images.
    rng = np.random.default_rng(0)
    w = Window(side=10.0)
    a = rng.uniform(0, 10, size=2)
    b = rng.uniform(0, 10, size=(50, 2))
    got = w.displacement(a, b)
    shifts = np.array([(i, j) for i in (-10, 0, 10) for j in (-10, 0, 10)])
    images = b[:, None, :] + shifts[None, :, :] - a
    nearest = np.argmin(np.linalg.norm(images, axis=-1), axis=1)
    np.testing.assert_allclose(got, images[np.arange(len(b)), nearest], rtol=1e-12, atol=1e-12)


@given(
    st.floats(0.1, 100.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_torus_distance_symmetric_and_bounded(side, ax, ay, bx, by):
    w = Window(side=side)
    a = np.array([ax * side, ay * side])
    b = np.array([bx * side, by * side])
    d_ab = w.displacement(a, b)
    d_ba = w.displacement(b, a)
    np.testing.assert_allclose(d_ab, -d_ba, rtol=1e-12, atol=1e-12 * side)
    assert np.all(np.abs(d_ab) <= side / 2 + 1e-9)


# --- PPP sampling -----------------------------------------------------------


def test_sample_ppp_count_and_support():
    rng = np.random.default_rng(1)
    w = Window(side=50.0)
    counts = [len(sample_ppp(0.1, w, rng)) for _ in range(200)]
    mean = np.mean(counts)
    # Poisson(250): 200-sample mean should sit within ~5 sigma/sqrt(200).
    assert abs(mean - 250.0) < 5 * math.sqrt(250.0 / 200)
    pts = sample_ppp(0.1, w, rng)
    assert pts.min() >= 0.0 and pts.max() <= 50.0


def test_sample_ppp_zero_density():
    rng = np.random.default_rng(2)
    assert len(sample_ppp(0.0, Window(10.0), rng)) == 0


def test_sample_ppp_negative_density():
    with pytest.raises(ParameterError):
        sample_ppp(-1.0, Window(10.0), np.random.default_rng(0))


def test_sample_ppp_nan_density():
    with pytest.raises(ParameterError):
        sample_ppp(math.nan, Window(10.0), np.random.default_rng(0))


# --- Association ------------------------------------------------------------


def test_associate_nearest_bs(placed_bss):
    w = Window(side=10.0)
    users = np.array([[1.0, 1.0], [6.0, 6.0]])
    assoc = associate_strongest([users], placed_bss([[0.0, 0.0], [7.0, 7.0]], w))
    assert assoc.user_to_bs.tolist() == [0, 1]


def test_associate_wraps_around_torus(placed_bss):
    w = Window(side=10.0)
    users = np.array([[9.9, 5.0]])
    assoc = associate_strongest([users], placed_bss([[0.2, 5.0], [5.0, 5.0]], w))
    assert assoc.user_to_bs.tolist() == [0]


def test_associate_los_radius_leaves_user_unassociated(placed_bss):
    w = Window(side=100.0)
    users = np.array([[50.0, 50.0]])
    assoc = associate_strongest([users], placed_bss([[0.0, 0.0]], w), los_radius=10.0)
    assert assoc.user_to_bs.tolist() == [-1]
    assert assoc.active_bs.size == 0


def test_associate_zero_bs_density_leaves_every_user_unassociated():
    # A BS density of 0 (lambda_mu_per_m2 = 0 on the CLI) draws no BS.
    w = Window(side=20.0)
    rng = np.random.default_rng(6)
    users = sample_ppp(0.05, w, rng)
    assoc = schedule_active(associate_strongest([users], LazyPPP(0.0, w, [rng])), [rng])
    assert len(users) and assoc.user_to_bs.tolist() == [-1] * len(users)
    assert assoc.n_bs == 0
    assert assoc.active_bs.size == 0


# (BS density, los_radius, layout) in a 20 m window.  At 20 BSs/m^2
# against ~8 users association searches a grid of 0.45 m cells.  "edge" puts
# users and BSs exactly at x == side and y == side, and a user just inside
# the corner next to the BS at (side, side); "holes" clears a disc of
# 0.3-1.2 m around each user, so nearest BSs sit near the certification
# distance of one cell side, and a LOS radius of 0.6 m lies between that
# distance and many users' nearest BS; "clustered" packs the BSs into one
# corner, so users far from it have no candidate near enough to certify:
# their blocks grow ring by ring, and with R_L = inf until they wrap the
# grid: a block that wraps settles its users; "dense" draws users as
# densely as the cells (2 BSs/m^2: 196 cells against ~200 users), so their
# blocks cover the grid.
# LOS radii of 0.3, 0.25 and 0.05 m are shorter than the 0.45 m cell side,
# so cells are sized by the LOS radius instead (0.25 m divides the window
# exactly; 0.05 m hits the cap on the cell count).  At 0.05 and 0.08
# BSs/m^2 a window holds fewer than 36 BSs (mostly), so the 3x3 block wraps
# the grid of one or two cells per side.  At 0.01 BSs/m^2 (4 BSs) the grid
# is one cell, and all nine slots of a block are that cell at nine images.
# "ties" puts the BSs on a 0.5 m lattice in shuffled index order and the
# users midway between two or four of them, across the window edge too:
# exact distance ties on dyadic coordinates.
_ASSOC_CASES = [
    (0.05, math.inf, "uniform"),
    (0.08, math.inf, "edge"),
    (0.08, 4.0, "uniform"),
    (0.01, math.inf, "edge"),
    (0.01, 4.0, "uniform"),
    (20.0, math.inf, "uniform"),
    (20.0, 0.05, "uniform"),
    (20.0, 0.25, "uniform"),
    (20.0, 0.3, "uniform"),
    (20.0, 3.0, "uniform"),
    (20.0, math.inf, "edge"),
    (20.0, math.inf, "holes"),
    (20.0, 0.6, "holes"),
    (20.0, 3.0, "holes"),
    (20.0, math.inf, "clustered"),
    (20.0, 4.0, "clustered"),
    (2.0, math.inf, "dense"),
    (2.0, 0.5, "dense"),
    (4.0, math.inf, "ties"),
    (4.0, 0.3, "ties"),
]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_association_invariant_nearest_among_candidates(torus_distance, placed_bss, seed):
    # Every case runs on every drawn seed, so each gets all 25 examples.
    for case in _ASSOC_CASES:
        _check_association(torus_distance, placed_bss, seed, *case)


def _brute_force(distance, users, bss, w, los_radius):
    """Nearest BS of each user by the torus ``distance`` to every BS (the
    lowest index on a tie), or -1 when none is closer than ``los_radius``."""
    d_all = np.array([distance(w, u, bss) for u in users])
    return np.where(d_all.min(axis=1) < los_radius, np.argmin(d_all, axis=1), -1)


def _check_association(distance, placed_bss, seed, bs_density, los_radius, layout):
    side = 20.0
    rng = np.random.default_rng(seed)
    w = Window(side=side)
    if layout == "dense":
        user_density = bs_density / pp._BS_PER_CELL
    else:
        user_density = 0.05 if bs_density < 1 else 0.02
    users = sample_ppp(user_density, w, rng)
    bss = sample_ppp(bs_density, w, rng)
    if len(users) == 0 or len(bss) < 2:
        return
    if layout == "edge":
        users[0, 0] = side
        users[-1, 1] = side
        y = users[0, 1] + 0.01 if users[0, 1] < side / 2 else users[0, 1] - 0.01
        bss[0] = [side, y]
        bss[1] = [side, side]
        # A user just inside the corner whose nearest BS sits on it.
        users = np.vstack([users, [side - 0.005, side - 0.005]])
    elif layout == "holes":
        radius = rng.uniform(0.3, 1.2, size=len(users))
        d = np.array([distance(w, u, bss) for u in users])
        bss = bss[np.all(d > radius[:, None], axis=0)]
    elif layout == "clustered":
        bss = bss / 4.0
    elif layout == "ties":
        grid = np.arange(0.0, side, 0.5)
        bss = rng.permutation(np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2))
        offsets = np.array([[0.25, 0.25], [0.25, 0.0], [0.0, 0.25]])
        users = grid[rng.integers(0, grid.size, size=(30, 2))]
        users += offsets[rng.integers(0, 3, size=30)]
        users = np.vstack([users, [side - 0.25, side - 0.25], [side - 0.25, 0.0]])
    placed = placed_bss(bss, w)
    assoc = associate_strongest([users], placed, los_radius)
    case = f"{bs_density, los_radius, layout}"
    # The grid the point count sizes, as for BSs drawn at that density.
    assert placed.grid == max(1, pp._cells_per_side(len(bss), side, los_radius)), case
    np.testing.assert_array_equal(assoc.user_to_bs, _brute_force(distance, users, bss, w, los_radius), err_msg=case)


@pytest.mark.parametrize("los_radius", [0.25, 0.3])
def test_los_sized_cells_hold_every_bs_within_los_radius(monkeypatch, torus_distance, placed_bss, los_radius):
    # Both radii are shorter than the 0.45 m side of 4-BS cells at 20 BSs/m^2.
    # Cells just wider than the radius put every BS within it in a user's
    # 3x3 block, so no block grows.  0.25 m divides the 20 m window: cells
    # without the margin would be exactly that wide, and every user with no
    # BS in reach would be searched again over a grown block.
    w = Window(side=20.0)
    rng = np.random.default_rng(17)
    users = sample_ppp(0.5, w, rng)
    bss = sample_ppp(20.0, w, rng)
    search = pp._search

    def refuse_rings(index, user_points, base, radius):
        if radius > 1:
            raise AssertionError("a user's block grew by a ring")
        return search(index, user_points, base, radius)

    monkeypatch.setattr(pp, "_search", refuse_rings)
    assoc = associate_strongest([users], placed_bss(bss, w), los_radius)
    expected = _brute_force(torus_distance, users, bss, w, los_radius)
    assert np.any(expected < 0) and np.any(expected >= 0)
    np.testing.assert_array_equal(assoc.user_to_bs, expected)


# --- Scheduling -------------------------------------------------------------


def test_schedule_one_user_per_bs():
    rng = np.random.default_rng(3)
    w = Window(side=30.0)
    users = sample_ppp(0.5, w, rng)
    bss = LazyPPP(0.05, w, [rng])
    assoc = schedule_active(associate_strongest([users], bss), [rng])
    # One entry per drawn BS; the undrawn ones serve no user.
    assert assoc.scheduled_user.size == len(bss) <= assoc.n_bs
    for b in range(len(bss)):
        members = np.flatnonzero(assoc.user_to_bs == b)
        if members.size:
            assert assoc.scheduled_user[b] in members
        else:
            assert assoc.scheduled_user[b] == -1
    # Every scheduled user is distinct.
    picked = assoc.scheduled_user[assoc.scheduled_user >= 0]
    assert len(set(picked.tolist())) == picked.size


def test_schedule_uniform_pick(placed_bss):
    # Single BS with 4 users: each should be picked ~uniformly.
    w = Window(side=10.0)
    users = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    assoc = associate_strongest([users], placed_bss([[5.0, 5.0]], w))
    rng = np.random.default_rng(4)
    counts = np.zeros(4)
    n = 4000
    for _ in range(n):
        counts[schedule_active(assoc, [rng]).scheduled_user[0]] += 1
    # 5-sigma binomial band around n/4.
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n / 4) < 5 * sigma)


# --- Active-BS statistics ---------------------------------------------------


def test_active_bs_probability_values(active_bs_probability):
    # Frozen against direct evaluation of 1 - [1 + (3.5 lhat)^-1]^-3.5.
    assert active_bs_probability(100.0) == pytest.approx(0.009936049464, rel=1e-9)
    assert active_bs_probability(1.0) == pytest.approx(0.5850513490, rel=1e-9)
    assert active_bs_probability(1e-6) == pytest.approx(1.0, abs=1e-4)
    assert active_bs_probability(1e12) < 1e-11


# --- Voronoi cell areas ------------------------------------------------------


def test_estimate_cell_areas_partitions_window(estimate_cell_areas):
    rng = np.random.default_rng(5)
    w = Window(side=20.0)
    bss = sample_ppp(0.1, w, rng)
    areas = estimate_cell_areas(bss, w, 20000, rng)
    assert areas.shape == (len(bss),)
    assert areas.sum() == pytest.approx(w.area, rel=1e-12)


# --- Lazily drawn BSs -------------------------------------------------------


class _DyadicDraws:
    """A BS process's generator whose uniform draws are rounded down to
    multiples of 1/64: on cells 0.5 m wide every BS coordinate is then a
    multiple of 1/128 m, and a point midway between two BSs is exactly as
    far from each."""

    def __init__(self, rng):
        self.rng = rng

    def poisson(self, lam):
        return self.rng.poisson(lam)

    def integers(self, low, high, size):
        return self.rng.integers(low, high, size=size)

    def random(self, size):
        return np.floor(self.rng.random(size) * 64) / 64


def _lazy_association(monkeypatch, seed, bs_density, los_radius, per_cell, processes=1, probe=None):
    """Users, then BSs drawn lazily by association, in a 20 m window with
    about ``per_cell`` expected BSs per cell.  A batch of several
    ``processes`` draws each process's users and BSs on streams of their
    own, the BSs with :class:`_DyadicDraws`, and gives process 1 one more
    user at ``probe``.  Returns (the user sets, BS process, association,
    grid cells per side, the cells drawn, in draw order)."""
    monkeypatch.setattr(pp, "_BS_PER_CELL", per_cell)
    w = Window(side=20.0)
    if processes == 1:
        rng = np.random.default_rng(seed)
        users = [sample_ppp(0.05, w, rng)]
        bss = LazyPPP(bs_density, w, [rng])
    else:
        users = [sample_ppp(0.05, w, np.random.default_rng([seed, k, 1])) for k in range(processes)]
        users[1] = np.vstack([users[1], probe])
        bss = LazyPPP(bs_density, w, [_DyadicDraws(np.random.default_rng([seed, k])) for k in range(processes)])
    drawn, cells = [], bss._cells

    def record(keys, n):
        drawn.append((keys.copy(), n))
        return cells(keys, n)

    bss._cells = record
    assoc = associate_strongest(users, bss, los_radius)
    n = drawn[0][1] if drawn else 0
    return users, bss, assoc, n, [keys for keys, _ in drawn]


def _check_lazy(distance, seed, bs_density, los_radius, users, bss, assoc, n, drawn):
    """Each process's association against the nearest of its drawn BSs and
    of the BSs of the cells it left undrawn, drawn afterwards from another
    stream: no user may have one nearer than its association."""
    w = bss.window
    cells = np.concatenate(drawn) if n else np.empty(0, dtype=np.int64)
    assert np.unique(cells).size == cells.size, "a cell was drawn twice"
    assert assoc.scheduled_user.size == len(bss) <= assoc.n_bs
    for k, user_set in enumerate(users):
        first, end = assoc.bs_starts[k], assoc.bs_starts[k + 1]
        points = bss.points[first:end]
        if n:
            mine = cells[(cells >= k * n * n) & (cells < (k + 1) * n * n)] - k * n * n
            stream = [seed, 1] if len(users) == 1 else [seed, 1, k]
            rest = sample_ppp(bs_density, w, np.random.default_rng(stream))
            cx, cy = pp._cell_xy(rest, w.side, n)
            points = np.vstack([points, rest[~np.isin(cx * n + cy, mine)]])
        if len(user_set) and len(points):
            got = assoc.user_to_bs[assoc.user_starts[k] : assoc.user_starts[k + 1]]
            expected = _brute_force(distance, user_set, points, w, los_radius)
            np.testing.assert_array_equal(np.where(got >= 0, got - first, -1), expected)


# The probe user of a batch: in the top row of cells of a 40 x 40 grid, so
# that its block wraps to the bottom row.
_PROBE = (10.25, 19.75)


def _wrap_tie(distance, points, window, los_radius):
    """A point in the probe's cell midway between a BS of the bottom row of
    cells and one of the top rows, across the y wrap, within ``los_radius``
    of both and nearer to them than to any other BS; None if none is."""
    side = window.side
    for b1 in points[points[:, 1] < 0.5]:
        for b2 in points[points[:, 1] >= side - 1.5]:
            m = (b1 + b2 + [0.0, side]) / 2
            if not (10.0 <= m[0] < 10.5 and side - 0.5 <= m[1] < side):
                continue
            d = distance(window, m, points)
            tie = distance(window, m, b1[None])[0]
            if tie < los_radius and np.count_nonzero(d <= tie) == 2 and np.count_nonzero(d == tie) == 2:
                return m
    return None


# (BS density, los_radius, expected BSs per cell, processes).  At 20 BSs/m^2
# 4-BS cells are 0.45 m wide and 0.5-BS cells 0.16 m: R_L = inf; R_L =
# 0.1 m, shorter than either, so cells are sized by it; and R_L = 3 m, many
# cells long.  At 0.5 BS per cell a user has no BS within one cell side with
# probability exp(-pi / 2), about 0.2, so blocks grow by rings.  At 0.05
# BSs/m^2 the window holds 20 expected BSs, too few for a 3x3 block: the
# grid has two cells per side, every cell is drawn as soon as a user needs
# one, and a block that wraps settles its users.  At 0.005 BSs/m^2 it holds
# 2, and the grid is one cell, often with no BS in it.  The batch of three
# is the regime of the sparse mmW estimates: R_L = 0.49 m sizes the cells
# (40 of 0.5 m per side), with 0.5 BS and 0.0125 users per cell, so most
# cells of a block are empty.  Its probe's block wraps the grid's columns,
# and a second run moves the probe, in its cell (the same cells are drawn),
# to a point tied exactly between a BS across the wrap and one inside.
_LAZY_CASES = [
    (20.0, math.inf, 4, 1),
    (20.0, math.inf, 0.5, 1),
    (20.0, 0.1, 4, 1),
    (20.0, 0.1, 0.5, 1),
    (20.0, 3.0, 4, 1),
    (20.0, 3.0, 0.5, 1),
    (0.05, math.inf, 4, 1),
    (0.005, math.inf, 4, 1),
    (2.0, 0.49, 4, 3),
]


@pytest.mark.parametrize(
    "bs_density,los_radius,per_cell,processes",
    _LAZY_CASES,
    ids=["-".join(map(str, case[:3])) + (f"-batch{case[3]}" if case[3] > 1 else "") for case in _LAZY_CASES],
)
def test_lazy_association_is_nearest_over_the_whole_window(
    monkeypatch, torus_distance, bs_density, los_radius, per_cell, processes
):
    grew = ties = 0
    for seed in range(40):
        run = _lazy_association(monkeypatch, seed, bs_density, los_radius, per_cell, processes, _PROBE)
        _check_lazy(torus_distance, seed, bs_density, los_radius, *run)
        grew += len(run[4]) > 1
        if processes == 1:
            continue
        users, bss, assoc = run[:3]
        assert run[3] == 40 and not grew, "cells not sized by the LOS radius"
        window, own = bss.window, bss.points[assoc.bs_starts[1] : assoc.bs_starts[2]]
        tie = _wrap_tie(torus_distance, own, window, los_radius)
        if tie is None:
            continue
        ties += 1
        run = _lazy_association(monkeypatch, seed, bs_density, los_radius, per_cell, processes, tie)
        np.testing.assert_array_equal(run[1].points, bss.points)
        _check_lazy(torus_distance, seed, bs_density, los_radius, *run)
    if per_cell < 1 and los_radius > 0.2:
        assert grew, "no block grew by a ring"
    if processes > 1:
        assert ties, "no exact tie across the wrap"


@pytest.mark.parametrize("los_radius,per_cell", [(math.inf, 4), (math.inf, 0.5), (0.1, 0.5)])
def test_lazy_window_count_is_poisson(monkeypatch, los_radius, per_cell):
    # The drawn BSs plus the count of those left undrawn: Poisson(lambda A)
    # in mean and in variance, within 4 standard errors.
    reps, mean_count = 2000, 400.0
    counts = np.array([
        _lazy_association(monkeypatch, [7, rep], 1.0, los_radius, per_cell)[2].n_bs
        for rep in range(reps)
    ])
    assert abs(counts.mean() - mean_count) < 4 * math.sqrt(mean_count / reps)
    # Var of the sample variance of Poisson(m): about (m + 2 m^2) / reps.
    var_se = math.sqrt((mean_count + 2 * mean_count**2) / reps)
    assert abs(counts.var(ddof=1) - mean_count) < 4 * var_se


def test_lazy_process_is_associated_once():
    w = Window(side=20.0)
    rng = np.random.default_rng(0)
    users = sample_ppp(0.05, w, rng)
    bss = LazyPPP(20.0, w, [rng])
    associate_strongest([users], bss)
    with pytest.raises(DomainError):
        associate_strongest([users], bss)
