import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmudn import pointprocess as pp
from mmudn.errors import DomainError, ParameterError
from mmudn.pointprocess import (
    LazyPPP,
    PointSet,
    Window,
    active_bs_probability,
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
    rng = np.random.default_rng(0)
    w = Window(side=10.0)
    a = rng.uniform(0, 10, size=2)
    b = rng.uniform(0, 10, size=(50, 2))
    got = w.distance(a, b)
    shifts = np.array([(i, j) for i in (-10, 0, 10) for j in (-10, 0, 10)])
    brute = np.min(
        np.linalg.norm(b[:, None, :] + shifts[None, :, :] - a, axis=-1), axis=1
    )
    np.testing.assert_allclose(got, brute, rtol=1e-12)


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
    d_ab = float(w.distance(a, b))
    d_ba = float(w.distance(b, a))
    assert d_ab == pytest.approx(d_ba, rel=1e-12)
    assert d_ab <= side / math.sqrt(2.0) + 1e-9


# --- PPP sampling -----------------------------------------------------------


def test_sample_ppp_count_and_support():
    rng = np.random.default_rng(1)
    w = Window(side=50.0)
    counts = [len(sample_ppp(0.1, w, rng)) for _ in range(200)]
    mean = np.mean(counts)
    # Poisson(250): 200-sample mean should sit within ~5 sigma/sqrt(200).
    assert abs(mean - 250.0) < 5 * math.sqrt(250.0 / 200)
    pts = sample_ppp(0.1, w, rng).points
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


def test_pointset_rejects_outside_points():
    with pytest.raises(ParameterError):
        PointSet(points=np.array([[11.0, 1.0]]), window=Window(10.0))


# --- Association ------------------------------------------------------------


def _point_set(points, window):
    return PointSet(points=np.asarray(points, float), window=window)


def test_associate_nearest_bs():
    w = Window(side=10.0)
    users = _point_set([[1.0, 1.0], [6.0, 6.0]], w)
    bss = _point_set([[0.0, 0.0], [7.0, 7.0]], w)
    assoc = associate_strongest(users, bss)
    assert assoc.user_to_bs.tolist() == [0, 1]


def test_associate_wraps_around_torus():
    w = Window(side=10.0)
    users = _point_set([[9.9, 5.0]], w)
    bss = _point_set([[0.2, 5.0], [5.0, 5.0]], w)
    assoc = associate_strongest(users, bss)
    assert assoc.user_to_bs.tolist() == [0]


def test_associate_los_radius_leaves_user_unassociated():
    w = Window(side=100.0)
    users = _point_set([[50.0, 50.0]], w)
    bss = _point_set([[0.0, 0.0]], w)
    assoc = associate_strongest(users, bss, los_radius=10.0)
    assert assoc.user_to_bs.tolist() == [-1]
    assert assoc.active_bs.size == 0


def test_associate_empty_bs_set_is_error():
    w = Window(side=10.0)
    users = _point_set([[1.0, 1.0]], w)
    empty = PointSet(points=np.empty((0, 2)), window=w)
    with pytest.raises(DomainError):
        associate_strongest(users, empty)


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
def test_association_invariant_nearest_among_candidates(seed):
    # Every case runs on every drawn seed, so each gets all 25 examples.
    for case in _ASSOC_CASES:
        _check_association(seed, *case)


def _brute_force(users, bss, w, los_radius):
    """Nearest BS of each user by the torus distance to every BS (the
    lowest index on a tie), or -1 when none is closer than ``los_radius``."""
    d_all = np.array([w.distance(u, bss) for u in users])
    return np.where(d_all.min(axis=1) < los_radius, np.argmin(d_all, axis=1), -1)


def _check_association(seed, bs_density, los_radius, layout):
    side = 20.0
    rng = np.random.default_rng(seed)
    w = Window(side=side)
    if layout == "dense":
        user_density = bs_density / pp._BS_PER_CELL
    else:
        user_density = 0.05 if bs_density < 1 else 0.02
    users = sample_ppp(user_density, w, rng).points
    bss = sample_ppp(bs_density, w, rng).points
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
        d = np.array([w.distance(u, bss) for u in users])
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
    assoc = associate_strongest(_point_set(users, w), _point_set(bss, w), los_radius)
    np.testing.assert_array_equal(
        assoc.user_to_bs,
        _brute_force(users, bss, w, los_radius),
        err_msg=f"{bs_density, los_radius, layout}",
    )


@pytest.mark.parametrize("los_radius", [0.25, 0.3])
def test_los_sized_cells_hold_every_bs_within_los_radius(monkeypatch, los_radius):
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
    assoc = associate_strongest(users, bss, los_radius)
    expected = _brute_force(users.points, bss.points, w, los_radius)
    assert np.any(expected < 0) and np.any(expected >= 0)
    np.testing.assert_array_equal(assoc.user_to_bs, expected)


# --- Scheduling -------------------------------------------------------------


def test_schedule_one_user_per_bs():
    rng = np.random.default_rng(3)
    w = Window(side=30.0)
    users = sample_ppp(0.5, w, rng)
    bss = sample_ppp(0.05, w, rng)
    assoc = schedule_active(associate_strongest(users, bss), rng)
    for b in range(assoc.n_bs):
        members = np.flatnonzero(assoc.user_to_bs == b)
        if members.size:
            assert assoc.scheduled_user[b] in members
        else:
            assert assoc.scheduled_user[b] == -1
    # Every scheduled user is distinct.
    picked = assoc.scheduled_user[assoc.scheduled_user >= 0]
    assert len(set(picked.tolist())) == picked.size


def test_schedule_uniform_pick():
    # Single BS with 4 users: each should be picked ~uniformly.
    w = Window(side=10.0)
    users = _point_set([[1, 1], [2, 2], [3, 3], [4, 4]], w)
    bss = _point_set([[5, 5]], w)
    assoc = associate_strongest(users, bss)
    rng = np.random.default_rng(4)
    counts = np.zeros(4)
    n = 4000
    for _ in range(n):
        counts[schedule_active(assoc, rng).scheduled_user[0]] += 1
    # 5-sigma binomial band around n/4.
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n / 4) < 5 * sigma)


# --- Active-BS statistics ---------------------------------------------------


def test_active_bs_probability_values():
    # Frozen against direct evaluation of 1 - [1 + (3.5 lhat)^-1]^-3.5.
    assert active_bs_probability(100.0) == pytest.approx(0.009936049464, rel=1e-9)
    assert active_bs_probability(1.0) == pytest.approx(0.5850513490, rel=1e-9)
    assert active_bs_probability(1e-6) == pytest.approx(1.0, abs=1e-4)


def test_active_bs_probability_limits_and_errors():
    assert active_bs_probability(1e12) < 1e-11
    with pytest.raises(ParameterError):
        active_bs_probability(0.0)


# --- Voronoi cell areas ------------------------------------------------------


def test_estimate_cell_areas_partitions_window(estimate_cell_areas):
    rng = np.random.default_rng(5)
    w = Window(side=20.0)
    bss = sample_ppp(0.1, w, rng)
    areas = estimate_cell_areas(bss, 20000, rng)
    assert areas.shape == (len(bss),)
    assert areas.sum() == pytest.approx(w.area, rel=1e-12)


# --- Lazily drawn BSs -------------------------------------------------------


def _lazy_association(monkeypatch, seed, bs_density, los_radius, per_cell):
    """Users, then BSs drawn lazily by association, in a 20 m window with
    about ``per_cell`` expected BSs per cell.  Returns (users, BS process,
    association, grid cells per side, the cells drawn, in draw order)."""
    monkeypatch.setattr(pp, "_BS_PER_CELL", per_cell)
    rng = np.random.default_rng(seed)
    w = Window(side=20.0)
    users = sample_ppp(0.05, w, rng)
    bss = LazyPPP(bs_density, w, rng)
    drawn, cells = [], bss._cells

    def record(keys, n):
        drawn.append((keys.copy(), n))
        return cells(keys, n)

    bss._cells = record
    assoc = associate_strongest(users, bss, los_radius)
    n = drawn[0][1] if drawn else 0
    return users, bss, assoc, n, [keys for keys, _ in drawn]


# (BS density, los_radius, expected BSs per cell).  At 20 BSs/m^2 4-BS cells
# are 0.45 m wide and 0.5-BS cells 0.16 m: R_L = inf; R_L = 0.1 m, shorter
# than either, so cells are sized by it; and R_L = 3 m, many cells long.  At
# 0.5 BS per cell a user has no BS within one cell side with probability
# exp(-pi / 2), about 0.2, so blocks grow by rings.  At 0.05 BSs/m^2 the
# window holds 20 expected BSs, too few for a 3x3 block: the grid has two
# cells per side, every cell is drawn as soon as a user needs one, and a
# block that wraps settles its users.  At 0.005 BSs/m^2 it holds 2, and the
# grid is one cell, often with no BS in it.
_LAZY_CASES = [
    (20.0, math.inf, 4),
    (20.0, math.inf, 0.5),
    (20.0, 0.1, 4),
    (20.0, 0.1, 0.5),
    (20.0, 3.0, 4),
    (20.0, 3.0, 0.5),
    (0.05, math.inf, 4),
    (0.005, math.inf, 4),
]


@pytest.mark.parametrize("bs_density,los_radius,per_cell", _LAZY_CASES)
def test_lazy_association_is_nearest_over_the_whole_window(
    monkeypatch, bs_density, los_radius, per_cell
):
    # The BSs of the cells left undrawn are drawn afterwards, from another
    # stream: no user may have one nearer than its association.
    grew = 0
    for seed in range(40):
        users, bss, assoc, n, drawn = _lazy_association(
            monkeypatch, seed, bs_density, los_radius, per_cell
        )
        w = bss.window
        points = bss.points
        if n:
            cells = np.concatenate(drawn)
            assert np.unique(cells).size == cells.size, "a cell was drawn twice"
            grew += len(drawn) > 1
            rest = sample_ppp(bs_density, w, np.random.default_rng([seed, 1])).points
            cx, cy = pp._cell_xy(rest, w.side, n)
            points = np.vstack([points, rest[~np.isin(cx * n + cy, cells)]])
        assert assoc.scheduled_user.size == len(bss) <= assoc.n_bs
        if len(users) and len(points):
            expected = _brute_force(users.points, points, w, los_radius)
            np.testing.assert_array_equal(assoc.user_to_bs, expected)
    if per_cell < 1 and los_radius > 0.2:
        assert grew, "no block grew by a ring"


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
    bss = LazyPPP(20.0, w, rng)
    associate_strongest(users, bss)
    with pytest.raises(DomainError):
        associate_strongest(users, bss)
