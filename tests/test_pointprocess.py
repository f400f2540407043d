import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from mmudn.errors import DomainError, ParameterError
from mmudn.pointprocess import (
    PointSet,
    Window,
    active_bs_probability,
    associate_strongest,
    estimate_cell_areas,
    sample_ppp,
    schedule_active,
    scheduled_user_density,
    voronoi_cell_moments,
    voronoi_cell_pdf,
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
# against ~8 users association takes its cell-pruned path, on a grid of
# 0.65 m cells.  "edge" puts users and BSs exactly at x == side and y == side,
# and a user just inside the corner next to the BS at (side, side);
# "holes" clears a disc of 0.3-1.2 m around each user, so nearest BSs sit
# near the certification distance of one cell side; "clustered" packs the BSs
# into one corner, so users far from it have no candidate near enough to
# certify and are re-queried against all BSs.
_ASSOC_CASES = [
    (0.05, math.inf, "uniform"),
    (20.0, math.inf, "uniform"),
    (20.0, 0.3, "uniform"),
    (20.0, 3.0, "uniform"),
    (20.0, math.inf, "edge"),
    (20.0, math.inf, "holes"),
    (20.0, 3.0, "holes"),
    (20.0, math.inf, "clustered"),
    (20.0, 4.0, "clustered"),
]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_association_invariant_nearest_among_candidates(seed):
    # Every case runs on every drawn seed, so each gets all 25 examples.
    for case in _ASSOC_CASES:
        _check_association(seed, *case)


def _check_association(seed, bs_density, los_radius, layout):
    side = 20.0
    rng = np.random.default_rng(seed)
    w = Window(side=side)
    users = sample_ppp(0.05 if bs_density < 1 else 0.02, w, rng).points
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
    assoc = associate_strongest(_point_set(users, w), _point_set(bss, w), los_radius)
    d_all = np.array([w.distance(u, bss) for u in users])
    expected = np.where(d_all.min(axis=1) < los_radius, np.argmin(d_all, axis=1), -1)
    np.testing.assert_array_equal(
        assoc.user_to_bs, expected, err_msg=f"{bs_density, los_radius, layout}"
    )


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


def test_scheduled_user_density_approaches_one():
    assert scheduled_user_density(100.0) == pytest.approx(0.9936, abs=2e-4)
    assert scheduled_user_density(1e6) == pytest.approx(1.0, abs=1e-5)


# --- Voronoi cell law -------------------------------------------------------


def test_voronoi_pdf_matches_gamma_law():
    x = np.linspace(1e-3, 5.0, 200)
    for lam in (0.5, 1.0, 3.0):
        expected = gamma_dist.pdf(x, a=4.5, scale=1.0 / (3.5 * lam))
        np.testing.assert_allclose(voronoi_cell_pdf(x, lam), expected, rtol=1e-10)


def test_voronoi_pdf_normalizes():
    val, _ = quad(lambda x: voronoi_cell_pdf(x, 1.0), 0, np.inf)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_voronoi_moments():
    mean, var = voronoi_cell_moments(2.0)
    assert mean == pytest.approx(4.5 / 7.0, rel=1e-12)
    assert var == pytest.approx(4.5 / 49.0, rel=1e-12)
    with pytest.raises(ParameterError):
        voronoi_cell_moments(0.0)


def test_estimate_cell_areas_partitions_window():
    rng = np.random.default_rng(5)
    w = Window(side=20.0)
    bss = sample_ppp(0.1, w, rng)
    areas = estimate_cell_areas(bss, 20000, rng)
    assert areas.shape == (len(bss),)
    assert areas.sum() == pytest.approx(w.area, rel=1e-12)
