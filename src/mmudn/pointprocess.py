"""Spatial primitives: PPP sampling, strongest-power association, random
scheduling, active-BS statistics and the Voronoi cell-size law.

All stochastic routines take an explicit numpy Generator so that every
replication of an experiment can run on its own deterministic stream.

Association is exact but pruned.  At the densities of interest a window holds
up to hundreds of thousands of BSs against a few hundred users.
:func:`associate_strongest` therefore tiles the window into a grid of cells
holding about four BSs each (or, for a shorter LOS radius, cells just wider
than that radius), keeps only the BSs in the 3x3 block of cells around some
user's cell, and sorts them by cell.  Each user is then measured against the
BSs of its own block, all users at once in numpy.  Any BS outside a user's
block lies at least one cell side away, so a candidate found closer than
that (less a small floating-point margin) is the true nearest BS; a user
with no candidate that close (about 3.5e-6 of users) is measured against all
BSs.  No random draw is involved, so the result is the same as an unpruned
search, exact ties included (the lowest BS index wins).  The module loads
no scipy for any of this: only :func:`estimate_cell_areas` builds a KD-tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "Window",
    "PointSet",
    "AssociationMap",
    "sample_ppp",
    "associate_strongest",
    "schedule_active",
    "active_bs_probability",
    "scheduled_user_density",
    "estimate_cell_areas",
    "voronoi_cell_pdf",
    "voronoi_cell_moments",
]


@dataclass(frozen=True)
class Window:
    """Square observation window with the torus metric."""

    side: float

    def __post_init__(self):
        if not (self.side > 0 and math.isfinite(self.side)):
            raise ParameterError(f"window side must be positive, got {self.side}")

    @property
    def area(self) -> float:
        return self.side * self.side

    @classmethod
    def for_expected_points(cls, density: float, n_expected: float) -> "Window":
        """Window sized so a PPP of the given density holds ``n_expected`` points on average."""
        if density <= 0:
            raise ParameterError("density must be positive to size a window")
        return cls(side=math.sqrt(n_expected / density))

    def displacement(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Minimal-image displacement vector(s) from src to dst."""
        d = np.asarray(dst, dtype=float) - np.asarray(src, dtype=float)
        return d - self.side * np.round(d / self.side)

    def distance(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        d = self.displacement(src, dst)
        return np.sqrt(np.sum(d * d, axis=-1))


@dataclass(frozen=True)
class PointSet:
    points: np.ndarray  # (n, 2)
    window: Window

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "points", pts)
        if pts.size and not np.all(np.isfinite(pts)):
            raise ParameterError("point coordinates must be finite")
        if pts.size and (pts.min() < 0 or pts.max() > self.window.side):
            raise ParameterError("points must lie inside the window")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class AssociationMap:
    """User-to-BS association plus (after scheduling) one active user per BS.

    ``user_to_bs[u]`` is the serving BS index or -1 when no BS qualifies
    (mmW users with no BS inside the LOS radius).  ``scheduled_user[b]`` is
    -1 until :func:`schedule_active` fills it; BSs with no associated user
    stay at -1 and are marked inactive.
    """

    user_to_bs: np.ndarray
    n_bs: int
    scheduled_user: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.scheduled_user is None:
            self.scheduled_user = np.full(self.n_bs, -1, dtype=np.int64)

    @property
    def active_bs(self) -> np.ndarray:
        """Indices of BSs with a scheduled user (call schedule_active first)."""
        return np.flatnonzero(self.scheduled_user >= 0)


def sample_ppp(density: float, window: Window, rng: np.random.Generator) -> PointSet:
    """Homogeneous PPP restricted to the window: Poisson count, uniform locations."""
    if not (density >= 0):
        raise ParameterError(f"density must be nonnegative, got {density}")
    n = rng.poisson(density * window.area)
    pts = rng.uniform(0.0, window.side, size=(n, 2))
    return PointSet(points=pts, window=window)


# Expected BSs per cell of the association grid.  A user's nearest BS lies
# beyond one cell side with probability exp(-4 pi), about 3.5e-6.
_BS_PER_CELL = 4

# (user, BS) pairs per search block, and BSs per slice of the pass over all
# BSs: the scratch arrays stay under 1 MiB however many users and BSs a
# replication holds.  Blocks whose arrays outlived them raised the
# all-receiver benchmark's peak RSS by 1.1 MiB; freed, it matches the
# KD-tree search's.
_BLOCK_PAIRS = 1 << 14

# Row and column offsets of the nine cells of a 3x3 block.
_BLOCK_DX = np.repeat((-1, 0, 1), 3)
_BLOCK_DY = np.tile((-1, 0, 1), 3)


def _brute_nearest(
    bs_points: np.ndarray, user_points: np.ndarray, window: Window, bound: float
) -> np.ndarray:
    """Index of each user's nearest BS closer than ``bound``, or -1, found by
    measuring every BS; an exact tie goes to the lowest index."""
    out = np.full(len(user_points), -1, dtype=np.int64)
    step = max(1, _BLOCK_PAIRS // len(bs_points))
    for lo in range(0, len(user_points), step):
        u = user_points[lo : lo + step]
        dx = window.displacement(u[:, :1], bs_points[:, 0])
        dy = window.displacement(u[:, 1:], bs_points[:, 1])
        d2 = dx * dx + dy * dy
        best = np.argmin(d2, axis=1)
        hit = d2[np.arange(len(u)), best] < bound * bound
        out[lo : lo + len(u)][hit] = best[hit]
    return out


def _cell_xy(points: np.ndarray, side: float, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y index of the grid cell holding each point."""
    xy = (points * (n_cells / side)).astype(np.intp)
    np.minimum(xy, n_cells - 1, out=xy)
    return xy[:, 0], xy[:, 1]


def _block_slots(user_points: np.ndarray, side: float, n_cells: int):
    """Each user's 3x3 block of cells as nine (cell, image shift) slots:
    the cell's key, wrapped onto the grid, and the user's coordinates in the
    slot's frame, shifted by 0 or one window side, so that a BS in the cell
    less them is the displacement to the BS's image next to the user."""
    ux, uy = _cell_xy(user_points, side, n_cells)
    nx = ux[:, None] + _BLOCK_DX
    ny = uy[:, None] + _BLOCK_DY
    keys = nx % n_cells * n_cells + ny % n_cells
    frame_x = user_points[:, :1] - side * (nx // n_cells)
    frame_y = user_points[:, 1:] - side * (ny // n_cells)
    return keys, frame_x, frame_y


def _bs_by_cell(bs_points: np.ndarray, slot_keys: np.ndarray, side: float, n_cells: int):
    """Indices of the BSs in some slot's cell, sorted by cell, and the count
    of those BSs in every cell.  The pass over the BSs runs in slices:
    whole-array temporaries measured twice as slow."""
    block = np.zeros(n_cells * n_cells, dtype=bool)
    block[slot_keys] = True
    kept, kept_keys = [], []
    for lo in range(0, len(bs_points), _BLOCK_PAIRS):
        bx, by = _cell_xy(bs_points[lo : lo + _BLOCK_PAIRS], side, n_cells)
        keys = bx * n_cells + by
        inside = np.flatnonzero(block[keys])
        kept.append(inside + lo)
        kept_keys.append(keys[inside])
    kept_keys = np.concatenate(kept_keys)
    order = np.argsort(kept_keys)
    return np.concatenate(kept)[order], np.bincount(kept_keys, minlength=n_cells * n_cells)


def _nearest_in_blocks(
    user_points: np.ndarray, bs_points: np.ndarray, side: float, n_cells: int, limit: float
) -> np.ndarray:
    """Index of each user's nearest BS closer than ``limit`` among the BSs in
    the 3x3 block of cells around the user's cell, or -1; ``n_cells`` >= 3
    cells per side, so a block never wraps onto itself."""
    slot_keys, frame_x, frame_y = _block_slots(user_points, side, n_cells)
    kept, counts = _bs_by_cell(bs_points, slot_keys, side, n_cells)
    # Each cell's BSs are one run of the sorted BSs.
    starts = np.cumsum(counts) - counts
    sorted_x, sorted_y = bs_points[kept, 0], bs_points[kept, 1]
    slot_counts = counts[slot_keys]
    user_pairs = slot_counts.sum(axis=1)
    user_to_bs = np.full(len(user_points), -1, dtype=np.int64)

    def search(lo, hi):
        # Expand users lo..hi-1 into their (user, BS) pairs, user by user.
        per_user = user_pairs[lo:hi]
        has = np.flatnonzero(per_user)
        if not has.size:
            return
        cnt = slot_counts[lo:hi].ravel()
        pos = np.repeat(starts[slot_keys[lo:hi].ravel()] - (np.cumsum(cnt) - cnt), cnt)
        pos += np.arange(pos.size)
        # d2 = dx * dx + dy * dy, in place to keep the scratch small.
        d2 = sorted_x[pos]
        d2 -= np.repeat(frame_x[lo:hi].ravel(), cnt)
        d2 *= d2
        dy = sorted_y[pos]
        dy -= np.repeat(frame_y[lo:hi].ravel(), cnt)
        dy *= dy
        d2 += dy
        first = (np.cumsum(per_user) - per_user)[has]
        best = np.minimum.reduceat(d2, first)
        # The lowest BS index among a user's pairs at its minimum.
        at_best = d2 == np.repeat(best, per_user[has])
        nearest = np.minimum.reduceat(np.where(at_best, kept[pos], len(bs_points)), first)
        ok = best < limit * limit
        user_to_bs[lo + has[ok]] = nearest[ok]

    pair_ends = np.cumsum(user_pairs)
    lo = 0
    while lo < len(user_points):
        # The next users with at most _BLOCK_PAIRS pairs in all, or one user
        # with more.
        done = pair_ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(pair_ends, done + _BLOCK_PAIRS, side="right")))
        search(lo, hi)
        lo = hi
    return user_to_bs


def associate_strongest(
    users: PointSet, bss: PointSet, los_radius: float = math.inf
) -> AssociationMap:
    """Associate each user with its strongest-power BS.

    With equal per-tier transmit powers this is the nearest BS under the
    window metric; a finite ``los_radius`` restricts candidates to BSs
    within line of sight and leaves users with none unassociated.  An exact
    distance tie goes to the lowest BS index.  The search is pruned to BSs
    near the users (see the module docstring) and returns the same
    association as a search over all BSs.
    """
    if len(bss) == 0:
        raise DomainError("cannot associate against an empty BS set")
    if len(users) == 0:
        return AssociationMap(user_to_bs=np.full(0, -1, dtype=np.int64), n_bs=len(bss))
    window = bss.window
    side = window.side
    n_cells = math.isqrt(len(bss) // _BS_PER_CELL)
    if n_cells < 3:
        # A 3x3 block would wrap onto itself: every BS is a candidate.
        user_to_bs = _brute_nearest(bss.points, users.points, window, los_radius)
        return AssociationMap(user_to_bs=user_to_bs, n_bs=len(bss))
    # A BS outside a user's block is at least one cell side away; the margin
    # absorbs rounding in the cell assignment and in the distances.
    margin = 1e-9 * side
    if los_radius + 2 * margin < side / n_cells:
        # Cells wider than the LOS radius by a margin still hold every BS
        # within it in a user's block, and fewer other BSs.
        n_cells = min(int(side / (los_radius + 2 * margin)), math.isqrt(4 * len(bss)))
    reach = side / n_cells - margin
    user_to_bs = _nearest_in_blocks(
        users.points, bss.points, side, n_cells, min(los_radius, reach)
    )
    if los_radius > reach:
        # A user with no candidate inside ``reach`` may still have a farther
        # BS within the LOS radius: measure all BSs.
        open_users = np.flatnonzero(user_to_bs < 0)
        if open_users.size:
            user_to_bs[open_users] = _brute_nearest(
                bss.points, users.points[open_users], window, los_radius
            )
    return AssociationMap(user_to_bs=user_to_bs, n_bs=len(bss))


def schedule_active(assoc: AssociationMap, rng: np.random.Generator) -> AssociationMap:
    """Each BS with k >= 1 associated users schedules one uniformly at random."""
    scheduled = np.full(assoc.n_bs, -1, dtype=np.int64)
    associated = np.flatnonzero(assoc.user_to_bs >= 0)
    if associated.size:
        # Random permutation, then first occurrence per BS: uniform pick.
        perm = rng.permutation(associated)
        bs_of = assoc.user_to_bs[perm]
        uniq, first = np.unique(bs_of, return_index=True)
        scheduled[uniq] = perm[first]
    return AssociationMap(
        user_to_bs=assoc.user_to_bs, n_bs=assoc.n_bs, scheduled_user=scheduled
    )


def active_bs_probability(lambda_hat: float) -> float:
    """Probability that a BS has at least one associated user,
    ``1 - [1 + (3.5 lambda_hat)^-1]^-3.5`` for BS-to-user density ratio lambda_hat.
    """
    if lambda_hat <= 0:
        raise ParameterError(f"lambda_hat must be positive, got {lambda_hat}")
    return -math.expm1(-3.5 * math.log1p(1.0 / (3.5 * lambda_hat)))


def scheduled_user_density(lambda_hat: float) -> float:
    """Companion thinning probability p_s = p_a * lambda_hat for the uplink."""
    return active_bs_probability(lambda_hat) * lambda_hat


def _tree(points: np.ndarray, window: Window):
    # Imported here: only the Voronoi diagnostics need scipy, and the
    # simulator and its forked pool workers load none.
    from scipy.spatial import cKDTree

    # The unbalanced, non-compact build is faster to construct and finds the
    # same nearest neighbours.  The periodic tree rejects a coordinate equal
    # to the box side; on the torus that point is the one at 0.
    if points.size and points.max() >= window.side:
        points = np.where(points >= window.side, points - window.side, points)
    return cKDTree(points, boxsize=window.side, balanced_tree=False, compact_nodes=False)


def estimate_cell_areas(
    bss: PointSet, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Voronoi cell areas estimated by uniform sampling of nearest-BS
    ownership (no polygon construction): area_i = window area * hit share."""
    if len(bss) == 0:
        raise DomainError("cannot estimate cell areas of an empty BS set")
    if n_samples < 1:
        raise ParameterError("need at least one sample point")
    tree = _tree(bss.points, bss.window)
    pts = rng.uniform(0.0, bss.window.side, size=(n_samples, 2))
    _, owner = tree.query(pts, k=1)
    counts = np.bincount(owner, minlength=len(bss))
    return counts * (bss.window.area / n_samples)


_VOR_SHAPE = 4.5
_VOR_RATE = 3.5


def voronoi_cell_pdf(x, bs_density: float):
    """Cell-size density of a Poisson-Voronoi tessellation with BS density lambda:
    a Gamma law with shape 4.5 and rate 3.5*lambda,
    ``f(x) = 3.5^3.5 / Gamma(3.5) * lambda^4.5 * x^3.5 * exp(-3.5 lambda x)``.
    """
    if bs_density <= 0:
        raise ParameterError(f"bs_density must be positive, got {bs_density}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ParameterError("cell size must be nonnegative")
    coef = _VOR_RATE**_VOR_RATE / math.gamma(_VOR_RATE) * bs_density**_VOR_SHAPE
    out = coef * x**_VOR_RATE * np.exp(-_VOR_RATE * bs_density * x)
    return float(out) if out.ndim == 0 else out


def voronoi_cell_moments(bs_density: float) -> tuple[float, float]:
    """(mean, variance) of the Voronoi cell size: 4.5/(3.5 lambda), 4.5/(3.5 lambda)^2."""
    if bs_density <= 0:
        raise ParameterError(f"bs_density must be positive, got {bs_density}")
    rate = _VOR_RATE * bs_density
    return _VOR_SHAPE / rate, _VOR_SHAPE / rate**2
