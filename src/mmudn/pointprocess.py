"""Spatial primitives: PPP sampling, strongest-power association, random
scheduling, active-BS statistics and the Voronoi cell-size law.

All stochastic routines take an explicit numpy Generator so that every
replication of an experiment can run on its own deterministic stream.

Association is exact but pruned.  At the densities of interest a window holds
up to hundreds of thousands of BSs against a few hundred users, and building a
KD-tree over every BS would dominate a replication.  :func:`associate_strongest`
therefore tiles the window into a grid of cells holding about eight BSs each
and builds its tree only over the BSs in the 3x3 block of cells around each
user's cell.  Any BS outside a user's block lies at least one cell side away,
so a candidate found closer than that (less a small floating-point margin) is
the true nearest BS; a user with no candidate that close is re-queried against
a tree over all BSs.  No random draw is involved, so the result is the same
as an unpruned search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Imported eagerly, unlike the scipy pieces of the analytic modules: the
# simulator's worker pools fork from the importing process (the Linux default),
# so a module-level import is paid once per process, where an import inside
# the association would be paid again by every worker of every pool (~0.5 s).
from scipy.spatial import cKDTree
from scipy.special import gamma as gamma_fn

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


def _tree(points: np.ndarray, window: Window) -> cKDTree:
    # The unbalanced, non-compact build is ~1.7x faster to construct and
    # finds the same nearest neighbours.  The periodic tree rejects a
    # coordinate equal to the box side; on the torus that point is the one
    # at 0.
    if points.size and points.max() >= window.side:
        points = np.where(points >= window.side, points - window.side, points)
    return cKDTree(points, boxsize=window.side, balanced_tree=False, compact_nodes=False)


def _nearest(
    bs_points: np.ndarray, user_points: np.ndarray, window: Window, bound: float
) -> np.ndarray:
    """Index of each user's nearest BS closer than ``bound``, or -1."""
    dist, idx = _tree(bs_points, window).query(
        user_points, k=1, distance_upper_bound=bound
    )
    return np.where(np.isfinite(dist), idx, -1).astype(np.int64)


# Expected BSs per cell of the association grid.
_BS_PER_CELL = 8


def _block_candidates(
    users: np.ndarray, bss: np.ndarray, window: Window
) -> tuple[np.ndarray, float]:
    """Indices of the BSs in the 3x3 cell blocks around the users, and the
    distance below which a user's nearest candidate is certified nearest
    among all BSs.
    """
    n_cells = math.isqrt(len(bss) // _BS_PER_CELL)
    if n_cells == 0:
        return np.arange(len(bss)), math.inf
    scale = n_cells / window.side

    def cells(points):
        return np.minimum((points * scale).astype(np.int64), n_cells - 1)

    ux, uy = cells(users).T
    block = np.zeros((n_cells, n_cells), dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            block[(ux + dx) % n_cells, (uy + dy) % n_cells] = True
    bx, by = cells(bss).T
    # A BS outside a user's block is at least one cell side away; the margin
    # absorbs rounding in the cell assignment and in the tree's distances.
    reach = window.side / n_cells - 1e-9 * window.side
    return np.flatnonzero(block[bx, by]), reach


def associate_strongest(
    users: PointSet, bss: PointSet, los_radius: float = math.inf
) -> AssociationMap:
    """Associate each user with its strongest-power BS.

    With equal per-tier transmit powers this is the nearest BS under the
    window metric; a finite ``los_radius`` restricts candidates to BSs
    within line of sight and leaves users with none unassociated.  The
    search is pruned to BSs near the users (see the module docstring) and
    returns the same association as a search over all BSs.
    """
    if len(bss) == 0:
        raise DomainError("cannot associate against an empty BS set")
    if len(users) == 0:
        return AssociationMap(user_to_bs=np.full(0, -1, dtype=np.int64), n_bs=len(bss))
    window = bss.window
    bound = los_radius if math.isfinite(los_radius) else np.inf
    candidates, reach = _block_candidates(users.points, bss.points, window)
    user_to_bs = _nearest(bss.points[candidates], users.points, window, min(bound, reach))
    hit = user_to_bs >= 0
    user_to_bs[hit] = candidates[user_to_bs[hit]]
    if bound > reach:
        # A user with no candidate inside ``reach`` may still have a farther
        # BS within ``bound``: ask all BSs.
        open_users = np.flatnonzero(user_to_bs < 0)
        if open_users.size:
            user_to_bs[open_users] = _nearest(
                bss.points, users.points[open_users], window, bound
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
    coef = _VOR_RATE**_VOR_RATE / gamma_fn(_VOR_RATE) * bs_density**_VOR_SHAPE
    out = coef * x**_VOR_RATE * np.exp(-_VOR_RATE * bs_density * x)
    return float(out) if out.ndim == 0 else out


def voronoi_cell_moments(bs_density: float) -> tuple[float, float]:
    """(mean, variance) of the Voronoi cell size: 4.5/(3.5 lambda), 4.5/(3.5 lambda)^2."""
    if bs_density <= 0:
        raise ParameterError(f"bs_density must be positive, got {bs_density}")
    rate = _VOR_RATE * bs_density
    return _VOR_SHAPE / rate, _VOR_SHAPE / rate**2
