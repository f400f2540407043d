"""Spatial primitives: the torus window, PPP sampling, strongest-power
association and random scheduling.

All stochastic routines take an explicit numpy Generator so that every
replication of an experiment can run on its own deterministic stream.

Association is exact but pruned.  At the densities of interest a window holds
up to millions of BSs against a few hundred users, and only a BS that serves
a user ever transmits.  :func:`associate_strongest` tiles the window into a
grid of cells holding about four BSs each (or, for a shorter LOS radius,
cells just wider than that radius) and measures each user against the BSs of
the 3x3 block of cells around its own, all users at once in numpy.  Any BS
outside a user's block lies at least one cell side away, so a candidate
found closer than that (less a small floating-point margin) is the true
nearest BS.  A user with no candidate that close (about 3.5e-6 of users) is
measured against its block grown ring by ring, each ring certifying one more
cell side, until it is settled; a block that wraps the grid settles its
users, as it holds the minimum image of every BS.  Exact ties go to the
lowest BS index, as in a search over all BSs.

The search costs what the block's BSs and (user, BS) pairs cost, not what
its cells do.  The cell index keeps its BSs in key order, so a row of a
block, consecutive keys x n + y, is one run of index entries found by a
lookup at each end, however many of its cells are empty: nine cells become
three runs.  At the LOS-sized cells of a sparse mmW tier most cells of a
block are empty (78 % at 0.25 BS per cell).  A block whose columns wrap the
grid (about 2/n of users) is searched as the user's own columns and the
wrapped ones apart, each in its own frame, and the nearer kept.  The same
walk gives the simulator its mmW interference candidates
(:func:`_block_candidates`): a receiver's block on a grid of cells wider
than the LOS radius, read as the row runs of the transmitters sorted by
cell key.

The users are an array of points drawn by :func:`sample_ppp`; the BSs are
a :class:`LazyPPP`, which association draws cell by cell: only the cells it
visits, then one Poisson count for the rest of the window.  The simulator
draws its users first and its BSs lazily, so a replication costs about the
same at any BS density.

Association and scheduling also run on a batch: a :class:`LazyPPP` of K
processes, one generator each, and a user set per process.  Process k's grid
cells are keyed k n^2 + x n + y, so one cell index, one block search and one
ring growth serve the whole batch while no user meets another process's BSs;
each process draws its cells on its own generator, in the order it would
alone, and keeps its BSs in draw order, so every association, schedule and
random stream is the one the process gets in a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "Window",
    "LazyPPP",
    "AssociationMap",
    "sample_ppp",
    "associate_strongest",
    "schedule_active",
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


class LazyPPP:
    """Independent homogeneous PPPs on the window, one per generator of
    ``rngs``, drawn only where :func:`associate_strongest` looks for BSs.

    Nothing is drawn at construction.  Association draws, from each
    process's own generator, the cells its users' blocks cover, all in one
    Poisson count spread over them (cells of equal area), then any cells its
    ring growth adds, and last the count of BSs in the cells left undrawn
    (``AssociationMap.n_bs``).  A block that wraps the grid, as a 3x3 block
    does on a grid of fewer than three cells per side, covers every cell of
    its process and settles its users.  PPP counts on disjoint regions are
    independent, so the drawn cells have the law of the same cells of a PPP
    drawn over the whole window, and a BS left undrawn serves no user, so it
    is inactive.  ``points`` and ``len()`` are the BSs drawn so far in all
    processes, in runs of one process each; association leaves them grouped
    by process, in draw order within each.
    """

    def __init__(self, density: float, window: Window, rngs):
        if not (density >= 0):
            raise ParameterError(f"density must be nonnegative, got {density}")
        self.density, self.window = density, window
        self.rngs = list(rngs)
        self.points = np.empty((0, 2))
        # (process, first index, end index) of each run of drawn BSs.
        self._runs: list[tuple[int, int, int]] = []
        self._associated = False

    def __len__(self) -> int:
        return self.points.shape[0]

    def _cells(self, keys: np.ndarray, n: int):
        """Draw the given cells (ascending keys, none drawn before) of the
        processes' n x n grids, cell (x, y) of process k keyed k n^2 + x n + y:
        for each process, one Poisson count over its cells' area, spread over
        them uniformly, then uniform x and y offsets inside each cell.
        Returns (x, y, their indices, count per cell).  The j-th point drawn
        goes to the j-th of the picked cells in key order, so the points
        come out sorted by cell.  The cells are repeated once, by their
        counts, and each point's row and column taken from its key: at under
        one BS per cell, work per cell is most of a draw's cost."""
        side = self.window.side
        h = side / n
        grid = n * n
        # Process k's cells are keys[bounds[k]:bounds[k + 1]], at local keys
        # x n + y.
        bounds = np.searchsorted(keys, np.arange(len(self.rngs) + 1) * grid).tolist()
        # Integer division by a scalar is fast; the remainder is not.
        local = keys - keys // grid * grid
        picks, draws = [], []
        start = len(self)
        for k, (rng, lo, hi) in enumerate(zip(self.rngs, bounds, bounds[1:])):
            if lo == hi:
                continue
            count = rng.poisson(self.density * (hi - lo) * h * h)
            picks.append(rng.integers(lo, hi, size=count))
            draws.append(rng.random((2, count)))
            self._runs.append((k, start, start + count))
            start += count
        picks, xy = np.concatenate(picks), np.concatenate(draws, axis=1)
        counts = np.bincount(picks, minlength=keys.size)
        cell = np.repeat(local, counts)
        cell_x = cell // n
        x, y = xy
        x += cell_x
        cell -= cell_x * n
        y += cell
        xy *= h
        np.minimum(xy, side, out=xy)
        ids = np.arange(len(self), start)
        self.points = np.concatenate((self.points, xy.T)) if len(self) else xy.T
        return x, y, ids, counts

    def _group(self):
        """Group the drawn BSs by process, each process's in draw order:
        (the new index of each BS, or None when none moves; each process's
        first index, then the count)."""
        runs = sorted(self._runs, key=lambda run: run[0])
        sizes = np.zeros(len(self.rngs) + 1, dtype=np.int64)
        for k, a, b in runs:
            sizes[k + 1] += b - a
        starts = np.cumsum(sizes)
        if runs == self._runs:
            return None, starts
        order = np.concatenate([np.arange(a, b) for _, a, b in runs])
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.points = self.points[order]
        self._runs = [(k, int(starts[k]), int(starts[k + 1])) for k in range(len(self.rngs))]
        return rank, starts


@dataclass
class AssociationMap:
    """User-to-BS association plus (after scheduling) one active user per BS,
    for one replication or a batch of them.

    A batch indexes its users and BSs replication by replication:
    replication k holds users ``user_starts[k]`` to ``user_starts[k + 1] - 1``
    and BSs ``bs_starts[k]`` to ``bs_starts[k + 1] - 1``.  ``user_to_bs[u]``
    is the serving BS index or -1 when no BS qualifies (mmW users with no BS
    inside the LOS radius).  ``n_bs`` is the BS count of the batch's windows.
    ``scheduled_user`` has one entry per drawn BS (the others serve no
    user).  ``scheduled_user[b]`` is -1 until :func:`schedule_active` fills
    it; BSs with no associated user stay at -1 and are marked inactive.
    """

    user_to_bs: np.ndarray
    n_bs: int
    scheduled_user: np.ndarray
    user_starts: np.ndarray
    bs_starts: np.ndarray

    @property
    def active_bs(self) -> np.ndarray:
        """Indices of BSs with a scheduled user (call schedule_active first),
        ascending, so grouped by replication."""
        return np.flatnonzero(self.scheduled_user >= 0)


def sample_ppp(density: float, window: Window, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP restricted to the window: Poisson count, uniform
    locations, as an (n, 2) array."""
    if not (density >= 0):
        raise ParameterError(f"density must be nonnegative, got {density}")
    n = rng.poisson(density * window.area)
    return rng.uniform(0.0, window.side, size=(n, 2))


# Expected BSs per cell of the association grid.  A user's nearest BS lies
# beyond one cell side with probability exp(-4 pi), about 3.5e-6.
_BS_PER_CELL = 4

# Pairs per block, for the (user, BS) pairs of an association search and
# the simulator's (receiver, transmitter) pairs.  A block holds a handful of
# flat float and index arrays, 128 KiB each at 2^14 pairs, so its scratch
# stays under 1 MiB however many users and BSs a replication holds.  Search
# blocks whose arrays outlived them raised the all-receiver benchmark's peak
# RSS by 1.1 MiB.  2^16 pairs at a time raised it by 4.5 MiB (5 %) and ran
# no faster (measured on an earlier receiver-by-transmitter grid layout,
# whose scratch per pair was smaller).
_BLOCK_PAIRS = 1 << 14


def _pair_blocks(pair_counts: np.ndarray):
    """Ranges (lo, hi) that cut items with ``pair_counts`` pairs each into
    blocks: the next items with at most ``_BLOCK_PAIRS`` pairs in all, or one
    item with more."""
    pair_ends = np.cumsum(pair_counts)
    lo = 0
    while lo < pair_ends.size:
        done = pair_ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(pair_ends, done + _BLOCK_PAIRS, side="right")))
        yield lo, hi
        lo = hi


def _ragged_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``starts[i]`` to ``starts[i] + counts[i] - 1``, for each i
    in turn, in one flat array."""
    pos = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    pos += np.arange(pos.size)
    return pos


def _cells_per_side(count: float, side: float, los_radius: float) -> int:
    """Cells per side of the association grid for ``count`` BSs: about
    ``_BS_PER_CELL`` BSs per cell or, when the LOS radius is shorter than that
    cell side, cells just wider than it, at most isqrt(4 count) per side."""
    n = math.isqrt(int(count // _BS_PER_CELL))
    if n >= 3 and _los_cells(side, los_radius) > n:
        # Cells wider than the LOS radius by a margin still hold every BS
        # within it in a user's block, and fewer other BSs.
        n = min(_los_cells(side, los_radius), math.isqrt(int(4 * count)))
    return n


def _los_cells(side: float, los_radius: float) -> int:
    """Cells per side of the finest grid whose cells are wider than
    ``los_radius`` by a margin for rounding in the cell assignment at each
    end: every point within ``los_radius`` of another lies in the 3x3 block
    of cells around the other's."""
    return int(side / (los_radius + 2e-9 * side))


def _cell_xy(points: np.ndarray, side: float, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y index of the grid cell holding each point."""
    xy = (points * (n_cells / side)).astype(np.intp)
    np.minimum(xy, n_cells - 1, out=xy)
    return xy[:, 0], xy[:, 1]


# A grid with at most this many cells per searched slot is indexed by a
# table over the grid; a larger one (dense BSs, few users) by binary search
# over the covered cells, so that no array grows with the window's BS count.
# Timed per association on a 2-core VM, with 225 and 1,000 users: the table
# was faster by 4-17 % up to 8 cells per slot, the two were within noise
# from 28 to 64, and the search was faster from 139 on, 10x at 2,776.  A
# search-only index slowed the mc_acceptance benchmark's round by 27 %,
# mostly in its sparse mmW operations (0.9 cells per slot).  The runs are
# in BENCH_15.json, under index_lookup.
_TABLE_CELLS_PER_SLOT = 64


class _CellIndex:
    """The BSs of the covered cells of the processes' n x n grids over the
    window, in key order: cell (x, y) of process k has key k n^2 + x n + y,
    and covered cell ``keys[i]`` (ascending) holds entries ``bounds[i]`` to
    ``bounds[i + 1] - 1`` of ``x``, ``y`` (coordinates) and ``ids`` (BS
    indices).  So the BSs of a run of consecutive covered cells are one run
    of entries, found by one lookup at each end however many of its cells
    are empty (:meth:`entries`).  :meth:`cover` adds cells drawn by the BS
    process's ``_cells``."""

    def __init__(self, bss, n: int, n_processes: int, n_slots: int):
        self.bss, self.n, self.side = bss, n, bss.window.side
        self.keys = self.counts = self.ids = np.empty(0, dtype=np.int64)
        self.bounds = np.zeros(1, dtype=np.int64)
        self.x = self.y = np.empty(0)
        self.size = n_processes * n * n
        # Each covered cell's i, when the grids are small enough for a table.
        self.table = None
        if self.size <= _TABLE_CELLS_PER_SLOT * n_slots:
            self.table = np.zeros(self.size, dtype=np.int64)

    def entries(self, first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first entry and the entry count of each run of covered cells
        ``first`` to ``last``."""
        if self.table is not None:
            first, last = self.table[first], self.table[last]
        else:
            first, last = np.searchsorted(self.keys, first), np.searchsorted(self.keys, last)
        start = self.bounds[first]
        return start, self.bounds[last + 1] - start

    def _uncovered(self, first: np.ndarray, last: np.ndarray, width: int) -> np.ndarray:
        """The distinct cells of the runs ``first`` to ``last`` of at most
        ``width`` cells not covered yet, ascending."""
        # The j-th cell of each run, or its last: one array of runs at a time.
        cells = [first, last] + [np.minimum(first + j, last) for j in range(1, width - 1)]
        if self.table is not None:
            mask = np.zeros(self.size, dtype=bool)
            for c in cells:
                mask[c] = True
            mask[self.keys] = False
            return np.flatnonzero(mask)
        cells = np.sort(np.concatenate([c.ravel() for c in cells]))
        cells = cells[np.concatenate(([True], cells[1:] != cells[:-1]))]
        return cells[np.isin(cells, self.keys, assume_unique=True, invert=True)]

    def cover(self, first: np.ndarray, last: np.ndarray, width: int) -> None:
        """Cover the cells of the runs ``first`` to ``last`` of at most
        ``width`` cells."""
        new = self._uncovered(first, last, width)
        if not new.size:
            return
        x, y, ids, counts = self.bss._cells(new, self.n)
        if self.keys.size:
            # Cells added by a grown block: merge them and their BSs in key
            # order.
            keys = np.concatenate((self.keys, new))
            order = np.argsort(keys)
            counts = np.concatenate((self.counts, counts))
            at = _ragged_index((np.cumsum(counts) - counts)[order], counts[order])
            new, counts = keys[order], counts[order]
            x, y = np.concatenate((self.x, x))[at], np.concatenate((self.y, y))[at]
            ids = np.concatenate((self.ids, ids))[at]
        self.keys, self.counts, self.x, self.y, self.ids = new, counts, x, y, ids
        self.bounds = np.concatenate(([0], np.cumsum(counts)))
        if self.table is not None:
            self.table[new] = np.arange(new.size)


def _block_spans(ux: np.ndarray, uy: np.ndarray, base: np.ndarray, n_cells: int, radius: int):
    """Each user's block of cells within ``radius`` rows and columns of its
    own cell (``ux``, ``uy``), as spans of columns, each a run of
    consecutive cells in each of the block's rows: (wrapped, first, last,
    parts).

    The arrays hold a row of the block per row and a span per column: the
    run of span i in row j holds the cells ``first[j, i]`` to
    ``last[j, i]``, keys x n + y wrapped onto the grid from the user's
    ``base``.  Spans 0 to U - 1 are the users' own, their columns clipped
    to the grid; span U + m holds the columns that wrapped of user
    ``wrapped[m]``, first below 0, then above n - 1, for the users whose
    block wrapped (about 2 radius / n of them).  ``parts`` ends each run of
    spans that names a user at most once.  A block wraps the grid at most
    once (radius <= n)."""
    users = ux.size
    nx = ux + np.arange(-radius, radius + 1)[:, None]
    rows = (nx - n_cells * (nx // n_cells)) * n_cells
    rows += base
    low = np.flatnonzero(uy < radius)
    high = np.flatnonzero(uy >= n_cells - radius)
    wrapped = np.concatenate((low, high))
    lo = np.concatenate((np.maximum(uy - radius, 0), np.maximum(uy[low] + (n_cells - radius), 0), np.zeros_like(high)))
    hi = np.concatenate((np.minimum(uy + radius, n_cells - 1), np.full_like(low, n_cells - 1), uy[high] + (radius - n_cells)))
    rows = np.concatenate((rows, rows[:, wrapped]), axis=1)
    # A user's columns wrap on both sides only on a grid narrower than 2 radius.
    parts = (users, users + wrapped.size) if n_cells >= 2 * radius else (users, users + low.size, users + wrapped.size)
    return wrapped, rows + lo, rows + hi, parts


def _search(index: _CellIndex, user_points: np.ndarray, base: np.ndarray, radius: int):
    """Each user's nearest BS in its block of ``radius`` of its process's
    grid, whose keys start at the user's ``base``, drawn into the index
    first: (squared distance, BS index), or (inf, -1) for an empty block.
    An exact tie goes to the lowest BS index.

    The block is searched as the spans of :func:`_block_spans`, whose runs
    of cells are runs of index entries, so the work follows the runs and
    their (user, BS) pairs, not the block's empty cells.  A span's nearest
    BS is found as a user's, and each user keeps the nearest of its
    spans'."""
    side, n = index.side, index.n
    ux, uy = _cell_xy(user_points, side, n)
    wrapped, first, last, parts = _block_spans(ux, uy, base, n, radius)
    # The frames: the user's coordinates shifted by 0 or one window side
    # where the row (frame_x[j, i]) or the span's columns (frame_y[i])
    # wrapped, so that a BS in the span less them is the displacement to
    # the BS's image next to the user.  The wrapped spans' columns lie
    # first below 0, then above n - 1.
    frame_x = user_points[:, 0] - side * ((ux + np.arange(-radius, radius + 1)[:, None]) // n)
    frame_x = np.concatenate((frame_x, frame_x[:, wrapped]), axis=1)
    frame_y = user_points[:, 1]
    low = wrapped[: np.count_nonzero(uy < radius)]
    high = wrapped[low.size :]
    frame_y = np.concatenate((frame_y, frame_y[low] + side, frame_y[high] - side))
    width = 2 * radius + 1
    index.cover(first, last, width)
    starts, counts = index.entries(first, last)
    span_pairs = counts.sum(axis=0)
    # The runs span by span, so that each span's pairs are consecutive.
    starts, counts, frame_x = (np.column_stack(a).ravel() for a in (starts, counts, frame_x))
    best = np.full(span_pairs.size, np.inf)
    nearest = np.full(span_pairs.size, -1, dtype=np.int64)

    def search(lo, hi):
        # Expand spans lo..hi-1 into their (user, BS) pairs, run by run.
        per_span = span_pairs[lo:hi]
        has = np.flatnonzero(per_span)
        if not has.size:
            return
        a, b = lo * width, hi * width
        cnt = counts[a:b]
        pos = _ragged_index(starts[a:b], cnt)
        # d2 = dx * dx + dy * dy, in place to keep the scratch small.
        d2 = index.x[pos]
        d2 -= np.repeat(frame_x[a:b], cnt)
        d2 *= d2
        dy = index.y[pos]
        dy -= np.repeat(frame_y[lo:hi], per_span)
        dy *= dy
        d2 += dy
        heads = (np.cumsum(per_span) - per_span)[has]
        low = np.minimum.reduceat(d2, heads)
        best[lo + has] = low
        # The lowest BS index among a span's pairs at its minimum: almost
        # always one pair, and then no reduction is needed.  Each span's
        # run of such pairs starts at its first one at or after the span's
        # first pair.
        hits = np.flatnonzero(d2 == np.repeat(low, per_span[has]))
        ids = index.ids[pos[hits]]
        nearest[lo + has] = ids if hits.size == has.size else np.minimum.reduceat(ids, np.searchsorted(hits, heads))

    for lo, hi in _pair_blocks(span_pairs):
        search(lo, hi)
    # Each wrapped span against its user's nearest so far: nearer, or as
    # near and a lower index.
    users = parts[0]
    user_best, user_nearest = best[:users], nearest[:users]
    for lo, hi in zip(parts, parts[1:]):
        if lo == hi:
            continue
        who, d2, ids = wrapped[lo - users : hi - users], best[lo:hi], nearest[lo:hi]
        take = (d2 < user_best[who]) | ((d2 == user_best[who]) & (ids < user_nearest[who]))
        user_best[who[take]] = d2[take]
        user_nearest[who[take]] = ids[take]
    return user_best, user_nearest


def _block_candidates(points, bounds, user_points, process, side: float, los_radius: float):
    """Each user's candidates among the points of its process that may lie
    within ``los_radius`` of it, or None when cells that wide fit fewer
    than three times across the window (the 3x3 block would wrap the grid).

    Process k's points are ``points[bounds[k]:bounds[k + 1]]``; user i,
    at ``user_points[i]``, is of process ``process[i]``.  The points fall in
    the cells k n^2 + x n + y of n x n grids whose cells are wider than
    ``los_radius`` (see :func:`_los_cells`), with at most about as many
    cells as points, so that the count per cell stays within the points'
    size.  A user's candidates are the points of the 3x3 block of cells
    around its own, read as the row runs of :func:`_block_spans`: (order,
    starts, counts), where run c of user i holds positions ``starts[i, c]``
    to ``starts[i, c] + counts[i, c] - 1`` of the points sorted by
    ``order``.  Runs 0 to 2 are the rows of the user's own columns, runs 3
    to 5 those of its columns that wrapped the grid, empty when none did.
    """
    n_processes = bounds.size - 1
    n = min(_los_cells(side, los_radius), math.isqrt(len(points) // n_processes + 1))
    if n < 3:
        return None
    cx, cy = _cell_xy(points, side, n)
    keys = np.repeat(np.arange(n_processes) * (n * n), np.diff(bounds)) + cx * n + cy
    # Cell key c holds positions ends[c] to ends[c + 1] - 1, so a run of
    # cells first to last holds ends[first] to ends[last + 1] - 1.
    ends = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n_processes * n * n))))
    wrapped, first, last, _ = _block_spans(*_cell_xy(user_points, side, n), process * (n * n), n, 1)
    users = len(user_points)
    starts, stops = np.zeros((2, users, 6), dtype=np.int64)
    for run, edge in ((starts, ends[first]), (stops, ends[last + 1])):
        run[:, :3], run[wrapped, 3:] = edge[:, :users].T, edge[:, users:].T
    # The stable sort took half the default's time on a 1,900-point batch.
    return np.argsort(keys, kind="stable"), starts, stops - starts


def _nearest(
    index: _CellIndex, user_points: np.ndarray, process: np.ndarray, los_radius: float
) -> np.ndarray:
    """Index of each user's nearest BS of its process closer than
    ``los_radius``, or -1.

    Each user is measured against its 3x3 block of cells.  A BS outside a
    block of radius r lies at least r cell sides away, so a candidate closer
    than that (less a margin for rounding in the cell assignment and the
    distances) is the nearest BS; so is no candidate within the LOS radius
    when the radius is that short.  A user left open is measured against a
    block grown by one ring of cells, with its new cells added to the index,
    until it is settled.  A block that wraps the grid (2 r + 1 > n) settles
    its users: it holds the minimum image of every BS of its process.
    """
    side, n = index.side, index.n
    margin = 1e-9 * side
    base = process * (n * n)
    user_to_bs = np.full(len(user_points), -1, dtype=np.int64)
    todo = np.arange(len(user_points))
    radius = 1
    while todo.size:
        reach = math.inf if 2 * radius + 1 > n else radius * side / n - margin
        limit = min(los_radius, reach)
        best, nearest = _search(index, user_points[todo], base[todo], radius)
        found = best < limit * limit
        user_to_bs[todo[found]] = nearest[found]
        if los_radius <= reach:
            break
        todo = todo[~found]
        radius += 1
    return user_to_bs


def associate_strongest(users: list[np.ndarray], bss: LazyPPP, los_radius: float = math.inf) -> AssociationMap:
    """Associate each user with its strongest-power BS.

    With equal per-tier transmit powers this is the nearest BS under the
    window metric; a finite ``los_radius`` restricts candidates to BSs
    within line of sight and leaves users with none unassociated.  An exact
    distance tie goes to the lowest BS index.  The search is pruned to BSs
    near the users (see the module docstring) and returns the same
    association as a search over all BSs.  It draws the BSs it searches,
    and then the count of those left undrawn, once.

    ``users`` holds one (n, 2) array of user points per process of ``bss``.
    A batch of processes is associated in one pass, each user set with its
    own process exactly as it would be alone; the map indexes users and BSs
    across the batch (see :class:`AssociationMap`).
    """
    if bss._associated:
        raise DomainError("a lazily drawn BS process is associated only once")
    bss._associated = True
    if len(users) != len(bss.rngs):
        raise ParameterError("a batch needs one user set per BS process")
    window = bss.window
    n_processes = len(users)
    sizes = [len(u) for u in users]
    user_starts = np.cumsum([0, *sizes])
    user_points = np.concatenate(users)
    process = np.repeat(np.arange(n_processes), sizes)
    # With fewer than three cells per side a 3x3 block wraps the grid, and a
    # block that wraps settles its users.
    n = max(1, _cells_per_side(bss.density * window.area, window.side, los_radius))
    index = _CellIndex(bss, n, n_processes, 9 * len(user_points))
    user_to_bs = _nearest(index, user_points, process, los_radius)
    # The cells left undrawn hold no serving BS: only their count is drawn.
    ends = np.searchsorted(index.keys, np.arange(n_processes + 1) * (n * n)).tolist()
    cell_area = (window.side / n) ** 2
    undrawn = 0
    for rng, lo, hi in zip(bss.rngs, ends, ends[1:]):
        undrawn += int(rng.poisson(bss.density * (n * n - (hi - lo)) * cell_area))
    rank, bs_starts = bss._group()
    if rank is not None:
        hit = user_to_bs >= 0
        user_to_bs[hit] = rank[user_to_bs[hit]]
    return AssociationMap(
        user_to_bs=user_to_bs,
        n_bs=len(bss) + undrawn,
        scheduled_user=np.full(len(bss), -1, dtype=np.int64),
        user_starts=user_starts,
        bs_starts=bs_starts,
    )


def schedule_active(assoc: AssociationMap, rngs) -> AssociationMap:
    """Each BS with k >= 1 associated users schedules one uniformly at random.

    ``rngs`` holds one Generator per replication of the map, each drawing
    its replication's schedule."""
    if len(rngs) != assoc.user_starts.size - 1:
        raise ParameterError("a batch needs one generator per replication")
    scheduled = np.full(assoc.scheduled_user.size, -1, dtype=np.int64)
    associated = np.flatnonzero(assoc.user_to_bs >= 0)
    bounds = np.searchsorted(associated, assoc.user_starts).tolist()
    # A random permutation of each replication's associated users, then the
    # first occurrence per BS: a uniform pick.
    perms = [r.permutation(associated[lo:hi]) for r, lo, hi in zip(rngs, bounds, bounds[1:]) if hi > lo]
    if perms:
        perm = np.concatenate(perms)
        first = np.full(scheduled.size, perm.size)
        np.minimum.at(first, assoc.user_to_bs[perm], np.arange(perm.size))
        served = np.flatnonzero(first < perm.size)
        scheduled[served] = perm[first[served]]
    return AssociationMap(
        user_to_bs=assoc.user_to_bs,
        n_bs=assoc.n_bs,
        scheduled_user=scheduled,
        user_starts=assoc.user_starts,
        bs_starts=assoc.bs_starts,
    )
