"""Grid-level global planner feeding both local planners.

Cost-to-go is computed by Dijkstra over the 8-connected free space with an
obstacle-proximity surcharge.  The graph is a fixed-degree CSR (8 slots per
cell) cached per grid shape; a call only prices its edges, blocked cells at
+inf.  The path is extracted by steepest descent with deterministic
tie-breaking and smoothed by greedy shortcuts, tried by `segments_clear`: the
one straight-segment clearance check, which the suite generator and TEB share.

A replan given the previous path redoes only the search its changes require.
If the grid, field, goal and radius are those of the previous search and its
labels reach the start cell, they are reused as they are.  Otherwise the
previous descent cells, re-priced from the goal outward as a path from the
start cell, bound the start's label, and Dijkstra stops at that bound.  Both
give the path a full search gives, bit for bit: a label is the least
left-fold sum of the same float weights over all paths, and fl(a + w) is
monotone in a, so a re-priced path costs at least the start's label;
scipy's `limit` is inclusive, so every cell whose label is at most the
start's keeps it exactly and every other cell reads +inf; and the descent
reads only labels below the current cell's, so none above the start's.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import NoPathError, PlanInputError
from .gridmap import (OCCUPIED, UNKNOWN, DistanceField, OccupancyGrid,
                      UnknownAs, distance_transform, sample_field)

# Proximity surcharge: cost = step + W_OBS * max(0, d_infl - d(cell)),
# with d_infl = 2 * radius.  Unknown cells pay a flat extra so the planner
# prefers explored space but can still route through unexplored regions.
W_OBS = 5.0
UNKNOWN_STEP_PENALTY = 2.0  # multiples of the resolution, per unknown cell
SHORTCUT_LOOKAHEAD = 40  # vertices ahead of a kept vertex tried as shortcuts
_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
_SLOT = {d: k for k, d in enumerate(_NEIGHBORS)}


@dataclass(frozen=True, eq=False)
class _Search:
    """The cost-to-go search a path descended: `labels` toward the `goal`
    cell at `radius` over `grid` and `field` (exact wherever they are finite),
    and the descent's cells from the start cell to the goal cell."""
    labels: np.ndarray
    grid: OccupancyGrid
    field: DistanceField
    goal: tuple[int, int]
    radius: float
    cells: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GlobalPath:
    """A polyline and its length.  A path from `plan_global` also carries
    the search it came from, for the next replan; it takes no part in `==`
    or `repr`."""
    points: tuple[tuple[float, float], ...]
    cumulative_length: float
    search: _Search | None = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points",
                           tuple((float(x), float(y)) for x, y in self.points))

    def __len__(self):
        return len(self.points)


def _path_from_points(points, search: _Search | None = None) -> GlobalPath:
    deduped = []
    for p in points:
        if not deduped or math.hypot(p[0] - deduped[-1][0], p[1] - deduped[-1][1]) > 1e-12:
            deduped.append((float(p[0]), float(p[1])))
    length = float(np.linalg.norm(np.diff(np.asarray(deduped), axis=0), axis=1).sum())
    return GlobalPath(tuple(deduped), length, search)


@functools.lru_cache(maxsize=8)
def _edge_layout(w: int, h: int):
    """(src, diagonal) of the transposed 8-neighbour CSR of a w x h grid at
    fixed degree: row dst's 8 slots, in _NEIGHBORS order, hold the int32
    flat src = dst - _NEIGHBORS[k], or dst (a self-loop) where that is off the
    grid, so indptr is arange(0, 8n + 1, 8).  Cached and shared between
    calls, so read-only."""
    idx = np.arange(w * h, dtype=np.int32).reshape(h, w)
    pad = np.pad(idx, 1, constant_values=-1)
    src = np.stack([pad[1 - dy:h + 1 - dy, 1 - dx:w + 1 - dx] for dx, dy in _NEIGHBORS], -1)
    src = np.where(src < 0, idx[..., None], src).ravel()
    diagonal = np.array([bool(dx and dy) for dx, dy in _NEIGHBORS])
    src.flags.writeable = diagonal.flags.writeable = False
    return src, diagonal


def cost_to_go(grid: OccupancyGrid, goal, radius: float,
               field: DistanceField | None = None) -> np.ndarray:
    """Dijkstra cost-to-go toward `goal` for every cell; +inf where blocked
    or unreachable: the full search of `plan_global`, which a replan bounds
    or skips."""
    if field is None:
        field = distance_transform(grid, UnknownAs.FREE)
    return _dijkstra(grid, *_priced_graph(grid, grid.cell_index(goal[0], goal[1]), radius, field))


def _priced_graph(grid: OccupancyGrid, gi, radius: float, field: DistanceField):
    """(weights, traversable mask, goal flat index) of the search toward
    cell `gi`: weights[r, k] prices the CSR edge from row r to its slot-k
    source, +inf on blocked rows."""
    res = grid.resolution
    w = grid.width
    trav_flat = ((grid.cells != OCCUPIED) & (field.values >= radius)).ravel()
    goal_flat = gi[1] * w + gi[0]
    if not trav_flat[goal_flat]:
        raise PlanInputError("goal cell blocked")

    prox = W_OBS * np.maximum(0.0, 2.0 * radius - field.values)
    unknown_extra = np.where(grid.cells == UNKNOWN,
                             UNKNOWN_STEP_PENALTY * res, 0.0)
    node_cost = (prox + unknown_extra).ravel()
    node_cost[~trav_flat] = np.inf

    # Transposed layout (row = dst) so dijkstra-from-goal follows reversed
    # edges.  A blocked row relays nothing (+inf weights), and the labels its
    # traversable neighbours hand it are masked out after the search.
    _, diagonal = _edge_layout(w, grid.height)
    weights = node_cost[:, None] + np.where(diagonal, res * math.sqrt(2.0), res)
    return weights, trav_flat, goal_flat


def _dijkstra(grid, weights, trav_flat, goal_flat, limit=math.inf) -> np.ndarray:
    """Labels of `_priced_graph`'s search, +inf where blocked or above `limit`."""
    w, h = grid.width, grid.height
    n = w * h
    src, _ = _edge_layout(w, h)
    graph = csr_matrix((weights.ravel(), src, np.arange(0, 8 * n + 1, 8, dtype=np.int32)),
                       shape=(n, n))
    dist = _csgraph_dijkstra(graph, directed=True, indices=goal_flat, limit=limit)
    dist[~trav_flat] = np.inf
    return dist.reshape(h, w)


def _chain_bound(prev: _Search, grid: OccupancyGrid, weights, si, gi) -> float:
    """Cost, in the search's own float sums, of the previous descent cells as
    a path from cell `si` to the goal cell `gi`: their suffix from `si`, or
    `si` and their suffix from the cell nearest the goal that neighbours it.
    +inf if there is no such chain or it crosses a blocked cell."""
    w, cells = grid.width, prev.cells
    if prev.goal != gi or (prev.grid.width, prev.grid.height) != (w, grid.height):
        return math.inf
    if si in cells:
        chain = cells[cells.index(si):]
    else:
        near = [k for k, (x, y) in enumerate(cells)
                if max(abs(x - si[0]), abs(y - si[1])) == 1]
        if not near:
            return math.inf
        chain = (si, *cells[near[-1]:])
    slots = [(b[1] * w + b[0]) * 8 + _SLOT[b[0] - a[0], b[1] - a[1]]
             for a, b in zip(chain, chain[1:])]
    bound = 0.0
    for weight in reversed(weights.ravel()[slots].tolist()):  # goal outward, as Dijkstra adds
        bound += weight
    return bound


def _labels(grid: OccupancyGrid, si, gi, radius: float, field: DistanceField,
            prev: _Search | None) -> np.ndarray:
    """Cost-to-go labels toward cell `gi`, exact at the start cell `si` and
    at every cell whose label is below it: `prev`'s labels where they serve,
    else a search bounded by `prev`'s descent, else a full one."""
    sx, sy = si
    if (prev is not None and prev.field is field and prev.goal == gi
            and prev.radius == radius and prev.grid.resolution == grid.resolution
            and np.array_equal(prev.grid.cells, grid.cells)
            and math.isfinite(prev.labels[sy, sx])):
        return prev.labels
    graph = _priced_graph(grid, gi, radius, field)
    bound = math.inf if prev is None else _chain_bound(prev, grid, graph[0], si, gi)
    labels = _dijkstra(grid, *graph, limit=bound)
    if bound < math.inf and not math.isfinite(labels[sy, sx]):
        labels = _dijkstra(grid, *graph)
    return labels


def segments_clear(field: DistanceField, a, ends, counts, clearance: float) -> np.ndarray:
    """Whether each straight segment from `a` to `ends[k]` keeps `clearance`
    at its `counts[k]` (>= 2) samples, spaced as np.linspace(0, 1, counts[k])
    spaces them.  All samples are read in one sample_field call."""
    dx, dy = (np.asarray(ends, dtype=np.float64) - a).T
    counts = np.asarray(counts)
    first = np.cumsum(counts) - counts
    seg = np.repeat(np.arange(counts.size), counts)
    t = (np.arange(seg.size) - first[seg]) * (1.0 / (counts - 1))[seg]
    t[first + counts - 1] = 1.0
    vals = sample_field(field, a[0] + t * dx[seg], a[1] + t * dy[seg])
    return np.logical_and.reduceat(vals >= clearance, first)


def _shortcut(field: DistanceField, pts, radius: float) -> list:
    """Greedy shortcut pass over the descent vertices `pts`.  From kept
    vertex i, the segments to k = i+2 .. i+SHORTCUT_LOOKAHEAD are checked
    every half cell in one `segments_clear` call, and the pass keeps the
    vertex before the first blocked one (the last if none)."""
    half_cell = 0.5 * field.resolution
    kept, i = [pts[0]], 0
    while i < len(pts) - 2:
        a, ends = pts[i], pts[i + 2:i + SHORTCUT_LOOKAHEAD + 1]
        n = [max(2, int(math.ceil(math.hypot(b[0] - a[0], b[1] - a[1]) / half_cell)) + 1)
             for b in ends]
        clear = segments_clear(field, a, ends, n, radius)
        i += 1 + (len(ends) if clear.all() else int(np.argmin(clear)))
        kept.append(pts[i])
    return kept + pts[i + 1:]


def plan_global(grid: OccupancyGrid, start, goal, radius: float,
                field: DistanceField | None = None,
                previous: GlobalPath | None = None) -> GlobalPath:
    """Collision-free polyline from start to goal (clearance >= radius at
    every vertex).  Raises PlanInputError for blocked endpoints and
    NoPathError when the free space does not connect them.  `previous`, the
    last path planned toward the same goal, only saves search work: the path
    is the one a call without it returns."""
    if field is None:
        field = distance_transform(grid, UnknownAs.FREE)
    for tag, p in (("start", start), ("goal", goal)):
        if not grid.contains(p[0], p[1]):
            raise PlanInputError(f"{tag} outside grid")
    clearance = sample_field(field, (start[0], goal[0]), (start[1], goal[1]))
    for tag, d in zip(("start", "goal"), clearance):
        if d < radius:
            raise PlanInputError(f"{tag} in collision")

    if math.hypot(goal[0] - start[0], goal[1] - start[1]) < 1e-12:
        return GlobalPath((tuple(start),), 0.0)

    w, h = grid.width, grid.height
    si = grid.cell_index(start[0], start[1])
    gi = grid.cell_index(goal[0], goal[1])
    # the search's traversable test, at the start cell's centre
    if not (grid.cells[si[1], si[0]] != OCCUPIED and field.values[si[1], si[0]] >= radius):
        raise PlanInputError("start cell blocked")
    ctg = _labels(grid, si, gi, radius, field, None if previous is None else previous.search)
    if not math.isfinite(ctg[si[1], si[0]]):
        raise NoPathError("goal unreachable from start")

    # Steepest descent to the downhill neighbour of least (cost + step, flat
    # index).  Each cell's 3x3 labels are read once from a +inf-padded copy;
    # the neighbours are tried in increasing flat index, so a strict `<`
    # keeps the first of equal totals.
    res = grid.resolution
    diag = res * math.sqrt(2.0)
    window = ((0, 0, diag), (1, 0, res), (2, 0, diag), (0, 1, res),
              (2, 1, res), (0, 2, diag), (1, 2, res), (2, 2, diag))
    pad = np.pad(ctg, 1, constant_values=np.inf)
    cells = [si]
    for _ in range(w * h):
        x, y = cells[-1]
        if (x, y) == gi:
            break
        nb = pad[y:y + 3, x:x + 3].tolist()
        here, best = nb[1][1], None
        for i, j, step in window:
            c = nb[j][i]
            if c < here and (best is None or c + step < best):
                best, move = c + step, (x + i - 1, y + j - 1)
        if best is None:
            raise NoPathError("descent stalled before reaching the goal")
        cells.append(move)

    # interior cell centers only: the exact start/goal replace their own cells
    pts = [tuple(start), *(grid.cell_center(ix, iy) for ix, iy in cells[1:-1]), tuple(goal)]
    return _path_from_points(_shortcut(field, pts, radius),
                             _Search(ctg, grid, field, gi, radius, tuple(cells)))


def extract_local_reference(path: GlobalPath, pose, horizon: float) -> GlobalPath:
    """Sub-path from the vertex closest to `pose`, truncated once the
    accumulated arc length reaches `horizon` (the crossing vertex is kept)."""
    if len(path) == 0:
        raise PlanInputError("empty global path")
    pts = np.asarray(path.points)
    d2 = (pts[:, 0] - pose[0]) ** 2 + (pts[:, 1] - pose[1]) ** 2
    k = int(np.argmin(d2))
    out = [path.points[k]]
    acc = 0.0
    while k + 1 < len(path) and acc < horizon:
        seg = math.hypot(path.points[k + 1][0] - path.points[k][0],
                         path.points[k + 1][1] - path.points[k][1])
        acc += seg
        out.append(path.points[k + 1])
        k += 1
    return _path_from_points(out)
