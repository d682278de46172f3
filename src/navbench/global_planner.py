"""Grid-level global planner feeding both local planners.

Cost-to-go is computed by Dijkstra over the 8-connected free space with an
obstacle-proximity surcharge, then the path is extracted by steepest descent
with deterministic tie-breaking and smoothed with clearance-checked
shortcuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import NoPathError, PlanInputError
from .gridmap import (CellState, DistanceField, OccupancyGrid, UnknownAs,
                      distance_at, distance_transform, sample_field)

# Proximity surcharge: cost = step + W_OBS * max(0, d_infl - d(cell)),
# with d_infl = 2 * radius.  Unknown cells pay a flat extra so the planner
# prefers explored space but can still route through unexplored regions.
W_OBS = 5.0
UNKNOWN_STEP_PENALTY = 2.0  # multiples of the resolution, per unknown cell


@dataclass(frozen=True)
class GlobalPath:
    points: tuple[tuple[float, float], ...]
    cumulative_length: float

    def __post_init__(self):
        object.__setattr__(self, "points",
                           tuple((float(x), float(y)) for x, y in self.points))

    def __len__(self):
        return len(self.points)


def _path_from_points(points) -> GlobalPath:
    deduped = []
    for p in points:
        if not deduped or math.hypot(p[0] - deduped[-1][0], p[1] - deduped[-1][1]) > 1e-12:
            deduped.append((float(p[0]), float(p[1])))
    pts = np.asarray(deduped)
    length = 0.0
    if len(pts) >= 2:
        length = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())
    return GlobalPath(tuple(deduped), length)


def cost_to_go(grid: OccupancyGrid, goal, radius: float,
               field: DistanceField | None = None) -> np.ndarray:
    """Dijkstra cost-to-go toward `goal` for every cell; +inf where blocked
    or unreachable.  Shared by planning and by the monotonicity checks."""
    if field is None:
        field = distance_transform(grid, UnknownAs.FREE)
    res = grid.resolution
    w, h = grid.width, grid.height
    n = w * h

    traversable = (grid.cells != CellState.OCCUPIED) & (field.values >= radius)
    trav_flat = traversable.ravel()

    gi = grid.cell_index(goal[0], goal[1])
    goal_flat = gi[1] * w + gi[0]
    if not trav_flat[goal_flat]:
        raise PlanInputError("goal cell blocked")

    d_infl = 2.0 * radius
    prox = W_OBS * np.maximum(0.0, d_infl - field.values)
    unknown_extra = np.where(grid.cells == CellState.UNKNOWN,
                             UNKNOWN_STEP_PENALTY * res, 0.0)
    node_cost = (prox + unknown_extra).ravel()

    idx = np.arange(n).reshape(h, w)
    rows = []
    cols = []
    data = []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        step_len = res * math.sqrt(2.0) if dx and dy else res
        src = idx[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)].ravel()
        dst = idx[max(0, dy):h + min(0, dy), max(0, dx):w + min(0, dx)].ravel()
        ok = trav_flat[src] & trav_flat[dst]
        src, dst = src[ok], dst[ok]
        # Transposed layout so dijkstra-from-goal follows reversed edges.
        rows.append(dst)
        cols.append(src)
        data.append(step_len + node_cost[dst])
    graph = coo_matrix((np.concatenate(data),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n, n)).tocsr()
    dist = _csgraph_dijkstra(graph, directed=True, indices=goal_flat)
    return dist.reshape(h, w)


_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _segment_clear(field: DistanceField, a, b, radius: float) -> bool:
    length = math.hypot(b[0] - a[0], b[1] - a[1])
    n = max(2, int(math.ceil(length / (0.5 * field.resolution))) + 1)
    ts = np.linspace(0.0, 1.0, n)
    xs = a[0] + ts * (b[0] - a[0])
    ys = a[1] + ts * (b[1] - a[1])
    vals = sample_field(field, xs, ys, clamp=True)
    return bool((vals >= radius).all())


def plan_global(grid: OccupancyGrid, start, goal, radius: float,
                field: DistanceField | None = None) -> GlobalPath:
    """Collision-free polyline from start to goal (clearance >= radius at
    every vertex).  Raises PlanInputError for blocked endpoints and
    NoPathError when the free space does not connect them."""
    if field is None:
        field = distance_transform(grid, UnknownAs.FREE)
    for tag, p in (("start", start), ("goal", goal)):
        if not grid.contains(p[0], p[1]):
            raise PlanInputError(f"{tag} outside grid")
        if distance_at(field, p[0], p[1]) < radius:
            raise PlanInputError(f"{tag} in collision")

    if math.hypot(goal[0] - start[0], goal[1] - start[1]) < 1e-12:
        return GlobalPath((tuple(start),), 0.0)

    ctg = cost_to_go(grid, goal, radius, field=field)
    w, h = grid.width, grid.height
    si = grid.cell_index(start[0], start[1])
    gi = grid.cell_index(goal[0], goal[1])
    if not math.isfinite(ctg[si[1], si[0]]):
        raise NoPathError("goal unreachable from start")

    res = grid.resolution
    cells = [si]
    cur = si
    guard = w * h
    while cur != gi and guard > 0:
        guard -= 1
        best = None
        cur_cost = ctg[cur[1], cur[0]]
        for dx, dy in _NEIGHBORS:
            nx_, ny_ = cur[0] + dx, cur[1] + dy
            if not (0 <= nx_ < w and 0 <= ny_ < h):
                continue
            c = ctg[ny_, nx_]
            if not math.isfinite(c) or c >= cur_cost:
                continue
            step_len = res * math.sqrt(2.0) if dx and dy else res
            total = c + step_len
            flat = ny_ * w + nx_
            if best is None or total < best[0] or (total == best[0] and flat < best[1]):
                best = (total, flat, (nx_, ny_))
        if best is None:
            raise NoPathError("descent stalled before reaching the goal")
        cur = best[2]
        cells.append(cur)

    # interior cell centers only: the exact start/goal replace their own cells
    pts = [tuple(start)]
    pts += [grid.cell_center(ix, iy) for ix, iy in cells[1:-1]]
    pts.append(tuple(goal))

    # Greedy shortcut pass, capped lookahead, clearance-checked.
    smoothed = [pts[0]]
    i = 0
    lookahead = 40
    while i < len(pts) - 1:
        j = i + 1
        while j + 1 < len(pts) and j - i < lookahead \
                and _segment_clear(field, pts[i], pts[j + 1], radius):
            j += 1
        smoothed.append(pts[j])
        i = j
    return _path_from_points(smoothed)


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
