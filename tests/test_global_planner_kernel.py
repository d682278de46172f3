"""plan_global's batched shortcut pass, cached CSR layout and segment
clearance check against the per-segment, COO-built and per-caller forms they
replace.

Equality here is exact (`==`, `tobytes`): a replanned path or cost-to-go
that moved in the last bit would move the simulated rows of a trial.
"""

import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

import navbench.global_planner as global_planner
from navbench.errors import NoPathError, PlanInputError
from navbench.global_planner import (UNKNOWN_STEP_PENALTY, W_OBS, GlobalPath,
                                     cost_to_go, plan_global, segments_clear)
from navbench.gridmap import (CellState, OccupancyGrid, UnknownAs,
                              distance_transform, mask_unknown_region, sample_field)
from navbench.worldgen import WorldParams, generate_world

from conftest import random_grid

RADIUS = 0.17


# -- plan_global as it was: one sample_field call per shortcut candidate ---

def old_segment_clear(field, a, b, radius, samples):
    length = math.hypot(b[0] - a[0], b[1] - a[1])
    n = max(2, int(math.ceil(length / (0.5 * field.resolution))) + 1)
    ts = np.linspace(0.0, 1.0, n)
    xs = a[0] + ts * (b[0] - a[0])
    ys = a[1] + ts * (b[1] - a[1])
    samples.append((xs, ys))
    return bool((sample_field(field, xs, ys) >= radius).all())


class OldScan:
    """Greedy shortcut scan with a 40-vertex lookahead.  Records, per kept
    vertex, the points it sampled and whether its first candidate failed."""

    def __init__(self):
        self.groups = []
        self.first_candidate_failed = 0
        self.longest = 0

    def __call__(self, field, pts, radius):
        self.longest = max(self.longest, len(pts))
        smoothed = [pts[0]]
        i = 0
        while i < len(pts) - 1:
            samples = []
            j = i + 1
            while j + 1 < len(pts) and j - i < 40 \
                    and old_segment_clear(field, pts[i], pts[j + 1], radius, samples):
                j += 1
            if samples and j == i + 1:
                self.first_candidate_failed += 1
            self.groups.append(samples)
            smoothed.append(pts[j])
            i = j
        return smoothed


def old_plan(grid, field, start, goal, scan):
    """Steepest descent on cost_to_go, then `scan`, as plan_global did."""
    ctg = cost_to_go(grid, goal, RADIUS, field=field)
    w, h, res = grid.width, grid.height, grid.resolution
    si, gi = grid.cell_index(*start), grid.cell_index(*goal)
    cells, cur, guard = [si], si, w * h
    while cur != gi and guard > 0:
        guard -= 1
        best = None
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
            nx_, ny_ = cur[0] + dx, cur[1] + dy
            if not (0 <= nx_ < w and 0 <= ny_ < h):
                continue
            c = ctg[ny_, nx_]
            if not math.isfinite(c) or c >= ctg[cur[1], cur[0]]:
                continue
            total = c + (res * math.sqrt(2.0) if dx and dy else res)
            flat = ny_ * w + nx_
            if best is None or total < best[0] or (total == best[0] and flat < best[1]):
                best = (total, flat, (nx_, ny_))
        cur = best[2]
        cells.append(cur)
    pts = [tuple(start)] + [grid.cell_center(ix, iy) for ix, iy in cells[1:-1]] + [tuple(goal)]
    deduped = []
    for p in scan(field, pts, RADIUS):
        if not deduped or math.hypot(p[0] - deduped[-1][0], p[1] - deduped[-1][1]) > 1e-12:
            deduped.append((float(p[0]), float(p[1])))
    arr = np.asarray(deduped)
    return GlobalPath(tuple(deduped), float(np.linalg.norm(np.diff(arr, axis=0), axis=1).sum()))


def scenes():
    office = generate_world("office", WorldParams(16.0, 12.0, passage_width=1.0, clutter=6),
                            seed=1)
    grids = [
        office,
        mask_unknown_region(office, (4.8, 3.6, 6.4, 4.8)),
        generate_world("office", WorldParams(11.0, 9.0, passage_width=0.9, clutter=8), seed=2),
        generate_world("maze", WorldParams(12.1, 12.1, passage_width=1.1), seed=3),
        generate_world("corridor_acute", WorldParams(12.0, 9.0, passage_width=1.1), seed=5),
        generate_world("open_room", WorldParams(10.0, 10.0), seed=6),
    ]
    # scattered obstacles and unknown cells
    rng = np.random.default_rng(99)
    draw = rng.random((60, 80))
    cells = np.where(draw < 0.04, CellState.OCCUPIED,
                     np.where(draw < 0.3, CellState.UNKNOWN, CellState.FREE)).astype(np.uint8)
    grids.append(OccupancyGrid(80, 60, 0.1, (0.0, 0.0), cells))
    return [(g, distance_transform(g, UnknownAs.FREE)) for g in grids]


def requests(n, seed=2024):
    """Random (grid, field, start, goal) over the scenes, then start/goal
    pairs one and two cells apart (2- and 3-point descent paths)."""
    rng = np.random.default_rng(seed)
    table = scenes()
    for k in range(n):
        grid, field = table[k % len(table)]
        free = np.argwhere((grid.cells != CellState.OCCUPIED) & (field.values >= RADIUS))
        (sy, sx), (gy, gx) = free[rng.integers(len(free), size=2)]
        start = grid.cell_center(int(sx), int(sy))
        start = (start[0] + rng.uniform(-0.03, 0.03), start[1] + rng.uniform(-0.03, 0.03))
        yield grid, field, start, grid.cell_center(int(gx), int(gy))
    grid, field = table[-2]  # open room
    for dx, dy in ((1, 0), (1, 1), (2, 0), (2, 1), (0, -2), (-2, -2)):
        yield grid, field, grid.cell_center(50, 50), grid.cell_center(50 + dx, 50 + dy)


def test_plan_global_equals_old_descent_and_scan(monkeypatch):
    batched = []

    def recording(field, xs, ys):
        batched.append((xs, ys))
        return sample_field(field, xs, ys)
    monkeypatch.setattr(global_planner, "sample_field", recording)
    planned = 0
    old = OldScan()
    point_counts = set()
    for grid, field, start, goal in requests(240):
        batched.clear()
        del old.groups[:]
        try:
            path = plan_global(grid, start, goal, RADIUS, field=field)
        except (PlanInputError, NoPathError):  # endpoint and reachability checks
            continue
        assert path == old_plan(grid, field, start, goal, old)
        planned += 1
        point_counts.add(len(path))
        # The first call reads both endpoint clearances.  The batched call of
        # each kept vertex starts with exactly the points the old scan
        # sampled there, in the same order, bit for bit.
        assert batched[0] == ((start[0], goal[0]), (start[1], goal[1]))
        groups = [g for g in old.groups if g]
        assert len(batched) - 1 == len(groups)
        for (xs, ys), group in zip(batched[1:], groups):
            old_xs = np.concatenate([s[0] for s in group])
            old_ys = np.concatenate([s[1] for s in group])
            assert xs[:old_xs.size].tobytes() == old_xs.tobytes()
            assert ys[:old_ys.size].tobytes() == old_ys.tobytes()
    assert planned >= 200
    assert old.longest > 2 * 40
    assert {2, 3} <= point_counts
    assert old.first_candidate_failed >= 1


# -- cost_to_go against the COO-built graph --------------------------------

def coo_cost_to_go(grid, field, goal, radius):
    res, w, h = grid.resolution, grid.width, grid.height
    n = w * h
    trav = ((grid.cells != CellState.OCCUPIED) & (field.values >= radius)).ravel()
    gi = grid.cell_index(*goal)
    prox = W_OBS * np.maximum(0.0, 2.0 * radius - field.values)
    node_cost = (prox + np.where(grid.cells == CellState.UNKNOWN,
                                 UNKNOWN_STEP_PENALTY * res, 0.0)).ravel()
    idx = np.arange(n).reshape(h, w)
    rows, cols, data = [], [], []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        step_len = res * math.sqrt(2.0) if dx and dy else res
        src = idx[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)].ravel()
        dst = idx[max(0, dy):h + min(0, dy), max(0, dx):w + min(0, dx)].ravel()
        ok = trav[src] & trav[dst]
        rows.append(dst[ok])
        cols.append(src[ok])
        data.append(step_len + node_cost[dst[ok]])
    graph = coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n, n)).tocsr()
    return dijkstra(graph, directed=True, indices=gi[1] * w + gi[0]).reshape(h, w)


def test_cost_to_go_equals_coo_reference(rng):
    global_planner._edge_layout.cache_clear()
    shapes = ((37, 23), (20, 31), (1, 9), (9, 1), (64, 48))
    compared = 0
    for k in range(60):
        w, h = shapes[k % len(shapes)]
        draw = rng.random((h, w))
        cells = np.where(draw < 0.12, CellState.OCCUPIED,
                         np.where(draw < 0.3, CellState.UNKNOWN, CellState.FREE))
        grid = OccupancyGrid(w, h, 0.1, (-1.0, 0.5), cells.astype(np.uint8))
        radius = float(rng.choice([0.05, 0.12]))
        ix, iy = int(rng.integers(w)), int(rng.integers(h))
        goal = grid.cell_center(ix, iy)
        field = distance_transform(grid, UnknownAs.FREE)
        if cells[iy, ix] == CellState.OCCUPIED or field.values[iy, ix] < radius:
            with pytest.raises(PlanInputError):
                cost_to_go(grid, goal, radius)
            continue
        expected = coo_cost_to_go(grid, field, goal, radius)
        assert cost_to_go(grid, goal, radius).tobytes() == expected.tobytes()
        compared += 1
    assert compared >= 30
    info = global_planner._edge_layout.cache_info()
    assert info.misses == len(shapes) and info.hits > 0
    src, _ = global_planner._edge_layout(37, 23)
    assert src.dtype == np.int32


# -- one sample_field call per kept vertex ---------------------------------

def test_one_field_sample_per_kept_vertex(monkeypatch):
    calls = []
    monkeypatch.setattr(global_planner, "sample_field",
                        lambda *args, **kw: calls.append(args[1:]) or sample_field(*args, **kw))
    total = 0
    for grid, field, start, goal in requests(60, seed=5):
        calls.clear()
        try:
            path = plan_global(grid, start, goal, RADIUS, field=field)
        except (PlanInputError, NoPathError):
            continue
        # one call for both endpoints, then at most one per kept vertex
        assert calls[0] == ((start[0], goal[0]), (start[1], goal[1]))
        assert len(calls) - 1 <= len(path) - 1
        total += len(calls) - 1
    assert total > 0


# -- segments_clear against the samplers it replaced -----------------------

def linspace_samples(a, b, n):
    """The points of suitegen's agent-route check and of teb_plan's
    executed-segment check."""
    ts = np.linspace(0.0, 1.0, n)
    return a[0] + ts * (b[0] - a[0]), a[1] + ts * (b[1] - a[1])


def batched_t_samples(a, ends, counts):
    """The points of _shortcut's batched check, one run per segment."""
    dx, dy = (np.asarray(ends) - a).T
    n = np.array(counts)
    first = np.cumsum(n) - n
    seg = np.repeat(np.arange(len(ends)), n)
    t = (np.arange(seg.size) - first[seg]) * (1.0 / (n - 1))[seg]
    t[first + n - 1] = 1.0
    return a[0] + t * dx[seg], a[1] + t * dy[seg]


def test_segments_clear_equals_the_retired_samplers(monkeypatch):
    """Random fields and segments, with zero-length segments, counts of 2 and
    endpoints beyond the grid: one sample_field call whose points are, bit
    for bit, the batched form's and, per segment, the linspace form's, and
    the linspace form's verdict per segment."""
    batched = []

    def recording(field, xs, ys):
        batched.append((xs, ys))
        return sample_field(field, xs, ys)
    monkeypatch.setattr(global_planner, "sample_field", recording)
    rng = np.random.default_rng(19)
    verdicts, zero_length, outside = set(), 0, 0
    for _ in range(150):
        w, h = (int(v) for v in rng.integers(1, 50, size=2))
        grid = random_grid(rng, w, h, float(rng.choice([0.05, 0.1, 0.25])),
                           rng.uniform(0.0, 0.3), tuple(rng.normal(size=2)))
        field = distance_transform(grid)
        # Points reach a fifth of the grid beyond each side.
        size = np.array([grid.size_x, grid.size_y])
        lo, hi = np.array(grid.origin) - 0.2 * size, np.array(grid.origin) + 1.2 * size
        a = tuple(rng.uniform(lo, hi))
        if rng.random() < 0.5:  # suitegen passes Python floats, teb_plan numpy ones
            a = tuple(float(v) for v in a)
        ends = [a if rng.random() < 0.15 else tuple(rng.uniform(lo, hi))
                for _ in range(int(rng.integers(1, 12)))]
        counts = [2 if rng.random() < 0.3 else int(rng.integers(3, 60)) for _ in ends]
        want_xs, want_ys = batched_t_samples(a, ends, counts)
        # A threshold equal to one sample's value: ties must fall the same way.
        clearance = float(rng.choice(sample_field(field, want_xs, want_ys)))
        batched.clear()
        got = segments_clear(field, a, ends, counts, clearance)
        assert len(batched) == 1
        xs, ys = batched[0]
        assert xs.tobytes() == want_xs.tobytes() and ys.tobytes() == want_ys.tobytes()
        pieces = np.cumsum(counts)[:-1]
        for b, n, seg_xs, seg_ys, clear in zip(ends, counts, np.split(xs, pieces),
                                               np.split(ys, pieces), got):
            lin_xs, lin_ys = linspace_samples(a, b, n)
            assert seg_xs.tobytes() == lin_xs.tobytes()
            assert seg_ys.tobytes() == lin_ys.tobytes()
            assert clear == bool((sample_field(field, lin_xs, lin_ys) >= clearance).all())
            verdicts.add(bool(clear))
            zero_length += b == a
            outside += not (grid.contains(*a) and grid.contains(*b))
    assert verdicts == {True, False}
    assert zero_length > 0 and outside > 0
