import heapq
import math

import numpy as np
import pytest

from navbench.errors import NoPathError, PlanInputError
from navbench.global_planner import (GlobalPath, cost_to_go,
                                     extract_local_reference, plan_global)
from navbench.gridmap import (CellState, OccupancyGrid, distance_at,
                              distance_transform)
from navbench.worldgen import WorldParams, generate_world

RADIUS = 0.17


def open_room(size=10.0, res=0.1):
    return generate_world("open_room", WorldParams(size, size, resolution=res), 0)


def dijkstra_oracle_length(grid, start, goal):
    """Plain 8-connected Dijkstra on step lengths only (no proximity cost)."""
    si = grid.cell_index(*start)
    gi = grid.cell_index(*goal)
    free = grid.cells != CellState.OCCUPIED
    dist = {si: 0.0}
    heap = [(0.0, si)]
    moves = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
             (1, 1, math.sqrt(2)), (1, -1, math.sqrt(2)),
             (-1, 1, math.sqrt(2)), (-1, -1, math.sqrt(2))]
    while heap:
        d, cell = heapq.heappop(heap)
        if cell == gi:
            return d * grid.resolution
        if d > dist.get(cell, math.inf):
            continue
        for dx, dy, c in moves:
            nxt = (cell[0] + dx, cell[1] + dy)
            if not (0 <= nxt[0] < grid.width and 0 <= nxt[1] < grid.height):
                continue
            if not free[nxt[1], nxt[0]]:
                continue
            nd = d + c
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return math.inf


def test_empty_room_diagonal():
    g = open_room()
    path = plan_global(g, (1.0, 1.0), (9.0, 9.0), RADIUS)
    ideal = math.sqrt(128.0)
    assert path.cumulative_length <= ideal * 1.05
    assert path.cumulative_length >= ideal - 1e-9
    oracle = dijkstra_oracle_length(g, (1.0, 1.0), (9.0, 9.0))
    assert oracle == pytest.approx(ideal, rel=0.02)  # oracle sanity
    assert path.cumulative_length <= oracle * 1.05


def test_start_equals_goal():
    g = open_room()
    path = plan_global(g, (5.0, 5.0), (5.0, 5.0), RADIUS)
    assert len(path.points) == 1
    assert path.cumulative_length == 0.0


def test_goal_sealed_raises_no_path():
    g = open_room(6.0)
    cells = np.array(g.cells)
    cells[25:36, 25:36] = CellState.OCCUPIED
    cells[27:34, 27:34] = CellState.FREE  # free pocket inside a closed box
    g = g.with_cells(cells)
    with pytest.raises(NoPathError):
        plan_global(g, (1.0, 1.0), (3.05, 3.05), RADIUS)


@pytest.mark.parametrize("start, goal, message", [
    ((-1.0, 3.0), (3.0, 3.0), "start outside grid"),
    ((3.0, 3.0), (3.0, 7.0), "goal outside grid"),
    ((0.12, 0.12), (3.0, 7.0), "goal outside grid"),  # both grid checks come first
    ((0.12, 0.12), (3.0, 3.0), "start in collision"),
    ((0.12, 0.12), (0.12, 5.88), "start in collision"),
    ((3.0, 3.0), (5.88, 5.88), "goal in collision"),
])
def test_endpoint_rejected(start, goal, message):
    with pytest.raises(PlanInputError, match=message):
        plan_global(open_room(6.0), start, goal, RADIUS)


def test_path_endpoints_and_clearance():
    g = generate_world("office", WorldParams(12.0, 9.0, passage_width=1.0, clutter=4), 2)
    field = distance_transform(g)
    free = np.argwhere((g.cells == CellState.FREE) & (field.values >= 0.4))
    sy, sx = free[10]
    gy, gx = free[-10]
    start = g.cell_center(int(sx), int(sy))
    goal = g.cell_center(int(gx), int(gy))
    try:
        path = plan_global(g, start, goal, RADIUS)
    except NoPathError:
        pytest.skip("sampled endpoints in different components")
    assert path.points[0] == pytest.approx(start)
    assert path.points[-1] == pytest.approx(goal)
    assert path.cumulative_length >= math.hypot(goal[0] - start[0], goal[1] - start[1]) - 1e-9
    for x, y in path.points:
        assert distance_at(field, x, y) >= RADIUS - 1e-12
    for a, b in zip(path.points, path.points[1:]):
        assert math.hypot(b[0] - a[0], b[1] - a[1]) > 1e-12


def test_cost_to_go_monotone_along_path():
    g = generate_world("maze", WorldParams(8.5, 8.5, passage_width=1.0), 4)
    field = distance_transform(g)
    eligible = np.argwhere((g.cells == CellState.FREE) & (field.values >= 0.4))
    start = g.cell_center(int(eligible[5][1]), int(eligible[5][0]))
    goal = g.cell_center(int(eligible[-5][1]), int(eligible[-5][0]))
    path = plan_global(g, start, goal, RADIUS)
    ctg = cost_to_go(g, goal, RADIUS, field=field)
    costs = []
    for x, y in path.points:
        ix, iy = g.cell_index(x, y)
        costs.append(ctg[iy, ix])
    # consecutive distinct cells must strictly decrease in cost-to-go
    dedup = [costs[0]]
    for c in costs[1:]:
        if c != dedup[-1]:
            dedup.append(c)
    assert all(b < a for a, b in zip(dedup, dedup[1:]))
    assert all(math.isfinite(c) for c in costs)


def test_plan_deterministic():
    g = generate_world("office", WorldParams(10.0, 8.0, passage_width=1.0), 7)
    a = plan_global(g, (1.0, 1.0), (8.5, 6.5), RADIUS)
    b = plan_global(g, (1.0, 1.0), (8.5, 6.5), RADIUS)
    assert a.points == b.points


def test_unknown_cells_traversable():
    g = open_room(6.0)
    cells = np.array(g.cells)
    cells[20:40, 20:40] = CellState.UNKNOWN  # band across the middle
    cells[:, 25] = CellState.UNKNOWN
    g = g.with_cells(cells)
    path = plan_global(g, (1.0, 3.0), (5.0, 3.0), RADIUS)
    assert path.cumulative_length >= 4.0


def test_extract_local_reference():
    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]
    path = GlobalPath(tuple(pts), 4.0)
    # horizon covers the remainder
    rest = extract_local_reference(path, (2.1, 0.1), 10.0)
    assert rest.points[0] == (2.0, 0.0)
    assert rest.points[-1] == (4.0, 0.0)
    # truncation keeps the crossing vertex
    short = extract_local_reference(path, (0.0, 0.0), 1.5)
    assert short.points == ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    assert short.cumulative_length <= 1.5 + 1.0
    # pose exactly on a vertex starts there
    on_vertex = extract_local_reference(path, (3.0, 0.0), 0.5)
    assert on_vertex.points[0] == (3.0, 0.0)
