"""cost_to_go on the fixed-degree CSR layout against a COO-built graph.

The layout gives every cell 8 slots (a self-loop where a neighbour is off
the grid) and prices blocked cells at +inf.  Equality with the COO graph of
traversable-to-traversable edges is exact (`tobytes`): a cost-to-go that
moved in the last bit would move a replanned path and the rows of a trial.
"""

import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

import navbench.global_planner as global_planner
from navbench.errors import PlanInputError
from navbench.global_planner import (UNKNOWN_STEP_PENALTY, W_OBS, _edge_layout,
                                     cost_to_go)
from navbench.gridmap import CellState, OccupancyGrid, UnknownAs, distance_transform

F, O, U = CellState.FREE, CellState.OCCUPIED, CellState.UNKNOWN
EIGHT = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]


def reference(grid, goal, radius):
    """Dijkstra from the goal over a COO graph holding, for every ordered
    pair of traversable 8-neighbours a -> b, the weight step + cost(b);
    rows are b, so the search follows the edges backwards."""
    res, w, h = grid.resolution, grid.width, grid.height
    field = distance_transform(grid, UnknownAs.FREE)
    trav = (grid.cells != O) & (field.values >= radius)
    cost = W_OBS * np.maximum(0.0, 2.0 * radius - field.values) \
        + np.where(grid.cells == U, UNKNOWN_STEP_PENALTY * res, 0.0)
    rows, cols, data = [], [], []
    for by, bx in np.argwhere(trav):
        for dx, dy in EIGHT:
            ax, ay = bx - dx, by - dy
            if 0 <= ax < w and 0 <= ay < h and trav[ay, ax]:
                rows.append(by * w + bx)
                cols.append(ay * w + ax)
                data.append((res * math.sqrt(2.0) if dx and dy else res) + cost[by, bx])
    graph = coo_matrix((data, (rows, cols)), shape=(w * h, w * h)).tocsr()
    gx, gy = grid.cell_index(*goal)
    return dijkstra(graph, directed=True, indices=gy * w + gx).reshape(h, w)


def grid_of(rows):
    """Grid from strings of '.', '#' and '?' (free, occupied, unknown), top
    string first; cell (0, 0) is the bottom-left character."""
    code = {".": F, "#": O, "?": U}
    cells = np.array([[code[c] for c in r] for r in reversed(rows)], dtype=np.uint8)
    return OccupancyGrid(cells.shape[1], cells.shape[0], 0.1, (0.3, -0.2), cells)


def check_every_goal(grid, radius):
    """Compare cost_to_go with the reference from every traversable goal;
    blocked goals must raise.  Returns the number of goals compared."""
    field = distance_transform(grid, UnknownAs.FREE)
    compared = 0
    for iy in range(grid.height):
        for ix in range(grid.width):
            goal = grid.cell_center(ix, iy)
            if grid.cells[iy, ix] == O or field.values[iy, ix] < radius:
                with pytest.raises(PlanInputError):
                    cost_to_go(grid, goal, radius)
                continue
            got = cost_to_go(grid, goal, radius)
            assert got.tobytes() == reference(grid, goal, radius).tobytes(), (ix, iy)
            compared += 1
    return compared


@pytest.mark.parametrize("w, h", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 3)])
def test_small_shapes(w, h):
    rng = np.random.default_rng(w * 10 + h)
    grids = [OccupancyGrid.full_free(w, h, 0.1)]
    for _ in range(6):
        draw = rng.random((h, w))
        cells = np.where(draw < 0.2, O, np.where(draw < 0.5, U, F)).astype(np.uint8)
        grids.append(OccupancyGrid(w, h, 0.1, (0.0, 0.0), cells))
    compared = sum(check_every_goal(g, r) for g in grids for r in (0.05, 0.12))
    assert compared >= w * h


SCENES = {
    # a free cell walled in by occupied cells, free space all around the wall
    "walled cell": ["#######",
                    "#.....#",
                    "#.###.#",
                    "#.#.#.#",
                    "#.###.#",
                    "#.....#",
                    "#######"],
    # pockets cut off by walls and by diagonal gaps, unknown cells in and out
    "pockets": ["..#.....#.",
                "..#.??..#.",
                "###.??.#..",
                "....#.#...",
                "?..#...#??",
                ".?#.##..#.",
                "..#.#.?.#."],
    # unknown band splitting free space, goal corners reachable through it
    "unknown band": ["....?.....",
                     "....??....",
                     ".....?....",
                     "....???...",
                     ".....?...."],
}


@pytest.mark.parametrize("name", SCENES)
def test_hand_drawn_scenes(name):
    # at radius 0.12 a cell next to an obstacle is blocked by clearance
    assert check_every_goal(grid_of(SCENES[name]), 0.05) > 0
    check_every_goal(grid_of(SCENES[name]), 0.12)


def test_walled_cell_reaches_only_itself():
    grid = grid_of(SCENES["walled cell"])
    inside = cost_to_go(grid, grid.cell_center(3, 3), 0.05)
    assert inside[3, 3] == 0.0 and np.isinf(np.delete(inside.ravel(), 3 * 7 + 3)).all()
    outside = cost_to_go(grid, grid.cell_center(1, 1), 0.05)
    assert np.isinf(outside[3, 3]) and np.isfinite(outside[1, 1:6]).all()


@pytest.mark.parametrize("corner", [(0, 0), (39, 0), (0, 29), (39, 29)])
def test_goal_in_a_corner(corner):
    rng = np.random.default_rng(17)
    draw = rng.random((30, 40))
    cells = np.where(draw < 0.08, O, np.where(draw < 0.3, U, F)).astype(np.uint8)
    cells[corner[1], corner[0]] = F
    cells[max(corner[1] - 1, 0):corner[1] + 2, max(corner[0] - 1, 0):corner[0] + 2] = F
    grid = OccupancyGrid(40, 30, 0.1, (-2.0, 1.0), cells)
    goal = grid.cell_center(*corner)
    got = cost_to_go(grid, goal, 0.05)
    assert got.tobytes() == reference(grid, goal, 0.05).tobytes()
    assert got[corner[1], corner[0]] == 0.0


def test_layout_is_fixed_degree_with_self_loops():
    global_planner._edge_layout.cache_clear()
    for w, h in ((1, 1), (1, 5), (5, 1), (4, 3)):
        src, diagonal = _edge_layout(w, h)
        assert src.dtype == np.int32
        assert not (src.flags.writeable or diagonal.flags.writeable)
        assert diagonal.tolist() == [bool(dx and dy) for dx, dy in global_planner._NEIGHBORS]
        for cell, slots in enumerate(src.reshape(-1, 8)):
            x, y = cell % w, cell // w
            for (dx, dy), s in zip(global_planner._NEIGHBORS, slots):
                inside = 0 <= x - dx < w and 0 <= y - dy < h
                assert s == ((y - dy) * w + x - dx if inside else cell)
    assert _edge_layout(4, 3)[0] is _edge_layout(4, 3)[0]


def test_dijkstra_sees_positive_weights_only(monkeypatch):
    """The layout's bit-identity rests on every weight being > 0: a zero
    self-loop or a negative edge could change which label wins."""
    graphs = []

    def recording(graph, **kw):
        graphs.append(graph)
        return dijkstra(graph, **kw)
    monkeypatch.setattr(global_planner, "_csgraph_dijkstra", recording)
    for rows in SCENES.values():
        grid = grid_of(rows)
        for iy, ix in ((0, 0), (grid.height - 1, grid.width - 1), (1, 1)):
            if grid.cells[iy, ix] != O:
                cost_to_go(grid, grid.cell_center(ix, iy), 0.05)
    cost_to_go(OccupancyGrid.full_free(1, 1, 0.1), (0.05, 0.05), 0.05)
    assert len(graphs) >= 4
    for g in graphs:
        n = g.shape[0]
        assert g.indptr.tolist() == list(range(0, 8 * n + 1, 8))
        assert (g.data > 0).all()
