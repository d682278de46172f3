"""plan_global's replan search: reused labels and a Dijkstra bounded by the
previous descent give the path a full search gives, bit for bit.

A label is the least left-fold sum of the same float weights over all paths
from the goal, and fl(a + w) is monotone in a, so the re-priced previous
descent bounds the start's label from above.  scipy's `limit` is inclusive,
so a bounded search keeps every label at most the start's and reads +inf
elsewhere, and the descent reads only labels below the current cell's.
"""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import navbench.global_planner as global_planner
from navbench import harness
from navbench.errors import NoPathError, PlanInputError
from navbench.global_planner import cost_to_go, plan_global
from navbench.gridmap import (FREE, OCCUPIED, UNKNOWN, OccupancyGrid, UnknownAs,
                              distance_at, distance_transform)
from navbench.metrics import write_log_csv
from navbench.suitegen import build_default_suite
from navbench.world import load_scenario, stamp_agents

RADIUS = harness.KinematicLimits().radius
TICKS = 18


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    manifest = build_default_suite(str(tmp_path_factory.mktemp("suite")), seed=0,
                                   pairs_per_scene=1)
    return {scn.name: scn for scn in
            (load_scenario(path) for _, path in harness.parse_suite(manifest))}


@pytest.fixture
def limits(monkeypatch):
    """The `limit` of every Dijkstra search made while the test runs."""
    seen = []

    def recording(graph, **kw):
        seen.append(kw.get("limit", math.inf))
        return dijkstra(graph, **kw)
    monkeypatch.setattr(global_planner, "_csgraph_dijkstra", recording)
    return seen


def test_scipy_limit_is_inclusive():
    graph = csr_matrix(([1.25, 2.5], [1, 2], [0, 1, 2, 2]), shape=(3, 3))
    assert dijkstra(graph, indices=0, limit=3.75).tolist() == [0.0, 1.25, 3.75]
    assert dijkstra(graph, indices=0, limit=3.7).tolist() == [0.0, 1.25, math.inf]


def blocked_start(grid, field, rng, tries=300):
    """A point whose interpolated clearance passes plan_global's first check
    although its cell's centre is under the radius, or None."""
    iy, ix = np.nonzero((grid.cells != OCCUPIED) & (field.values < RADIUS))
    offsets = (np.arange(9) - 4) * 0.11 * grid.resolution
    for k in rng.permutation(ix.size)[:tries]:
        cx, cy = grid.cell_center(int(ix[k]), int(iy[k]))
        for ox in offsets:
            for oy in offsets:
                if distance_at(field, cx + ox, cy + oy) >= RADIUS:
                    return cx + ox, cy + oy
    return None


def test_start_in_a_blocked_cell_is_an_input_error(rng):
    cells = np.zeros((20, 20), dtype=np.uint8)
    cells[10, 10] = OCCUPIED
    grid = OccupancyGrid(20, 20, 0.1, (0.0, 0.0), cells)
    field = distance_transform(grid, UnknownAs.FREE)
    start = blocked_start(grid, field, rng)
    goal = grid.cell_center(2, 2)
    ix, iy = grid.cell_index(*start)
    assert distance_at(field, *start) >= RADIUS > field.values[iy, ix]
    assert cost_to_go(grid, goal, RADIUS, field=field)[iy, ix] == math.inf
    with pytest.raises(PlanInputError, match="start cell blocked"):
        plan_global(grid, start, goal, RADIUS, field=field)


# -- sequences of requests: with and without the previous path -------------

def outcome(*args, **kwargs):
    """Call plan_global.  Returns what the call gives (the path and its
    descent cells, or the error's type and text) and the path, or None."""
    try:
        path = plan_global(*args, **kwargs)
    except (PlanInputError, NoPathError) as exc:
        return (type(exc), str(exc)), None
    return (path, path.search.cells if path.search else None), path


def free_point(grid, field, rng, cells=None, away=0):
    """A jittered free cell centre; with `cells`, one more than `away` cells
    (Chebyshev) from each of them."""
    iy, ix = np.nonzero((grid.cells != OCCUPIED) & (field.values >= RADIUS))
    if cells:
        c = np.asarray(cells)
        far = np.abs(ix[:, None] - c[:, 0]).clip(np.abs(iy[:, None] - c[:, 1])).min(1) > away
        iy, ix = iy[far], ix[far]
    k = rng.integers(ix.size)
    x, y = grid.cell_center(int(ix[k]), int(iy[k]))
    return x + rng.uniform(-0.03, 0.03), y + rng.uniform(-0.03, 0.03)


def perturb(grid, field, start, goal, chain, rng):
    """The next request: the start walks 0-2 cells or stays, a chain or
    other cell turns Occupied, Unknown cells turn Free under the same field
    (it reads Unknown as Free), the goal moves, or the start jumps away from
    the chain or into a cell under the radius."""
    kind = rng.choice(["walk", "walk", "walk", "stay", "chain", "cell", "cell", "cell",
                       "reveal", "goal", "far", "blocked"])
    if kind == "walk":
        x, y = start + rng.integers(-2, 3, size=2) * grid.resolution
        if grid.contains(x, y):
            start = (x, y)
    elif kind in ("chain", "cell") and len(chain) > 2:
        cells = grid.cells.copy()
        if kind == "chain":
            x, y = chain[rng.integers(1, len(chain) - 1)]
        else:
            x, y = rng.integers(grid.width), rng.integers(grid.height)
        cells[y, x] = OCCUPIED
        grid = grid.with_cells(cells)
        field = distance_transform(grid, UnknownAs.FREE)
    elif kind == "reveal" and (grid.cells == UNKNOWN).any():
        iy, ix = np.nonzero(grid.cells == UNKNOWN)
        cells = grid.cells.copy()
        cells[iy[:ix.size // 2], ix[:ix.size // 2]] = FREE
        grid = grid.with_cells(cells)
    elif kind == "goal":
        goal = free_point(grid, field, rng)
    elif kind == "far" and chain:
        start = free_point(grid, field, rng, chain, away=1)
    elif kind == "blocked":
        start = blocked_start(grid, field, rng, tries=40) or start
    return grid, field, start, goal


def test_replans_equal_full_searches(scenes, limits):
    rng = np.random.default_rng(23)
    grids = [scn.prior_map for scn in scenes.values()]
    grids += [stamp_agents(scn.prior_map, scn.agents, 0.0) for scn in scenes.values() if scn.agents]
    modes = {"reused": 0, "bounded": 0, "full": 0}
    errors = set()
    for grid in grids:
        for _ in range(2):
            field = distance_transform(grid, UnknownAs.FREE)
            start, goal = free_point(grid, field, rng), free_point(grid, field, rng)
            previous = None
            for _ in range(25):
                limits.clear()
                got, path = outcome(grid, start, goal, RADIUS, field=field, previous=previous)
                searches = list(limits)
                assert len(searches) <= 1  # a bound never falls below the start's label
                assert got == outcome(grid, start, goal, RADIUS, field=field)[0]
                if path is None:
                    errors.add(got)
                elif path.search is not None:
                    modes["reused" if not searches else
                          "bounded" if searches[0] < math.inf else "full"] += 1
                    check_labels(grid, field, start, goal, path.search.labels)
                    previous = path
                chain = previous.search.cells if previous is not None else ()
                grid, field, start, goal = perturb(grid, field, start, goal, chain, rng)
    assert min(modes.values()) >= 50, modes
    assert (PlanInputError, "start cell blocked") in errors
    assert (PlanInputError, "start in collision") in errors


def check_labels(grid, field, start, goal, labels):
    """Labels equal a full search's at every cell whose label is at most the
    start's, and are either exact or +inf elsewhere."""
    full = cost_to_go(grid, goal, RADIUS, field=field)
    ix, iy = grid.cell_index(*start)
    below = full <= full[iy, ix]
    assert labels[below].tobytes() == full[below].tobytes()
    assert ((labels == full) | (labels == math.inf)).all()


# -- the harness hands each replan the previous path -----------------------

def run(scn, pair, path):
    cfg = harness.TrialConfig(compute_cost_mode="iterations",
                              timeout=TICKS * harness.TrialConfig.control_period)
    result = harness.run_trial(scn, "dwa", pair, cfg)
    assert len(result.log) == TICKS
    write_log_csv(result.log, path, result.metadata)
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("# wall_ms")]


def test_office_masked_trials_search_once_or_bounded(scenes, limits, tmp_path):
    """office_masked pair 0 fuses no cell, so its labels serve every tick;
    pair 1 carves its map every tick, and each search after the first is
    bounded by the last tick's descent."""
    run(scenes["office_masked"], 0, tmp_path / "0.csv")
    assert limits == [math.inf]
    limits.clear()
    run(scenes["office_masked"], 1, tmp_path / "1.csv")
    assert limits[0] == math.inf and len(limits) == TICKS
    assert all(limit < math.inf for limit in limits[1:])


@pytest.mark.parametrize("name, pair", [("office_masked", 0), ("office_masked", 1),
                                        ("crowd", 1)])
def test_replanning_without_the_previous_path_writes_the_same_rows(
        scenes, monkeypatch, tmp_path, name, pair):
    rows = run(scenes[name], pair, tmp_path / "with.csv")

    def forgetting(*args, previous=None, **kwargs):
        return plan_global(*args, **kwargs)
    monkeypatch.setattr(harness, "plan_global", forgetting)
    assert run(scenes[name], pair, tmp_path / "without.csv") == rows
