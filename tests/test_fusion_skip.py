"""integrate_scan marches only rays that can reach Unknown cells, and
run_trial rebuilds the sensed field only when the tick map changed.

Both are pure skips of work whose result is already known, so equality here
is exact (`tobytes`, identical CSV rows): a fused cell that moved would move
the simulated rows of a trial.
"""

import math
from collections import Counter

import numpy as np
import pytest

import navbench.gridmap as gridmap
from navbench import harness
from navbench.gridmap import (CellState, LaserScan, OccupancyGrid, ScanSpec, _march,
                              beam_count, integrate_scan, raycast)
from navbench.metrics import write_log_csv
from navbench.suitegen import build_default_suite
from navbench.world import load_scenario

HEADINGS = (0.0, math.pi / 2, -math.pi / 2, math.pi, math.pi / 4)


def old_integrate_scan(known, pose, scan):
    """integrate_scan as it was: every ray marched, carve applied to every
    non-occupied traversed cell."""
    x, y, theta = pose
    spec = scan.spec
    res = known.resolution
    eps = res * 1e-6
    ang = theta + (spec.angle_min + spec.angle_increment * np.arange(len(scan.ranges)))
    dx = np.cos(ang)
    dy = np.sin(ang)
    px = x + spec.range_min * dx
    py = y + spec.range_min * dy
    r = np.asarray(scan.ranges)
    has_hit = r < spec.range_max - 1e-9
    t_lim = np.minimum(r, spec.range_max) - spec.range_min
    _, carve = _march(known, px, py, dx, dy, t_lim - eps, None)
    new = np.array(known.cells)
    new[carve & (new != CellState.OCCUPIED)] = CellState.FREE
    if has_hit.any():
        ex = x + (r[has_hit] + eps) * dx[has_hit]
        ey = y + (r[has_hit] + eps) * dy[has_hit]
        exi = np.floor((ex - known.origin[0]) / res).astype(np.int64)
        eyi = np.floor((ey - known.origin[1]) / res).astype(np.int64)
        ok = (exi >= 0) & (exi < known.width) & (eyi >= 0) & (eyi < known.height)
        new[eyi[ok], exi[ok]] = CellState.OCCUPIED
    return known.with_cells(new)


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    manifest = build_default_suite(str(root), seed=0, pairs_per_scene=1)
    return {scn.name: scn for scn in
            (load_scenario(path) for _, path in harness.parse_suite(manifest))}


def _unknown_masks(grid, rng):
    """The Unknown patterns covered, as (name, (height, width) bool mask)."""
    h, w = grid.height, grid.width
    one = np.zeros((h, w), dtype=bool)
    one[rng.integers(h), rng.integers(w)] = True
    rect = np.zeros((h, w), dtype=bool)
    y0, x0 = rng.integers(h - 10), rng.integers(w - 10)
    rect[y0:y0 + rng.integers(2, 10), x0:x0 + rng.integers(2, 10)] = True
    border = np.zeros((h, w), dtype=bool)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    return [("none", np.zeros((h, w), dtype=bool)), ("one cell", one), ("rect", rect),
            ("0.1%", rng.random((h, w)) < 0.001), ("5%", rng.random((h, w)) < 0.05),
            ("50%", rng.random((h, w)) < 0.5),
            ("all non-occupied", grid.cells != CellState.OCCUPIED),
            ("border", border)]


def _poses(grid, rng, n):
    """Poses on free cells, alternately at a cell centre and a cell corner,
    cycling through the headings."""
    iy, ix = np.nonzero(grid.cells == CellState.FREE)
    out = []
    for k in range(n):
        j = rng.integers(ix.size)
        if k % 2 == 0:
            x, y = grid.cell_center(ix[j], iy[j])
        else:
            x = grid.origin[0] + ix[j] * grid.resolution
            y = grid.origin[1] + iy[j] * grid.resolution
        out.append((x, y, HEADINGS[k % len(HEADINGS)]))
    return out


def test_integrate_scan_matches_full_march(scenes):
    rng = np.random.default_rng(8)
    cases = Counter()
    for scn in scenes.values():
        truth = scn.map
        masks = _unknown_masks(truth, rng)
        if scn.has_unknown_prior:
            masks.append(("suite mask", scn.prior_map.cells == CellState.UNKNOWN))
        for name, mask in masks:
            # 1% stale obstacles: Occupied cells the scan passes through
            # must stay Occupied.
            stale = np.where(rng.random(mask.shape) < 0.01, np.uint8(CellState.OCCUPIED),
                             truth.cells)
            known = truth.with_cells(np.where(mask, np.uint8(CellState.UNKNOWN), stale))
            for pose in _poses(truth, rng, 5):
                scan = raycast(truth, pose, scn.scan_spec)
                got = integrate_scan(known, pose, scan)
                want = old_integrate_scan(known, pose, scan)
                assert got.cells.tobytes() == want.cells.tobytes(), (scn.name, name, pose)
                cases[name] += 1
    assert sum(cases.values()) >= 300
    assert len(cases) == 9


@pytest.fixture
def march_calls(monkeypatch):
    """Ray count of every `_march` call made without a blocking mask."""
    calls = []

    def counting(grid, px, py, dx, dy, t_stop, blocking):
        if blocking is None:
            calls.append(np.size(px))
        return _march(grid, px, py, dx, dy, t_stop, blocking)

    monkeypatch.setattr(gridmap, "_march", counting)
    return calls


def test_known_map_is_not_marched(scenes, march_calls):
    scn = scenes["office"]
    pose = scn.start_goal_pairs[0][0]
    scan = raycast(scn.map, pose, scn.scan_spec)
    march_calls.clear()
    got = integrate_scan(scn.map, pose, scan)
    assert march_calls == []
    assert got.cells.tobytes() == old_integrate_scan(scn.map, pose, scan).cells.tobytes()


def test_unknown_corner_marches_fewer_rays(scenes, march_calls):
    scn = scenes["office"]
    truth = scn.map
    cells = np.array(truth.cells)
    cells[-6:, -6:] = CellState.UNKNOWN
    known = truth.with_cells(cells)
    pose = scn.start_goal_pairs[0][0]
    scan = raycast(truth, pose, scn.scan_spec)
    march_calls.clear()
    got = integrate_scan(known, pose, scan)
    assert len(march_calls) == 1
    assert march_calls[0] < beam_count(scn.scan_spec)
    assert got.cells.tobytes() == old_integrate_scan(known, pose, scan).cells.tobytes()


# One beam along each axis direction: the robot sits at the centre of cell
# (5, 10) or (15, 10) of a 20 x 20 grid, and one Unknown cell lies 10 cells
# ahead of it.
AXIS_CASES = [((0.55, 1.05, 0.0), (15, 10)), ((1.55, 1.05, math.pi), (5, 10)),
              ((1.05, 0.55, math.pi / 2), (10, 15)), ((1.05, 1.55, -math.pi / 2), (10, 5))]


@pytest.mark.parametrize("pose, unknown_cell", AXIS_CASES)
def test_ray_box_margin_is_one_cell(pose, unknown_cell, march_calls):
    """A beam that ends one cell short of the Unknown box is marched; one that
    ends two cells short is not."""
    cells = np.zeros((20, 20), dtype=np.uint8)
    cells[unknown_cell[1], unknown_cell[0]] = CellState.UNKNOWN
    known = OccupancyGrid(20, 20, 0.1, (0.0, 0.0), cells)
    spec = ScanSpec(angle_min=0.0, angle_max=1e-3, angle_increment=1.0)
    for r in (0.9, 0.8):  # end cell 1 and 2 cells short of the Unknown cell
        integrate_scan(known, pose, LaserScan(spec, [r]))
    assert march_calls == [1, 0]


# -- run_trial: the sensed field is rebuilt only when the tick map changed --

# (scene, pair, ticks): house's map changes once, by endpoint marking, on a
# known map; office_masked pair 1 sees its Unknown region from the start and
# carves it on ticks 0-31, then on a few later ones.
TRIALS = [("house", 0, 12), ("office_masked", 1, 45)]


def _sensed_field_builds(monkeypatch, scn, pair, ticks):
    """Run one trial; return (result, tick maps in order, number of
    distance_transform calls made on a tick map)."""
    tick_maps = []
    builds = []
    stamp, transform = harness.stamp_agents, harness.distance_transform

    def stamping(grid, agents):
        out = stamp(grid, agents)
        if grid is not scn.map:  # not the ground truth's stamping
            tick_maps.append(out)
        return out

    def transforming(grid, *args):
        builds.extend(m for m in tick_maps if m is grid)
        return transform(grid, *args)

    monkeypatch.setattr(harness, "stamp_agents", stamping)
    monkeypatch.setattr(harness, "distance_transform", transforming)
    cfg = harness.TrialConfig(compute_cost_mode="iterations",
                              timeout=ticks * harness.TrialConfig.control_period)
    result = harness.run_trial(scn, "dwa", pair, cfg)
    monkeypatch.undo()
    assert len(result.log) == len(tick_maps) == ticks
    return result, tick_maps, len(builds)


@pytest.mark.parametrize("name, pair, ticks", TRIALS)
def test_sensed_field_rebuilt_only_on_changed_ticks(scenes, monkeypatch, name, pair, ticks):
    result, tick_maps, builds = _sensed_field_builds(monkeypatch, scenes[name], pair, ticks)
    changed = sum(not np.array_equal(a.cells, b.cells)
                  for a, b in zip(tick_maps, tick_maps[1:]))
    assert 0 < changed < ticks - 1
    assert builds == 1 + changed


@pytest.mark.parametrize("name, pair, ticks", TRIALS)
def test_rebuilding_every_tick_writes_the_same_rows(scenes, monkeypatch, tmp_path,
                                                    name, pair, ticks):
    rows = []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(harness, "array_equal", lambda a, b: False)
        result, _, builds = _sensed_field_builds(monkeypatch, scenes[name], pair, ticks)
        assert (builds == ticks) == forced
        path = tmp_path / f"{forced}.csv"
        write_log_csv(result.log, path, result.metadata)
        rows.append([ln for ln in path.read_text().splitlines()
                     if not ln.startswith("# wall_ms")])
    assert rows[0] == rows[1]
