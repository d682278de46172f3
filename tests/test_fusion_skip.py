"""integrate_scan fuses exactly the cells raycast's march crossed and
stopped in, and run_trial rebuilds the sensed field only when the tick map
changed.

Fusion is checked against an independent march of the same beams (the
previous `_march`, kept in test_sensing_kernels), and the field skip against
rebuilding on every tick, so equality here is exact (`tobytes`, identical CSV
rows): a fused cell that moved would move the simulated rows of a trial.
"""

import math
from collections import Counter

import numpy as np
import pytest

import navbench.gridmap as gridmap
from navbench import harness
from navbench.gridmap import CellState, beam_count, integrate_scan, raycast
from navbench.metrics import write_log_csv
from navbench.suitegen import build_default_suite
from navbench.world import load_scenario
from test_sensing_kernels import old_march

HEADINGS = (0.0, math.pi / 2, -math.pi / 2, math.pi, math.pi / 4)


def reference_integrate_scan(known, truth, pose, spec):
    """Fusion from an independent march: the beams of a scan from `pose` on
    `truth`, marched by `old_march` with the truth's Occupied cells blocking;
    Unknown cells they crossed become Free, Occupied cells they reached (the
    cells they stopped in) become Occupied."""
    x, y, theta = pose
    ang = theta + spec.angle_min + spec.angle_increment * np.arange(beam_count(spec))
    dx, dy = np.cos(ang), np.sin(ang)
    occupied = truth.cells == CellState.OCCUPIED
    _, crossed = old_march(truth, x + spec.range_min * dx, y + spec.range_min * dy, dx, dy,
                           spec.range_max - spec.range_min, occupied)
    new = np.array(known.cells)
    new[crossed & (new == CellState.UNKNOWN)] = CellState.FREE
    new[crossed & occupied] = CellState.OCCUPIED
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


def _poses(grid, rng, n, headings=HEADINGS):
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
        out.append((x, y, headings[k % len(headings)]))
    return out


def _masked_priors(scn, rng):
    """(name, prior) pairs: the truth with each Unknown pattern applied, and
    the scene's own prior if it has Unknown cells."""
    truth = scn.map
    masks = _unknown_masks(truth, rng)
    if scn.has_unknown_prior:
        masks.append(("suite mask", scn.prior_map.cells == CellState.UNKNOWN))
    return [(name, truth.with_cells(np.where(mask, np.uint8(CellState.UNKNOWN), truth.cells)))
            for name, mask in masks]


def test_integrate_scan_matches_full_march(scenes):
    rng = np.random.default_rng(8)
    cases = Counter()
    for scn in scenes.values():
        truth = scn.map
        for name, prior in _masked_priors(scn, rng):
            # 1% stale obstacles: Occupied cells the scan passes through
            # must stay Occupied.
            stale = rng.random(prior.cells.shape) < 0.01
            known = prior.with_cells(np.where(stale & (prior.cells != CellState.UNKNOWN),
                                              np.uint8(CellState.OCCUPIED), prior.cells))
            for pose in _poses(truth, rng, 5):
                got = integrate_scan(known, raycast(truth, pose, scn.scan_spec))
                want = reference_integrate_scan(known, truth, pose, scn.scan_spec)
                assert got.cells.tobytes() == want.cells.tobytes(), (scn.name, name, pose)
                cases[name] += 1
    assert sum(cases.values()) >= 300
    assert len(cases) == 9


@pytest.fixture
def march_calls(monkeypatch):
    """The calls made to `_march` while the test runs."""
    calls = []
    march = gridmap._march

    def counting(*args):
        calls.append(args)
        return march(*args)

    monkeypatch.setattr(gridmap, "_march", counting)
    return calls


def test_known_map_is_not_marched(scenes, march_calls):
    """raycast's march is the only one: fusing its scan into a known map
    marches nothing and changes nothing."""
    scn = scenes["office"]
    pose = scn.start_goal_pairs[0][0]
    scan = raycast(scn.map, pose, scn.scan_spec)
    march_calls.clear()
    got = integrate_scan(scn.map, scan)
    assert march_calls == []
    assert got.cells.tobytes() == scn.map.cells.tobytes()


def test_unknown_corner_marches_fewer_rays(scenes, march_calls):
    """A scan fused into a map with an Unknown corner is marched exactly once
    across `raycast` and `integrate_scan`, and fusion still writes what the
    independent march finds."""
    scn = scenes["office"]
    truth = scn.map
    cells = np.array(truth.cells)
    cells[-6:, -6:] = CellState.UNKNOWN
    known = truth.with_cells(cells)
    pose = scn.start_goal_pairs[0][0]
    got = integrate_scan(known, raycast(truth, pose, scn.scan_spec))
    assert len(march_calls) == 1
    assert beam_count(scn.scan_spec) > 0
    want = reference_integrate_scan(known, truth, pose, scn.scan_spec)
    assert got.cells.tobytes() == want.cells.tobytes()


def test_no_phantom_obstacle_where_beams_cross_a_grid_corner(scenes):
    """From this cell centre, beams at exactly 45 degrees pass through grid
    corners, where the march steps x first; the cell a beam stops in is the
    one the march entered, not the diagonal one past the corner, so fusing
    the scan into the truth map changes nothing."""
    house = scenes["house"]
    scan = raycast(house.map, (1.15, 1.75, 0.0), house.scan_spec)
    assert integrate_scan(house.map, scan).cells.tobytes() == house.map.cells.tobytes()


def test_fusion_changes_cells_only_to_their_truth_state(scenes):
    """At cell-centre and cell-corner poses with axis and diagonal headings:
    a scan of the truth fused into the truth changes no cell, and fused into
    a masked prior changes cells only to their truth state."""
    rng = np.random.default_rng(18)
    headings = tuple(k * math.pi / 4 for k in range(8))
    changed_total = 0
    for scn in scenes.values():
        truth = scn.map
        scans = [raycast(truth, pose, scn.scan_spec)
                 for pose in _poses(truth, rng, 2 * len(headings), headings)]
        for scan in scans:
            assert integrate_scan(truth, scan).cells.tobytes() == truth.cells.tobytes()
        for name, prior in _masked_priors(scn, rng):
            for scan in scans:
                got = integrate_scan(prior, scan).cells
                changed = got != prior.cells
                assert (got[changed] == truth.cells[changed]).all(), (scn.name, name)
                changed_total += np.count_nonzero(changed)
    assert changed_total > 0


def test_a_scan_is_marched_once_on_its_first_read(scenes, march_calls):
    scn = scenes["office"]
    scan = raycast(scn.map, scn.start_goal_pairs[0][0], scn.scan_spec)
    assert march_calls == []
    reads = [getattr(scan, name) for name in ("ranges", "seen", "hit") * 2]
    assert len(march_calls) == 1
    for first, again in zip(reads[:3], reads[3:]):
        assert first is again and not first.flags.writeable


def test_a_prior_without_unknown_cells_still_gets_the_obstacles_it_lacks(scenes):
    """The skip needs both clauses: a prior with no Unknown cell that lacks a
    truth obstacle the scan hits gets it marked, one the scan does not reach
    stays Free, and fusing into the truth itself gives a new, equal grid."""
    scn = scenes["office"]
    truth = scn.map
    pose = scn.start_goal_pairs[0][0]
    scan = raycast(truth, pose, scn.scan_spec)
    assert integrate_scan(truth, scan) is not truth
    hit = tuple(np.argwhere(scan.hit)[0])
    unseen = tuple(np.argwhere((truth.cells == CellState.OCCUPIED) & ~scan.seen)[0])
    cells = np.array(truth.cells)
    cells[hit] = cells[unseen] = CellState.FREE
    got = integrate_scan(truth.with_cells(cells), raycast(truth, pose, scn.scan_spec)).cells
    assert got[hit] == CellState.OCCUPIED and got[unseen] == CellState.FREE
    cells[hit] = CellState.OCCUPIED
    assert got.tobytes() == cells.tobytes()


# -- run_trial: the sensed field is rebuilt only when the tick map changed --

# (scene, pair, ticks): house's map is known, so fusion never changes it;
# office_masked pair 1 sees its Unknown region from the start and carves it on
# ticks 0-31, then on a few later ones.
TRIALS = [("house", 0, 12), ("office_masked", 1, 45)]


def _sensed_field_builds(monkeypatch, scn, pair, ticks):
    """Run one trial; return (result, tick maps in order, number of
    distance_transform calls made on a tick map)."""
    tick_maps = []
    builds = []
    stamp, transform = harness.stamp_agents, harness.distance_transform

    def stamping(grid, agents, t):
        out = stamp(grid, agents, t)
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
    if scenes[name].has_unknown_prior:
        assert 0 < changed < ticks - 1
    else:
        assert changed == 0
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


def _trial_rows(scn, pair, ticks, path):
    """Run one trial; return its CSV rows, wall time left out."""
    cfg = harness.TrialConfig(compute_cost_mode="iterations",
                              timeout=ticks * harness.TrialConfig.control_period)
    result = harness.run_trial(scn, "dwa", pair, cfg)
    assert len(result.log) == ticks
    write_log_csv(result.log, path, result.metadata)
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("# wall_ms")]


@pytest.mark.parametrize("name, pair, ticks", TRIALS)
def test_scans_are_marched_only_where_fusion_can_change_the_map(
        scenes, monkeypatch, tmp_path, march_calls, name, pair, ticks):
    """house's map is known, so no scan of its trial is marched; office_masked
    keeps Unknown cells, so each tick's scan is marched once.  Marching every
    scan as it is cast writes the same rows."""
    scn = scenes[name]
    rows = _trial_rows(scn, pair, ticks, tmp_path / "deferred.csv")
    assert len(march_calls) == (ticks if scn.has_unknown_prior else 0)
    cast = harness.raycast

    def eager(*args):
        scan = cast(*args)
        scan.ranges
        return scan

    monkeypatch.setattr(harness, "raycast", eager)
    march_calls.clear()
    assert _trial_rows(scn, pair, ticks, tmp_path / "eager.csv") == rows
    assert len(march_calls) == ticks
