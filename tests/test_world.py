import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navbench.errors import ParseError, ValidationError
from navbench.gridmap import (CellState, OccupancyGrid, UnknownAs,
                              distance_transform, mask_unknown_region)
from navbench.world import (DynamicAgent, Scenario, load_scenario,
                            save_scenario, stamp_agents)
from navbench.worldgen import WorldParams, generate_world

from conftest import random_grid


def straight_agent(length=10.0, speed=1.0, mode="ping_pong"):
    return DynamicAgent(0.25, speed, ((0.0, 0.0), (length, 0.0)), mode)


def polyline_distance(point, waypoints, closed=False):
    pts = list(waypoints)
    if closed:
        pts.append(pts[0])
    best = math.inf
    px, py = point
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        vx, vy = bx - ax, by - ay
        L2 = vx * vx + vy * vy
        t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / L2))
        qx, qy = ax + t * vx, ay + t * vy
        best = min(best, math.hypot(px - qx, py - qy))
    return best


def test_agent_advances_by_speed_t():
    a = straight_agent()
    assert a.position(0.5) == pytest.approx((0.5, 0.0))
    assert a.position(0.0) == (0.0, 0.0)


def test_agent_lands_exactly_on_waypoint():
    a = DynamicAgent(0.2, 1.0, ((0.0, 0.0), (2.0, 0.0), (2.0, 3.0)))
    assert a.position(2.0) == pytest.approx((2.0, 0.0), abs=1e-12)


def test_agent_ping_pong_reflects():
    a = straight_agent(length=2.0, speed=1.0)
    # 3 m along a 2 m segment -> 1 m back
    assert a.position(3.0) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_agent_loop_wraps():
    a = DynamicAgent(0.2, 1.0, ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)),
                     "loop")
    total = a.path_length  # closed polyline: 8 m
    assert total == pytest.approx(8.0)
    assert a.position(8.5) == pytest.approx((0.5, 0.0), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=30),
       st.sampled_from(["loop", "ping_pong"]))
def test_agent_stays_on_polyline(dts, mode):
    a = DynamicAgent(0.3, 0.9, ((0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (1.0, 3.0)), mode)
    t = 0.0
    for dt in dts:
        t += dt
        d = polyline_distance(a.position(t), a.waypoints, closed=(mode == "loop"))
        assert d <= 1e-9


def test_agent_validation():
    with pytest.raises(ValidationError):
        DynamicAgent(0.2, 0.0, ((0, 0), (1, 0)))
    with pytest.raises(ValidationError):
        DynamicAgent(0.2, 1.0, ((0, 0),))
    with pytest.raises(ValidationError):
        DynamicAgent(0.2, 1.0, ((0, 0), (0, 0)))


def _disc_cell_oracle(grid, pos, radius):
    count = 0
    for iy in range(grid.height):
        for ix in range(grid.width):
            cx, cy = grid.cell_center(ix, iy)
            if (cx - pos[0]) ** 2 + (cy - pos[1]) ** 2 <= radius * radius:
                count += 1
    return count


def test_stamp_agent_cell_count():
    g = OccupancyGrid.full_free(60, 60, 0.1)
    # cell-center aligned disc covers ~ pi * 0.25^2 / 0.01 = 19..21 cells
    a = DynamicAgent(0.25, 1.0, ((2.95, 2.95), (3.95, 2.95)))
    count = (stamp_agents(g, [a], 0.0).cells == CellState.OCCUPIED).sum()
    assert 19 <= count <= 21
    rng = np.random.default_rng(7)
    for _ in range(10):
        pos = tuple(rng.uniform(2.0, 4.0, size=2))
        a = DynamicAgent(0.25, 1.0, (pos, (pos[0] + 1.0, pos[1])))
        stamped = stamp_agents(g, [a], 0.0)
        count = (stamped.cells == CellState.OCCUPIED).sum()
        assert count == _disc_cell_oracle(g, pos, 0.25)


def test_stamp_no_agents_identity():
    g = OccupancyGrid.full_free(10, 10, 0.1)
    assert stamp_agents(g, [], 0.0) is g


def test_stamp_agent_outside_grid():
    g = OccupancyGrid.full_free(10, 10, 0.1)
    a = DynamicAgent(0.25, 1.0, ((5.0, 5.0), (6.0, 5.0)))
    stamped = stamp_agents(g, [a], 0.0)
    assert np.array_equal(stamped.cells, g.cells)


# ---------------------------------------------------------------------------
# generators


def test_generators_deterministic():
    params = WorldParams(8.0, 7.0, passage_width=1.0)
    for kind in ("office", "maze", "corridor_u", "corridor_acute", "open_room"):
        a = generate_world(kind, params, seed=5)
        b = generate_world(kind, params, seed=5)
        assert np.array_equal(a.cells, b.cells)
        c = generate_world(kind, params, seed=6)
        if kind in ("office", "maze"):  # randomized kinds must react to the seed
            assert not np.array_equal(a.cells, c.cells)


def test_corridor_u_half_width_bound():
    g = generate_world("corridor_u", WorldParams(8.0, 7.0, passage_width=1.0), 0)
    f = distance_transform(g)
    free = g.cells == CellState.FREE
    assert f.values[free].max() <= 0.5 + 1e-9


def test_maze_full_size_connected():
    g = generate_world("maze", WorldParams(23.7, 25.5, passage_width=1.1), seed=3)
    from scipy import ndimage
    free = g.cells != CellState.OCCUPIED
    labels, count = ndimage.label(free, structure=np.ones((3, 3), dtype=int))
    assert count == 1  # perfect maze: every free cell reachable


def test_generated_worlds_connected():
    for kind, params, seed in (
            ("office", WorldParams(16.0, 12.0, passage_width=1.0, clutter=6), 1),
            ("corridor_u", WorldParams(8.0, 7.0, passage_width=1.0), 2),
            ("corridor_acute", WorldParams(12.0, 9.0, passage_width=1.1), 3),
            ("open_room", WorldParams(10.0, 10.0), 4)):
        g = generate_world(kind, params, seed)
        from scipy import ndimage
        free = g.cells != CellState.OCCUPIED
        labels, count = ndimage.label(free, structure=np.ones((3, 3), dtype=int))
        assert count == 1, kind
        assert free.sum() > 100


def test_generator_minimum_size_errors():
    with pytest.raises(ValidationError):
        generate_world("maze", WorldParams(1.5, 1.5, passage_width=1.0), 0)
    with pytest.raises(ValidationError):
        generate_world("corridor_u", WorldParams(2.0, 1.0, passage_width=1.0), 0)
    with pytest.raises(ValidationError):
        generate_world("open_room", WorldParams(0.3, 0.3), 0)


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        generate_world("cave", WorldParams(5.0, 5.0), 0)


# ---------------------------------------------------------------------------
# scenarios


def simple_scenario(name="demo"):
    g = generate_world("open_room", WorldParams(6.0, 5.0), 0)
    pairs = (((1.0, 1.0, 0.0), (5.0, 4.0, 0.5)),)
    agent = DynamicAgent(0.25, 0.6, ((2.0, 2.0), (4.0, 2.0)))
    return Scenario(name=name, map=g, start_goal_pairs=pairs, agents=(agent,))


def test_scenario_roundtrip(tmp_path):
    scn = simple_scenario()
    path = tmp_path / "demo.scene"
    save_scenario(scn, path)
    loaded = load_scenario(path)
    assert loaded.name == scn.name
    assert np.array_equal(loaded.map.cells, scn.map.cells)
    assert loaded.start_goal_pairs == scn.start_goal_pairs
    assert len(loaded.agents) == 1
    assert loaded.agents[0].waypoints == scn.agents[0].waypoints
    assert loaded.scan_spec == scn.scan_spec


def test_scenario_with_mask_roundtrip(tmp_path):
    g = generate_world("open_room", WorldParams(6.0, 5.0), 0)
    rects = ((2.0, 2.0, 1.5, 1.0), (3.05, 0.5, 0.3, 3.0))
    scn = Scenario(name="masked", map=g,
                   start_goal_pairs=(((1.0, 1.0, 0.0), (5.0, 4.0, 0.0)),), masks=rects)
    # Unknown exactly at the cell centres inside some mask, the map elsewhere
    cx = (np.arange(g.width) + 0.5) * g.resolution
    cy = (np.arange(g.height) + 0.5) * g.resolution
    inside = np.zeros((g.height, g.width), dtype=bool)
    for x, y, w, h in rects:
        inside |= np.outer((cy >= y) & (cy <= y + h), (cx >= x) & (cx <= x + w))
    assert inside.any() and not (g.cells == CellState.UNKNOWN).any()
    assert np.array_equal(scn.prior_map.cells == CellState.UNKNOWN, inside)
    assert np.array_equal(scn.prior_map.cells[~inside], g.cells[~inside])
    path = tmp_path / "masked.scene"
    save_scenario(scn, path)
    loaded = load_scenario(path)
    assert np.array_equal(loaded.prior_map.cells, scn.prior_map.cells)
    assert np.array_equal(loaded.map.cells, g.cells)


def test_prior_follows_the_masks():
    scn = simple_scenario()
    assert scn.prior_map is scn.map and not scn.has_unknown_prior
    masked = dataclasses.replace(scn, masks=((2.0, 2.0, 1.5, 1.0),))
    assert masked.has_unknown_prior and masked.map is scn.map
    assert dataclasses.replace(masked, masks=()).prior_map is scn.map
    assert "prior_map" not in inspect.signature(Scenario).parameters
    with pytest.raises(ValidationError, match="does not intersect"):
        dataclasses.replace(scn, masks=((20.0, 20.0, 1.0, 1.0),))


def test_scenario_start_on_occupied_rejected(tmp_path):
    g = generate_world("open_room", WorldParams(6.0, 5.0), 0)
    scn = Scenario(name="bad", map=g,
                   start_goal_pairs=(((0.05, 0.05, 0.0), (5.0, 4.0, 0.0)),))
    path = tmp_path / "bad.scene"
    save_scenario(scn, path)
    with pytest.raises(ValidationError, match="not free|clearance"):
        load_scenario(path)


def test_scenario_disconnected_pair_rejected(tmp_path):
    g = generate_world("open_room", WorldParams(6.0, 5.0), 0)
    cells = np.array(g.cells)
    cells[:, 30] = CellState.OCCUPIED  # wall splitting the room
    g = g.with_cells(cells)
    scn = Scenario(name="bad", map=g,
                   start_goal_pairs=(((1.0, 1.0, 0.0), (5.0, 4.0, 0.0)),))
    path = tmp_path / "bad.scene"
    save_scenario(scn, path)
    with pytest.raises(ValidationError, match="connected"):
        load_scenario(path)


def test_scene_parse_error_has_line(tmp_path):
    path = tmp_path / "broken.scene"
    path.write_text("name x\nmap missing.grid\npair 1 2 3\n")
    with pytest.raises((ParseError, FileNotFoundError)):
        load_scenario(path)
    path2 = tmp_path / "broken2.scene"
    path2.write_text("name x\nfrobnicate 1\n")
    with pytest.raises(ParseError) as err:
        load_scenario(path2)
    assert err.value.line == 2


@pytest.mark.parametrize("line", [
    "agent 0.2 inf loop 1 1 2 2",            # the trial died in stamp_agents
    "agent 0.25 0.6 ping_pong 1 nan 2 2",
    "pair nan 1 0 5 4 0",
    "mask 2 2 inf 1",
    "scan -90 90 nan 0.05 8",
    "scan -90 90 1 0.05 inf",
])
def test_non_finite_scene_number_names_path_and_line(tmp_path, line):
    path = tmp_path / "demo.scene"
    save_scenario(simple_scenario(), path)
    lines = path.read_text().splitlines() + [line]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_scenario(path)
    assert str(err.value).startswith(f"{path}:{len(lines)}: ")


@pytest.mark.parametrize("edit, match", [
    ("mask 20 20 1 1", "does not intersect"),
    ("pair 0.05 0.05 0 5 4 0", "not free"),
    ("pair 1 1 0 1 0.16 0", "clearance"),
    ("wall", "connected"),
])
def test_scene_validation_error_names_the_file(tmp_path, edit, match):
    scn = simple_scenario()
    if edit == "wall":
        cells = np.array(scn.map.cells)
        cells[:, 30] = CellState.OCCUPIED
        scn = Scenario(name="demo", map=scn.map.with_cells(cells),
                       start_goal_pairs=scn.start_goal_pairs)
    path = tmp_path / "demo.scene"
    save_scenario(scn, path)
    if edit != "wall":
        path.write_text(path.read_text() + edit + "\n")
    with pytest.raises(ValidationError, match=match) as err:
        load_scenario(path)
    assert str(err.value).startswith(f"{path}: ")


def test_mask_of_the_wrong_length_is_a_validation_error():
    scn = simple_scenario()
    for rect in ((1, 2, 3), (1.0, 2.0, 3.0, 4.0, 5.0)):
        with pytest.raises(ValidationError, match="mask needs 4 values"):
            Scenario(name="demo", map=scn.map, start_goal_pairs=scn.start_goal_pairs,
                     masks=(rect,))


def test_mask_that_holds_no_cell_center_is_rejected(tmp_path):
    """A 1 cm square between the cell centers of the 0.1 m room would leave
    a scene of the partially_unknown group with a fully known prior."""
    scn = simple_scenario()
    rect = (2.04, 2.04, 0.01, 0.01)
    with pytest.raises(ValidationError, match="covers no cell center"):
        mask_unknown_region(scn.map, rect)
    with pytest.raises(ValidationError, match="covers no cell center"):
        dataclasses.replace(scn, masks=(rect,))
    path = tmp_path / "demo.scene"
    save_scenario(scn, path)
    path.write_text(path.read_text() + "mask 2.04 2.04 0.01 0.01\n")
    with pytest.raises(ValidationError, match="covers no cell center") as err:
        load_scenario(path)
    assert str(err.value).startswith(f"{path}: ")
    # one cell center is enough
    one = mask_unknown_region(scn.map, (2.04, 2.04, 0.02, 0.02))
    assert int((one.cells == CellState.UNKNOWN).sum()) == 1
