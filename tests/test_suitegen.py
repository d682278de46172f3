"""The generated benchmark suite end to end: reproducible bytes, scenes that
load through full validation, and the pair, agent and keep-out rules of
`build_default_suite`."""

import math
import os

import numpy as np
import pytest

from navbench import harness
from navbench.errors import ValidationError
from navbench.gridmap import CellState, OccupancyGrid
from navbench.suitegen import build_default_suite, propose_agent_routes, propose_pairs
from navbench.world import load_scenario

STATIC = ("office", "house", "maze", "corridor_u", "corridor_acute")
SCENES = (*STATIC, "office_masked", "office_dynamic", "crowd")


def _files(root):
    return {name: (root / name).read_bytes() for name in os.listdir(root)}


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """Two builds at one seed: (files of the first, files of the second,
    {scene name: Scenario} loaded from the first's manifest)."""
    roots = [tmp_path_factory.mktemp(f"suite{k}") for k in range(2)]
    manifests = [build_default_suite(str(root), seed=3, pairs_per_scene=1) for root in roots]
    scenes = {}
    for _, path in harness.parse_suite(manifests[0]):
        scn = load_scenario(path)
        scenes[scn.name] = scn
    return _files(roots[0]), _files(roots[1]), scenes


def test_same_seed_gives_the_same_files(suite):
    first, second, _ = suite
    assert {"benchmark.suite", *(f"{name}.scene" for name in SCENES)} <= set(first)
    assert first == second


def test_pair_and_agent_counts(suite):
    _, _, scenes = suite
    assert sorted(scenes) == sorted(SCENES)
    pairs = {name: len(scn.start_goal_pairs) for name, scn in scenes.items()}
    assert pairs == {**{name: 1 for name in STATIC},
                     "office_masked": 2, "office_dynamic": 2, "crowd": 2}
    agents = {name: len(scn.agents) for name, scn in scenes.items()}
    assert agents == {**{name: 0 for name in STATIC}, "office_masked": 0,
                      "office_dynamic": 2, "crowd": 6}


def test_agents_start_clear_of_every_start(suite):
    _, _, scenes = suite
    checked = 0
    for scn in scenes.values():
        for agent in scn.agents:
            ax, ay = agent.waypoints[0]
            for (sx, sy, _), _ in scn.start_goal_pairs:
                assert math.hypot(ax - sx, ay - sy) >= 1.5
                checked += 1
    assert checked == 2 * 2 + 6 * 2


def test_masked_starts_lie_outside_the_mask(suite):
    _, _, scenes = suite
    scn = scenes["office_masked"]
    (rx, ry, rw, rh), = scn.masks
    for (sx, sy, _), _ in scn.start_goal_pairs:
        assert not (rx <= sx <= rx + rw and ry <= sy <= ry + rh)


def test_a_grid_without_clear_space_is_a_validation_error():
    cells = np.full((20, 20), CellState.OCCUPIED, dtype=np.uint8)
    cells[10, 10] = CellState.FREE  # one clear cell cannot give two ends
    grid = OccupancyGrid(20, 20, 0.1, (0.0, 0.0), cells)
    with pytest.raises(ValidationError, match="too little clear space"):
        propose_pairs(grid, 1, 0, min_euclid=0.5, max_path=5.0)
    with pytest.raises(ValidationError, match="too little clear space"):
        propose_agent_routes(grid, 1, 0, ())
