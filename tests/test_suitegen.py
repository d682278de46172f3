"""The generated benchmark suite end to end: reproducible bytes, scenes that
load through full validation, and the pair, agent and keep-out rules of
`build_default_suite`."""

import math
import os

import pytest

from navbench import harness
from navbench.suitegen import build_default_suite
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
