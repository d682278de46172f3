"""An agent's position is a function of trial time.  Its route is derived
once; positions read it and equal, bit for bit, the per-call polyline formula
they replace, and the stamps a trial makes equal those of agents whose arc is
stepped with the physics."""

import numpy as np
import pytest

from navbench import harness
from navbench.gridmap import OccupancyGrid
from navbench.suitegen import build_default_suite
from navbench.world import DynamicAgent, load_scenario, stamp_agents


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    manifest = build_default_suite(str(root), seed=0, pairs_per_scene=1)
    return {scn.name: scn for scn in
            (load_scenario(path) for _, path in harness.parse_suite(manifest))}


def _reference_segments(agent):
    pts = list(agent.waypoints)
    if agent.mode == "loop":
        pts.append(pts[0])
    pts = np.asarray(pts)
    deltas = np.diff(pts, axis=0)
    lengths = np.linalg.norm(deltas, axis=1)
    return pts, deltas, lengths


def _reference_position(agent, arc):
    """Where the agent stands `arc` metres along its route from the start."""
    pts, deltas, lengths = _reference_segments(agent)
    total = lengths.sum()
    if agent.mode == "loop":
        s = arc % total
    else:
        m = arc % (2.0 * total)
        s = 2.0 * total - m if m > total else m
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    i = int(np.searchsorted(cum, s, side="right")) - 1
    i = min(max(i, 0), len(lengths) - 1)
    frac = (s - cum[i]) / lengths[i]
    p = pts[i] + frac * deltas[i]
    return (float(p[0]), float(p[1]))


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("mode", ["loop", "ping_pong"])
@pytest.mark.parametrize("speed, dt", [
    (0.5, 0.25),   # 0.125 m steps land exactly on every waypoint
    (0.6, 0.05),   # the suite's agent speed and physics step
])
def test_positions_equal_the_per_call_formula(mode, speed, dt):
    agents = [DynamicAgent(0.2, speed, ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.5, 1.0)), mode),
              DynamicAgent(0.3, speed, ((1.0, 3.0), (4.25, 3.0)), mode)]
    on_waypoint = 0
    t = 0.0
    for _ in range(500):
        t += dt
        for a in agents:
            p = a.position(t)
            assert _bits(*p) == _bits(*_reference_position(a, a.speed * t))
            on_waypoint += p in a.waypoints
    if dt == 0.25:
        assert on_waypoint >= 10


def test_a_route_is_derived_once_across_stamps(monkeypatch):
    norm = np.linalg.norm
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    # routes that no other test uses, so neither is derived before this test
    agents = [DynamicAgent(0.25, 0.6, ((1.03125, 1.5), (3.03125, 1.5)), "ping_pong"),
              DynamicAgent(0.25, 0.6, ((1.03125, 1.5), (3.03125, 1.5), (3.03125, 2.5)),
                           "loop")]
    grid = OccupancyGrid.full_free(50, 40, 0.1)
    for k in range(40):
        stamp_agents(grid, agents, k * 0.05)
    assert len(calls) == len(agents)


class _Stepped:
    """An agent as trials once moved it: an arc advanced by speed*dt and
    folded into [0, period) on every physics step."""

    def __init__(self, agent):
        self.agent, self.radius, self.arc = agent, agent.radius, 0.0
        total = float(_reference_segments(agent)[2].sum())
        self.period = total if agent.mode == "loop" else 2.0 * total

    def step(self, dt):
        self.arc = (self.arc + self.agent.speed * dt) % self.period

    def position(self, _t):
        return _reference_position(self.agent, self.arc)


@pytest.mark.parametrize("name", ["office_dynamic", "crowd"])
def test_stamps_at_trial_time_equal_the_stepped_stamps(scenes, name):
    scn = scenes[name]
    cfg = harness.TrialConfig()
    substeps = round(cfg.control_period / cfg.physics_dt)
    stepped = [_Stepped(a) for a in scn.agents]
    t = 0.0
    for _ in range(1500):  # the 300 s default timeout
        got = stamp_agents(scn.map, scn.agents, t)
        want = stamp_agents(scn.map, stepped, None)
        assert np.array_equal(got.cells, want.cells)
        for _ in range(substeps):
            for a in stepped:
                a.step(cfg.physics_dt)
        t += cfg.control_period


def test_a_trial_stamps_its_scenes_agents_at_each_ticks_start(scenes, monkeypatch):
    scn = scenes["crowd"]
    calls = []
    stamp = harness.stamp_agents

    def stamping(grid, agents, t):
        calls.append((agents, t))
        return stamp(grid, agents, t)

    monkeypatch.setattr(harness, "stamp_agents", stamping)
    cfg = harness.TrialConfig(compute_cost_mode="iterations",
                              timeout=10 * harness.TrialConfig.control_period)
    result = harness.run_trial(scn, "dwa", 0, cfg)
    starts = [0.0]
    for _ in range(len(result.log) - 1):
        starts.append(starts[-1] + cfg.control_period)
    assert len(result.log) == 10
    assert all(agents is scn.agents for agents, _ in calls)
    assert [t for _, t in calls] == starts
