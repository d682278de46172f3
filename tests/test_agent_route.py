"""An agent's route is derived once: positions and steps read it and equal,
bit for bit, the per-call polyline formulas they replace."""

import numpy as np
import pytest

from navbench.gridmap import OccupancyGrid
from navbench.world import DynamicAgent, stamp_agents, step_agents


def _reference_segments(agent):
    pts = list(agent.waypoints)
    if agent.mode == "loop":
        pts.append(pts[0])
    pts = np.asarray(pts)
    deltas = np.diff(pts, axis=0)
    lengths = np.linalg.norm(deltas, axis=1)
    return pts, deltas, lengths


def _reference_position(agent):
    pts, deltas, lengths = _reference_segments(agent)
    total = lengths.sum()
    if agent.mode == "loop":
        s = agent.arc % total
    else:
        m = agent.arc % (2.0 * total)
        s = 2.0 * total - m if m > total else m
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    i = int(np.searchsorted(cum, s, side="right")) - 1
    i = min(max(i, 0), len(lengths) - 1)
    frac = (s - cum[i]) / lengths[i]
    p = pts[i] + frac * deltas[i]
    return (float(p[0]), float(p[1]))


def _reference_arc(agent, dt):
    total = float(_reference_segments(agent)[2].sum())
    period = total if agent.mode == "loop" else 2.0 * total
    return (agent.arc + agent.speed * dt) % period


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("mode", ["loop", "ping_pong"])
@pytest.mark.parametrize("speed, dt", [
    (0.5, 0.25),   # 0.125 m steps land exactly on every waypoint
    (0.6, 0.05),   # the suite's agent speed and physics step
])
def test_steps_and_positions_equal_the_per_call_formulas(mode, speed, dt):
    agents = [DynamicAgent(0.2, speed, ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.5, 1.0)), mode),
              DynamicAgent(0.3, speed, ((1.0, 3.0), (4.25, 3.0)), mode)]
    on_waypoint = 0
    for _ in range(500):
        arcs = [_reference_arc(a, dt) for a in agents]
        agents = step_agents(agents, dt)
        for a, arc in zip(agents, arcs):
            assert _bits(a.arc) == _bits(arc)
            assert _bits(*a.position) == _bits(*_reference_position(a))
            on_waypoint += a.position in a.waypoints
    if dt == 0.25:
        assert on_waypoint >= 10


def test_a_route_is_derived_once_across_steps_and_stamps(monkeypatch):
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
    for _ in range(40):
        stamp_agents(grid, agents)
        agents = step_agents(agents, 0.05)
    assert len(calls) == len(agents)
