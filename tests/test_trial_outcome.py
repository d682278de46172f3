"""How `run_trial` judges a tick: collision, planner failure, leaving the map,
success and timeout, in that order of precedence, in small hand-built scenes
whose local planner is replaced by a fixed command."""

import math

import numpy as np
import pytest

from navbench import harness
from navbench.errors import BenchError
from navbench.gridmap import OCCUPIED, OccupancyGrid
from navbench.local_planners import PlannerOutput, PlannerStatus
from navbench.metrics import Outcome
from navbench.robot import KinematicLimits, VelocityCommand, wrap_angle
from navbench.world import Scenario

RADIUS = KinematicLimits.radius
CFG = harness.TrialConfig(compute_cost_mode="iterations", timeout=20.0, recovery_budget=3)


def _room(walled=True):
    """A 4 m x 3 m room at 0.1 m cells, walled on all four sides unless not."""
    cells = np.zeros((30, 40), dtype=np.uint8)
    if walled:
        cells[[0, -1], :] = OCCUPIED
        cells[:, [0, -1]] = OCCUPIED
    return OccupancyGrid(40, 30, 0.1, (0.0, 0.0), cells)


def _scene(start, goal, walled=True):
    return Scenario(name="room", map=_room(walled), start_goal_pairs=((start, goal),))


def _fixed_plan(monkeypatch, v, omega, status=PlannerStatus.OK):
    """Every local plan returns the command (v, omega) with `status`."""
    def fixed(name, req, cfg=None):
        r = req.robot
        return PlannerOutput(VelocityCommand(v, omega), ((r.x, r.y, r.theta, 0.0),),
                             0.0, 1, status)
    monkeypatch.setattr(harness, "plan", fixed)


def _in_tolerance(rec, goal, cfg):
    return (math.hypot(goal[0] - rec.x, goal[1] - rec.y) <= cfg.goal_pos_tol
            and abs(wrap_angle(goal[2] - rec.theta)) <= cfg.goal_yaw_tol)


def test_always_infeasible_is_a_planner_failure_after_the_budget(monkeypatch):
    _fixed_plan(monkeypatch, 0.0, 0.0, PlannerStatus.INFEASIBLE)
    result = harness.run_trial(_scene((1.0, 1.5, 0.0), (3.0, 1.5, 0.0)), "dwa", 0, CFG)
    assert result.outcome is Outcome.PLANNER_FAILURE
    assert len(result.log) == CFG.recovery_budget + 1


def test_driving_into_a_wall_is_a_collision(monkeypatch):
    _fixed_plan(monkeypatch, 0.5, 0.0)
    result = harness.run_trial(_scene((1.5, 1.5, math.pi), (3.0, 1.5, 0.0)), "dwa", 0, CFG)
    assert result.outcome is Outcome.COLLISION
    assert result.log.records[-1].d < RADIUS
    assert all(rec.d >= RADIUS for rec in result.log.records[:-1])


def test_driving_off_an_unwalled_grid_is_a_collision(monkeypatch):
    _fixed_plan(monkeypatch, 0.5, 0.0)
    scn = _scene((0.6, 1.5, math.pi), (3.0, 1.5, 0.0), walled=False)
    result = harness.run_trial(scn, "dwa", 0, CFG)
    assert result.outcome is Outcome.COLLISION
    last = result.log.records[-1]
    assert not scn.map.contains(last.x, last.y)
    assert all(scn.map.contains(rec.x, rec.y) for rec in result.log.records[:-1])


def test_a_tick_both_infeasible_and_in_collision_is_a_collision(monkeypatch):
    """Driving into the wall while infeasible, with a recovery budget that
    runs out on the tick that collides: collision comes first."""
    scn = _scene((1.5, 1.5, math.pi), (3.0, 1.5, 0.0))
    _fixed_plan(monkeypatch, 0.5, 0.0)
    ticks = len(harness.run_trial(scn, "dwa", 0, CFG).log)
    _fixed_plan(monkeypatch, 0.5, 0.0, PlannerStatus.INFEASIBLE)
    cfg = harness.TrialConfig(compute_cost_mode="iterations", timeout=20.0,
                              recovery_budget=ticks - 1)
    result = harness.run_trial(scn, "dwa", 0, cfg)
    assert result.outcome is Outcome.COLLISION
    assert len(result.log) == ticks
    assert result.log.records[-1].d < RADIUS


def test_driving_onto_the_goal_is_a_success(monkeypatch):
    _fixed_plan(monkeypatch, 0.3, 0.0)
    goal = (2.0, 1.5, 0.0)
    result = harness.run_trial(_scene((1.0, 1.5, 0.0), goal), "dwa", 0, CFG)
    assert result.outcome is Outcome.SUCCESS
    inside = [_in_tolerance(rec, goal, CFG) for rec in result.log.records]
    assert inside.index(True) == len(inside) - 1


def test_a_start_off_the_map_raises():
    with pytest.raises(BenchError):
        harness.run_trial(_scene((-1.0, 1.5, 0.0), (3.0, 1.5, 0.0)), "dwa", 0, CFG)


@pytest.mark.parametrize("planner", ["dwa", "teb"])
def test_a_trial_that_starts_at_its_goal_runs_one_tick(planner):
    """Its one record is a real tick's, at the end of the first control
    period: the planner holds the robot or turns it onto the goal yaw."""
    goal = (2.05, 1.5, 0.1)
    result = harness.run_trial(_scene((2.0, 1.5, 0.0), goal), planner, 0, CFG)
    assert result.outcome is Outcome.SUCCESS
    assert [rec.t for rec in result.log.records] == [CFG.control_period]
    assert _in_tolerance(result.log.records[0], goal, CFG)
