import math

import numpy as np
import pytest

from navbench.errors import PlanInputError
from navbench.global_planner import GlobalPath
from navbench.gridmap import (CellState, OccupancyGrid, distance_at_clamped,
                              distance_transform, UnknownAs)
from navbench.local_planners import (DwaConfig, LocalPlanRequest, PlannerStatus,
                                     dwa_plan, dynamic_window, forward_simulate,
                                     score_components, trajectory_min_clearance)
from navbench.robot import KinematicLimits, RobotState, VelocityCommand, wrap_angle

LIMITS = KinematicLimits()


def make_request(grid=None, robot=None, reference=None, goal=None, **kw):
    if grid is None:
        grid = OccupancyGrid.full_free(55, 55, 0.1)
    if robot is None:
        robot = RobotState(2.75, 2.75, 0.0)
    if reference is None:
        pts = ((robot.x, robot.y), (grid.size_x - 0.5, robot.y))
        reference = GlobalPath(pts, pts[1][0] - pts[0][0])
    if goal is None:
        last = reference.points[-1]
        goal = (last[0], last[1], 0.0)
    field = distance_transform(grid, UnknownAs.OCCUPIED)
    return LocalPlanRequest(grid, field, robot, reference, goal, LIMITS, 0.2, **kw)


def test_open_room_drives_straight():
    req = make_request()
    out = dwa_plan(req, DwaConfig())
    assert out.status is PlannerStatus.OK
    assert out.cmd.omega == 0.0
    assert out.cmd.v > 0.0


def test_boxed_in_recovers_with_rotation():
    grid = OccupancyGrid.full_free(55, 55, 0.1)
    cells = np.array(grid.cells)
    cells[:, :] = CellState.OCCUPIED
    cells[27:29, 27:29] = CellState.FREE  # 0.2 m pocket: everything collides
    grid = grid.with_cells(cells)
    req = make_request(grid=grid, robot=RobotState(2.75, 2.75, 0.0))
    out = dwa_plan(req, DwaConfig())
    assert out.status is PlannerStatus.INFEASIBLE
    assert out.cmd.v == 0.0


def test_empty_reference_rejected():
    req = make_request()
    bad = LocalPlanRequest(req.local_map, req.local_field, req.robot,
                           GlobalPath((), 0.0), req.goal, LIMITS, 0.2)
    with pytest.raises(PlanInputError):
        dwa_plan(bad, DwaConfig())


def exhaustive_oracle(req, cfg):
    """Re-score every lattice sample independently; returns the winning
    command or None when everything collides."""
    v_lo, v_hi, w_lo, w_hi = dynamic_window(req)
    vs = np.linspace(v_lo, v_hi, cfg.n_v)
    ws = np.linspace(w_lo, w_hi, cfg.n_omega)
    n_steps = int(round(cfg.sim_horizon / cfg.sim_dt))
    best = None
    best_score = -math.inf
    for v in vs:
        for w in ws:
            traj = forward_simulate(req.robot, float(v), float(w), n_steps, cfg.sim_dt)
            if trajectory_min_clearance(traj, req) < req.limits.radius:
                continue
            h, c, vel = score_components(traj, req)
            s = cfg.w_heading * h + cfg.w_clearance * c + cfg.w_velocity * vel
            if s > best_score:
                best_score = s
                best = (float(v), float(w))
    return best


def random_request(rng):
    grid = OccupancyGrid.full_free(30, 30, 0.1)
    cells = np.array(grid.cells)
    n_obs = rng.integers(0, 12)
    for _ in range(n_obs):
        ix, iy = rng.integers(2, 28, size=2)
        cells[iy, ix] = CellState.OCCUPIED
    grid = grid.with_cells(cells)
    robot = RobotState(float(rng.uniform(1.0, 2.0)), float(rng.uniform(1.0, 2.0)),
                       float(rng.uniform(-math.pi, math.pi)),
                       float(rng.uniform(LIMITS.v_min, LIMITS.v_max)),
                       float(rng.uniform(LIMITS.omega_min, LIMITS.omega_max)))
    ang = rng.uniform(-math.pi, math.pi)
    gx = min(max(robot.x + 1.2 * math.cos(ang), 0.2), 2.8)
    gy = min(max(robot.y + 1.2 * math.sin(ang), 0.2), 2.8)
    ref = GlobalPath(((robot.x, robot.y), (gx, gy)),
                     math.hypot(gx - robot.x, gy - robot.y))
    field = distance_transform(grid, UnknownAs.OCCUPIED)
    return LocalPlanRequest(grid, field, robot, ref, (gx, gy, 0.0), LIMITS, 0.2)


def test_random_requests_match_exhaustive_oracle(rng):
    cfg = DwaConfig(n_v=5, n_omega=7, sim_horizon=0.8, sim_dt=0.1)
    checked = 0
    for _ in range(150):
        req = random_request(rng)
        out = dwa_plan(req, cfg)
        expected = exhaustive_oracle(req, cfg)
        if expected is None:
            assert out.status is PlannerStatus.INFEASIBLE
            continue
        assert out.status is PlannerStatus.OK
        assert (out.cmd.v, out.cmd.omega) == expected
        checked += 1
        # returned command inside the dynamic window
        v_lo, v_hi, w_lo, w_hi = dynamic_window(req)
        assert v_lo - 1e-12 <= out.cmd.v <= v_hi + 1e-12
        assert w_lo - 1e-12 <= out.cmd.omega <= w_hi + 1e-12
        # returned trajectory collision-free at sampling resolution
        assert trajectory_min_clearance(out.trajectory, req) >= req.limits.radius
    assert checked > 50


def test_score_components_contracts(rng):
    req = make_request()
    # trajectory ending aligned with the bearing to the lookahead scores 1.0
    traj = forward_simulate(req.robot, 0.4, 0.0, 8, 0.1)
    h, c, vel = score_components(traj, req)
    assert h == pytest.approx(1.0)
    assert c == 1.0  # empty map: clearance saturates at d_safe
    # velocity recovered from the rollout chord matches the sampled v
    assert vel == pytest.approx(0.4 / LIMITS.v_max, rel=1e-9)


def test_heading_score_aims_at_the_request_goal():
    """The heading term scores the bearing to `req.goal`, not to the end of
    `reference`: here the goal lies north of the robot, the reference east."""
    req = make_request(robot=RobotState(2.75, 2.75, math.pi / 2), goal=(2.75, 5.0, 0.0))
    assert req.reference.points[-1] == (5.0, 2.75)
    traj = forward_simulate(req.robot, 0.4, 0.0, 8, 0.1)
    h, _, _ = score_components(traj, req)
    assert h == pytest.approx(1.0)


def test_score_components_independent_recompute(rng):
    for _ in range(30):
        req = random_request(rng)
        v = float(rng.uniform(LIMITS.v_min, LIMITS.v_max))
        w = float(rng.uniform(-1, 1))
        traj = forward_simulate(req.robot, v, w, 8, 0.1)
        h, c, vel = score_components(traj, req)

        # from-scratch recomputation of each term
        tx, ty, tth = req.goal
        fx, fy, fth = traj[-1, 0], traj[-1, 1], traj[-1, 2]
        if math.hypot(tx - fx, ty - fy) < 1e-9:
            bearing = tth
        else:
            bearing = math.atan2(ty - fy, tx - fx)
        h2 = 1.0 - abs(wrap_angle(bearing - fth)) / math.pi
        mind = min(distance_at_clamped(req.local_field, px, py)
                   for px, py in zip(traj[:, 0], traj[:, 1]))
        c2 = min(mind, req.d_safe) / req.d_safe
        chord = math.hypot(traj[1, 0] - traj[0, 0], traj[1, 1] - traj[0, 1])
        dphi = abs(wrap_angle(traj[1, 2] - traj[0, 2]))
        speed = chord / 0.1 if dphi < 1e-9 else (chord / 0.1) * (dphi / 2) / math.sin(dphi / 2)
        v2 = min(1.0, speed / LIMITS.v_max)

        assert h == pytest.approx(max(0.0, min(1.0, h2)), abs=1e-12)
        assert c == pytest.approx(max(0.0, min(1.0, c2)), abs=1e-12)
        assert vel == pytest.approx(v2, abs=1e-12)


def test_terminal_rotation_near_goal():
    robot = RobotState(2.75, 2.75, 0.0)
    req = make_request(robot=robot, goal=(2.78, 2.75, 1.5))
    out = dwa_plan(req, DwaConfig())
    assert out.status is PlannerStatus.OK
    assert out.cmd.v == 0.0
    assert out.cmd.omega > 0.0  # rotating toward the goal yaw
