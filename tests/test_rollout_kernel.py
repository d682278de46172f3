"""The batched DWA rollout kernel against per-candidate scalar references.

Equality here is bitwise (`==`, `tobytes`), not approximate: the simulated
rows of a trial must not move when the lattice is scored in one array pass.
"""

import math

import numpy as np
import pytest

import navbench.local_planners.common as common
from navbench.global_planner import GlobalPath
from navbench.gridmap import CellState, OccupancyGrid, UnknownAs, distance_transform
from navbench.local_planners import (DwaConfig, LocalPlanRequest, PlannerStatus,
                                     dwa_plan, dynamic_window, forward_simulate,
                                     recovery_output, score_components,
                                     trajectory_min_clearance)
from navbench.robot import (KinematicLimits, RobotState, VelocityCommand, step,
                            wrap_angle)

LIMITS = KinematicLimits()


def chained_steps(state, v, w, n_steps, dt):
    out = [(state.x, state.y, state.theta, 0.0)]
    s = state
    for k in range(1, n_steps + 1):
        s = step(s, VelocityCommand(v, w), dt)
        out.append((s.x, s.y, s.theta, k * dt))
    return np.array(out)


@pytest.mark.parametrize("theta", [0.0, math.pi - 1e-9, -math.pi + 1e-9, math.pi, 2.5])
def test_lattice_rollout_equals_chained_steps(theta, rng):
    state = RobotState(1.3, -0.7, theta)
    vs = np.concatenate([[0.0, 0.4, -0.2, 0.55], rng.uniform(-0.2, 0.55, 40)])
    ws = np.concatenate([[0.0, 1e-13, -1e-13, 1.0], rng.uniform(-1.0, 1.0, 40)])
    vv, ww = (a.ravel() for a in np.meshgrid(vs, ws, indexing="ij"))
    batch = forward_simulate(state, vv, ww, 16, 0.1)
    assert batch.shape == (vv.size, 17, 4)
    for b in range(vv.size):
        ref = chained_steps(state, float(vv[b]), float(ww[b]), 16, 0.1)
        assert batch[b].tobytes() == ref.tobytes(), (vv[b], ww[b])
    single = forward_simulate(state, float(vv[5]), float(ww[5]), 16, 0.1)
    assert single.shape == (17, 4)
    assert single.tobytes() == batch[5].tobytes()


def _round_wrap(theta):
    """The scalar wrap in plain Python arithmetic."""
    r = theta - 2.0 * math.pi * round(theta / (2.0 * math.pi))
    if r <= -math.pi:
        r += 2.0 * math.pi
    elif r > math.pi:
        r -= 2.0 * math.pi
    return r


def test_wrap_angle_elementwise_matches_scalar(rng):
    special = [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi,
               2 * math.pi, 1e-300, -1e-300, 1e6, -1e6]
    thetas = np.concatenate([special, rng.uniform(-20.0, 20.0, 2000)])
    wrapped = wrap_angle(thetas)
    for t, w in zip(thetas, wrapped):
        scalar = wrap_angle(float(t))
        assert type(scalar) is float
        assert math.copysign(1.0, scalar) == math.copysign(1.0, _round_wrap(float(t)))
        assert scalar == _round_wrap(float(t)) == w


def test_batched_scores_equal_scalar_formulas(rng):
    """Bearing and chord use math.atan2 / math.hypot per element: numpy's
    versions round differently on a fraction of inputs."""
    for _ in range(10):
        req = random_request(rng)
        vv = rng.uniform(LIMITS.v_min, LIMITS.v_max, 60)
        ww = rng.uniform(-1.0, 1.0, 60)
        trajs = forward_simulate(req.robot, vv, ww, 8, 0.1)
        h, c, vel = score_components(trajs, req)
        tx, ty, _ = req.goal
        for b, traj in enumerate(trajs):
            fx, fy, fth = traj[-1, :3]
            bearing = math.atan2(ty - fy, tx - fx)
            heading = 1.0 - abs(_round_wrap(float(bearing - fth))) / math.pi
            assert h[b] == min(max(heading, 0.0), 1.0)
            assert c[b] == min(trajectory_min_clearance(traj, req), req.d_safe) / req.d_safe
            chord = math.hypot(traj[1, 0] - traj[0, 0], traj[1, 1] - traj[0, 1])
            half = abs(_round_wrap(float(traj[1, 2] - traj[0, 2]))) / 2.0
            speed = (chord / 0.1) * half / np.sin(half)
            assert vel[b] == min(1.0, speed / LIMITS.v_max)
            assert (h[b], c[b], vel[b]) == score_components(traj, req)


# -- dwa_plan against an in-test per-candidate scan ------------------------

def reference_rollout(req, v, w, n_steps, dt):
    """Scalar rollout cut at its closest approach to the goal."""
    traj = forward_simulate(req.robot, v, w, n_steps, dt)
    d = np.hypot(traj[:, 0] - req.goal[0], traj[:, 1] - req.goal[1])
    k = int(np.argmin(d))
    if k < len(traj) - 1 and d[k] < d[-1]:
        traj = traj[:max(k, 1) + 1]
    return traj


def reference_plan(req, cfg):
    """(cmd, trajectory, iterations, status) from a strict `>` scan, v-major."""
    v_lo, v_hi, w_lo, w_hi = dynamic_window(req)
    vs = np.linspace(v_lo, v_hi, cfg.n_v)
    ws = np.linspace(w_lo, w_hi, cfg.n_omega)
    n_steps = int(round(cfg.sim_horizon / cfg.sim_dt))
    best, best_score, simulated = None, -np.inf, 0
    for v in vs:
        for w in ws:
            simulated += 1
            traj = reference_rollout(req, float(v), float(w), n_steps, cfg.sim_dt)
            if trajectory_min_clearance(traj, req) < req.limits.radius:
                continue
            h, c, vel = score_components(traj, req)
            score = cfg.w_heading * h + cfg.w_clearance * c + cfg.w_velocity * vel
            if score > best_score:
                best_score, best = score, (float(v), float(w), traj)
    if best is None:
        out = recovery_output(req, 0.0, simulated)
        return out.cmd, out.trajectory, simulated, PlannerStatus.INFEASIBLE
    v, w, traj = best
    return VelocityCommand(v, w), tuple(map(tuple, traj)), simulated, PlannerStatus.OK


def random_request(rng):
    grid = OccupancyGrid.full_free(30, 30, 0.1)
    cells = np.array(grid.cells)
    for _ in range(rng.integers(0, 40)):
        ix, iy = rng.integers(1, 29, size=2)
        cells[iy, ix] = CellState.OCCUPIED
    robot = RobotState(float(rng.uniform(0.8, 2.2)), float(rng.uniform(0.8, 2.2)),
                       float(rng.uniform(-math.pi, math.pi)),
                       float(rng.uniform(LIMITS.v_min, LIMITS.v_max)),
                       float(rng.uniform(LIMITS.omega_min, LIMITS.omega_max)))
    if rng.random() < 0.15:  # wall the robot in: every rollout collides
        ix, iy = int(robot.x / 0.1), int(robot.y / 0.1)
        cells[iy - 2:iy + 3, ix - 2:ix + 3] = CellState.OCCUPIED
        cells[iy, ix] = CellState.FREE
    grid = grid.with_cells(cells)
    # goals from just outside the terminal tolerance to beyond the horizon,
    # so that many rollouts are cut at their closest approach
    ang, dist = rng.uniform(-math.pi, math.pi), rng.uniform(0.15, 1.5)
    gx = min(max(robot.x + dist * math.cos(ang), 0.2), 2.8)
    gy = min(max(robot.y + dist * math.sin(ang), 0.2), 2.8)
    if math.hypot(gx - robot.x, gy - robot.y) <= 0.1:
        gx = robot.x + 0.15 if robot.x < 1.5 else robot.x - 0.15
    ref = GlobalPath(((robot.x, robot.y), (gx, gy)),
                     math.hypot(gx - robot.x, gy - robot.y))
    field = distance_transform(grid, UnknownAs.OCCUPIED)
    return LocalPlanRequest(grid, field, robot, ref, (gx, gy, 0.0), LIMITS, 0.2)


CONFIGS = (
    DwaConfig(n_v=5, n_omega=7, sim_horizon=0.8, sim_dt=0.1),
    DwaConfig(n_v=4, n_omega=5, sim_horizon=1.6, sim_dt=0.1),
    # clearance alone saturates in open space: ties everywhere
    DwaConfig(n_v=3, n_omega=5, sim_horizon=0.5, sim_dt=0.1,
              w_heading=0.0, w_clearance=1.0, w_velocity=0.0),
)


def test_dwa_plan_equals_per_candidate_scan(rng):
    statuses = []
    for i in range(150):
        req = random_request(rng)
        cfg = CONFIGS[i % len(CONFIGS)]
        out = dwa_plan(req, cfg)
        cmd, traj, iterations, status = reference_plan(req, cfg)
        assert (out.cmd, out.trajectory, out.iterations, out.status) == \
            (cmd, traj, iterations, status), i
        statuses.append(status)
    assert statuses.count(PlannerStatus.INFEASIBLE) >= 5
    assert statuses.count(PlannerStatus.OK) >= 100


def test_default_lattice_equals_per_candidate_scan(rng):
    for _ in range(8):
        req = random_request(rng)
        out = dwa_plan(req, DwaConfig())
        cmd, traj, iterations, status = reference_plan(req, DwaConfig())
        assert (out.cmd, out.trajectory, out.iterations, out.status) == \
            (cmd, traj, iterations, status)


def test_one_rollout_call_and_two_field_samples_per_plan(rng, monkeypatch):
    calls = {"forward_simulate": 0, "sample_field": 0}

    def counting(name):
        fn = getattr(common, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(common, name, counting(name))
    seen = set()
    for _ in range(30):
        req = random_request(rng)
        for key in calls:
            calls[key] = 0
        out = dwa_plan(req, DwaConfig())
        seen.add(out.status)
        assert calls["forward_simulate"] == 1
        assert calls["sample_field"] <= 2
    assert seen == {PlannerStatus.OK, PlannerStatus.INFEASIBLE}


def test_dwa_plan_samples_the_field_once(rng, monkeypatch):
    """score_components' clearance sample is also the collision filter's, so
    a plan samples the field once; a plan that finds no admissible candidate
    adds only recovery_output's check of the robot's pose."""
    calls = []
    sample_field = common.sample_field
    monkeypatch.setattr(common, "sample_field",
                        lambda *args, **kw: calls.append(1) or sample_field(*args, **kw))
    statuses = []
    for i in range(60):
        req = random_request(rng)
        cfg = CONFIGS[i % len(CONFIGS)]
        assert common.terminal_output(req, 0.0) is None
        calls.clear()
        out = dwa_plan(req, cfg)
        assert len(calls) == (1 if out.status is PlannerStatus.OK else 2), i
        assert (out.cmd, out.trajectory, out.iterations, out.status) == reference_plan(req, cfg)
        statuses.append(out.status)
    assert statuses.count(PlannerStatus.INFEASIBLE) >= 3
    assert statuses.count(PlannerStatus.OK) >= 40
