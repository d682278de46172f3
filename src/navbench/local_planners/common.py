"""Shared local-planner interface: request/output types, trajectory scoring,
and the rotate-in-place recovery used when a planner reports infeasibility.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import PlanInputError, ValidationError
from ..global_planner import GlobalPath
from ..gridmap import DistanceField, OccupancyGrid, sample_field
from ..robot import (KinematicLimits, RobotState, VelocityCommand,
                     arc_terms, clamp_command, wrap_angle)


class PlannerStatus(enum.Enum):
    OK = "ok"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LocalPlanRequest:
    """Everything a local planner sees for one control cycle: `reference` is
    the path to follow, and `goal` is the pose the planners aim at (the run
    loop's lookahead on `reference`, or the trial goal at the path end).
    `local_field` covers `local_map`: the run loop passes the window of its
    sensed field over the crop, or the crop's own transform with Unknown as
    Occupied when the crop holds Unknown cells."""

    local_map: OccupancyGrid
    local_field: DistanceField
    robot: RobotState
    reference: GlobalPath
    goal: tuple[float, float, float]
    limits: KinematicLimits
    dt_control: float = 0.2
    d_safe: float = 0.34     # clearance cap used by trajectory scoring
    goal_tol: float = 0.1    # position radius for the terminal rotate/stop

    def __post_init__(self):
        if not self.local_map.contains(self.robot.x, self.robot.y):
            raise ValidationError("robot pose outside the local map")
        if self.dt_control <= 0:
            raise ValidationError("dt_control must be positive")


@dataclass(frozen=True)
class PlannerOutput:
    cmd: VelocityCommand
    trajectory: tuple            # (x, y, theta, t) tuples, starts at the robot pose
    compute_ms: float            # wall-clock planning time
    iterations: int              # deterministic work count (samples / solver evals)
    status: PlannerStatus
    objective_trace: tuple | None = None  # TEB: objective after each accepted step

    def compute_cost(self, mode: str) -> float:
        if mode == "wallclock":
            return self.compute_ms
        if mode == "iterations":
            return float(self.iterations)
        raise ValueError(f"unknown compute-cost mode {mode!r}")


def forward_simulate(state: RobotState, v, omega, n_steps: int, dt: float) -> np.ndarray:
    """Roll constant commands out with exact arc steps from the current pose.

    Scalar (v, omega) give an (n_steps + 1, 4) array of (x, y, theta, t);
    arrays give S + (n_steps + 1, 4), S their broadcast shape.  A heading
    depends only on theta0 and omega, so the headings, their wraps and the
    cos/sin of theta + half are computed at omega's own shape, and only the
    chords and positions at S: a lattice passed as a (n_v, 1) speed axis and
    an (n_omega,) turn axis builds n_omega heading rows, not n_v * n_omega.

    The chained `arc_step`s are running sums (`np.add.accumulate`, which adds
    in order): headings from theta0 over the turns, positions from (x0, y0)
    over the chord increments.  `wrap_angle` returns |theta| < pi unchanged,
    and pi itself, so poses equal the chained steps bit for bit once each
    heading after theta0 outside (-pi, pi] is wrapped and the later turns are
    re-added to it: one pass per wrap over the rollouts that still have one.
    """
    omega = np.asarray(omega)
    half, chord, turn = arc_terms(v, omega, dt)
    out = np.empty(np.shape(chord) + (n_steps + 1, 4))
    out[..., 3] = np.arange(n_steps + 1) * dt
    th = np.empty(omega.shape + (n_steps + 1,))
    th[..., 0] = state.theta
    th[..., 1:] = turn[..., None]
    np.add.accumulate(th, axis=-1, out=th)
    redo = (np.abs(th[..., 1:]) >= math.pi).any(axis=-1)  # may wrap
    if redo.any():  # a 0-d mask indexes as one rollout
        rows, turns = th[redo], np.asarray(turn)[redo]
        cols = np.arange(n_steps + 1)
        done = np.zeros(len(rows), dtype=np.intp)  # per rollout: its last wrapped column
        live = np.arange(len(rows))
        while True:  # wrap the next heading outside (-pi, pi] of each live rollout
            cur = rows[live]
            over = ((cur > math.pi) | (cur <= -math.pi)) & (cols > done[live, None])
            has = over.any(axis=-1)
            if not has.any():
                break
            live, cur, k = live[has], cur[has], over[has].argmax(axis=-1)
            at_k = (np.arange(live.size), k)
            seq = np.where(cols > k[:, None], turns[live, None], 0.0)
            seq[at_k] = wrap_angle(cur[at_k])
            np.add.accumulate(seq, axis=-1, out=seq)
            rows[live] = np.where(cols >= k[:, None], seq, cur)
            done[live] = k
        th[redo] = rows
    out[..., 2] = th
    for col, (start, trig) in enumerate(((state.x, np.cos), (state.y, np.sin))):
        pos = out[..., col]
        pos[..., 0] = start
        pos[..., 1:] = chord[..., None] * trig(th[..., :-1] + half[..., None])
        np.add.accumulate(pos, axis=-1, out=pos)
    return out


def rollout_for_scoring(req: LocalPlanRequest, v, omega, n_steps: int, dt: float):
    """Rollouts for scoring, each frozen at its closest approach to the local
    goal (later poses repeat it), so that a rollout driving past the goal is
    scored where it meets it.  Returns (trajectories, end): rollout b is
    `trajectories[b, :end[b] + 1]`."""
    traj = forward_simulate(req.robot, v, omega, n_steps, dt)
    d = np.hypot(traj[..., 0] - req.goal[0], traj[..., 1] - req.goal[1])
    k = np.argmin(d, axis=-1)
    closest = np.take_along_axis(d, k[..., None], axis=-1)[..., 0]
    end = np.where((k < n_steps) & (closest < d[..., -1]), np.maximum(k, 1), n_steps)
    frozen = np.arange(n_steps + 1) > end[..., None]
    if frozen.any():
        held = np.take_along_axis(traj, end[..., None, None], axis=-2)
        np.copyto(traj, held, where=frozen[..., None])
    return traj, end


def _trajectories(trajectory) -> np.ndarray:
    traj = np.asarray(trajectory, dtype=np.float64)
    return traj.reshape(traj.shape[:-2] + (-1, 4))


def _per_trajectory(values):
    return float(values) if np.ndim(values) == 0 else values


def trajectory_min_clearance(trajectory, req: LocalPlanRequest):
    """Smallest interpolated clearance along each (..., n, 4) trajectory
    (boundary-clamped, so poses nudging outside the local map stay defined)."""
    traj = _trajectories(trajectory)
    vals = sample_field(req.local_field, traj[..., 0], traj[..., 1])
    return _per_trajectory(np.min(vals, axis=-1))


# math.atan2/math.hypot mapped over the broadcast inputs as Python floats, to a
# float64 array (0-d for scalars): np.arctan2 and np.hypot round differently
# from math on a fraction of inputs, and the scores must match scalar formulas.
def _elementwise(fn):
    def apply(a, b):
        a, b = np.broadcast_arrays(a, b)
        return np.fromiter(map(fn, a.ravel().tolist(), b.ravel().tolist()),
                           np.float64, a.size).reshape(a.shape)
    return apply


_atan2 = _elementwise(math.atan2)
_hypot = _elementwise(math.hypot)


def _bearing(req: LocalPlanRequest, x, y):
    """Bearing from (x, y) to the local goal, or its heading when on it."""
    tx, ty, tth = req.goal
    dx, dy = tx - x, ty - y
    # a rounded hypot is never below max(|dx|, |dy|): no pose is on the goal
    if (np.maximum(np.abs(dx), np.abs(dy)) > 1e-9).all():
        return _atan2(dy, dx)
    return np.where(_hypot(dx, dy) < 1e-9, tth, _atan2(dy, dx))


class Scores(tuple):
    """score_components' (heading, clearance, velocity), carrying the raw
    `min_clearance` so that a collision filter needs no second field sample."""


def score_components(trajectory, req: LocalPlanRequest) -> Scores:
    """(heading, clearance, velocity) scores of each (..., n, 4) trajectory,
    each normalized to [0, 1].

    heading: alignment of the final pose with the bearing to the local goal;
    clearance: min clearance capped at d_safe; velocity: the rollout speed
    recovered from the first chord and heading change, normalized by v_max.
    """
    traj = _trajectories(trajectory)
    if traj.shape[-2] == 0:
        raise PlanInputError("empty trajectory")
    min_clearance = trajectory_min_clearance(traj, req)
    final = traj[..., -1, :]
    bearing = _bearing(req, final[..., 0], final[..., 1])
    heading = 1.0 - np.abs(wrap_angle(bearing - final[..., 2])) / math.pi
    clearance = np.minimum(min_clearance, req.d_safe) / req.d_safe

    velocity = np.zeros(traj.shape[:-2])
    if traj.shape[-2] >= 2:
        first = traj[..., 1, :] - traj[..., 0, :]
        chord, dt = _hypot(first[..., 0], first[..., 1]), first[..., 3]
        dphi = np.abs(wrap_angle(first[..., 2]))
        with np.errstate(divide="ignore", invalid="ignore"):
            # invert the constant-twist chord: c = v*dt*sin(phi/2)/(phi/2)
            arc = (chord / dt) * (dphi / 2.0) / np.sin(dphi / 2.0)
            ratio = np.where(dphi < 1e-9, chord / dt, arc) / req.limits.v_max
        velocity = np.where(dt > 0, np.where(ratio < 1.0, ratio, 1.0), 0.0)

    scores = Scores(_per_trajectory(s) for s in
                    (np.clip(heading, 0.0, 1.0), np.clip(clearance, 0.0, 1.0), velocity))
    scores.min_clearance = min_clearance
    return scores


def _hold_output(req: LocalPlanRequest, omega: float, t_start: float,
                 iterations: int, status: PlannerStatus) -> PlannerOutput:
    """Turn in place at `omega`, clamped into the dynamic window."""
    r = req.robot
    cmd = clamp_command(VelocityCommand(0.0, omega), VelocityCommand(r.v, r.omega),
                        req.limits, req.dt_control)
    ms = (time.perf_counter() - t_start) * 1e3
    return PlannerOutput(cmd, ((r.x, r.y, r.theta, 0.0),), ms, iterations, status)


def turn_toward(bearing: float, robot: RobotState, limits: KinematicLimits) -> float:
    """Turn rate in place toward `bearing`: omega_max / 2, signed by the error."""
    return math.copysign(limits.omega_max / 2.0, wrap_angle(bearing - robot.theta))


def recovery_output(req: LocalPlanRequest, t_start: float, iterations: int) -> PlannerOutput:
    """Rotate in place toward the local goal at omega_max / 2; stop
    entirely if the current pose is already in collision."""
    r = req.robot
    if float(sample_field(req.local_field, r.x, r.y)) < req.limits.radius:
        omega = 0.0
    else:
        omega = turn_toward(_bearing(req, r.x, r.y), r, req.limits)
    return _hold_output(req, omega, t_start, iterations, PlannerStatus.INFEASIBLE)


def terminal_output(req: LocalPlanRequest, t_start: float) -> PlannerOutput | None:
    """Within the goal position tolerance: stop, or rotate onto the goal yaw.
    Returns None when the robot is still traveling."""
    r = req.robot
    gx, gy, gth = req.goal
    if math.hypot(gx - r.x, gy - r.y) > req.goal_tol:
        return None
    yaw_err = wrap_angle(gth - r.theta)
    if abs(yaw_err) <= 0.05:
        omega = 0.0
    else:
        omega = math.copysign(min(req.limits.omega_max / 2.0, abs(yaw_err) / req.dt_control),
                              yaw_err)
    return _hold_output(req, omega, t_start, 1, PlannerStatus.OK)
