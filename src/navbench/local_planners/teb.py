"""Optimization-based local planner: an elastic band of timed poses.

The band is a sequence of poses with per-segment time deltas.  A penalty
least-squares objective trades off total time, obstacle clearance, kinematic
limits, the nonholonomic rolling constraint, and goal attraction; it is
minimized with damped Gauss-Newton steps that are only accepted when the
objective does not increase.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import PlanInputError, ValidationError
from ..gridmap import UnknownAs, sample_field, signed_distance_field
from ..robot import VelocityCommand, clamp_command, wrap_angle
from .common import (LocalPlanRequest, PlannerOutput, PlannerStatus,
                     recovery_output, terminal_output)

DT_FLOOR = 0.01  # lower bound on every time delta [s]


@dataclass(frozen=True)
class TebConfig:
    n_poses: int = 30
    dt_init: float = 0.3
    outer_iterations: int = 4
    inner_iterations: int = 10
    w_time: float = 1.0
    w_obstacle: float = 50.0
    w_velocity: float = 2.0
    w_acceleration: float = 1.0
    w_nonholonomic: float = 1000.0
    w_goal: float = 1.0
    d_min: float = 0.34  # obstacle hinge distance

    def __post_init__(self):
        if self.n_poses < 3:
            raise ValidationError("band needs at least 3 poses")
        if self.dt_init <= 0:
            raise ValidationError("dt_init must be positive")
        if self.outer_iterations < 1 or self.inner_iterations < 1:
            raise ValidationError("iteration counts must be at least 1")
        for w in (self.w_time, self.w_obstacle, self.w_velocity, self.w_acceleration,
                  self.w_nonholonomic, self.w_goal):
            if w < 0:
                raise ValidationError("weights must be non-negative")
        if self.d_min <= 0:
            raise ValidationError("d_min must be positive")


class BandProblem:
    """Residual blocks and analytic Jacobians for one band optimization.

    State vector: [x_1, y_1, th_1, ..., x_{n-1}, y_{n-1}, th_{n-1},
    dt_0, ..., dt_{n-2}]; pose 0 is pinned to the robot pose.
    """

    # Residual blocks in stacking order; each name has a `block_<name>` method.
    BLOCKS = ("time", "obstacle", "velocity", "angular_velocity",
              "acceleration", "angular_acceleration", "nonholonomic", "goal")

    def __init__(self, start_pose, field, goal, limits, cfg: TebConfig):
        self.p0 = tuple(start_pose)
        self.field = field
        self.goal = tuple(goal)
        self.limits = limits
        self.cfg = cfg
        self.n = cfg.n_poses
        self.m = self.n - 1                    # segments == free poses
        self.nv = 3 * self.m + self.m          # variables
        self.dt0 = 3 * self.m                  # column of dt_0
        self.sq = {name: math.sqrt(w) for name, w in (
            ("time", cfg.w_time), ("obstacle", cfg.w_obstacle),
            ("velocity", cfg.w_velocity), ("acceleration", cfg.w_acceleration),
            ("nonholonomic", cfg.w_nonholonomic), ("goal", cfg.w_goal))}

    # -- state packing ----------------------------------------------------

    def pack(self, xs, ys, ths, dts) -> np.ndarray:
        z = np.empty(self.nv)
        z[:3 * self.m:3] = xs[1:]
        z[1:3 * self.m:3] = ys[1:]
        z[2:3 * self.m:3] = ths[1:]
        z[self.dt0:] = dts
        return z

    def unpack(self, z):
        xs = np.concatenate([[self.p0[0]], z[:3 * self.m:3]])
        ys = np.concatenate([[self.p0[1]], z[1:3 * self.m:3]])
        ths = np.concatenate([[self.p0[2]], z[2:3 * self.m:3]])
        dts = z[self.dt0:]
        return xs, ys, ths, dts

    def project(self, z: np.ndarray) -> np.ndarray:
        out = z.copy()
        out[self.dt0:] = np.maximum(out[self.dt0:], DT_FLOOR)
        return out

    def _col_x(self, k):  # pose index k >= 1
        return 3 * (np.asarray(k) - 1)

    def _geometry(self, z):
        xs, ys, ths, dts = self.unpack(z)
        cx = np.diff(xs)
        cy = np.diff(ys)
        length = np.hypot(cx, cy)
        dth = wrap_angle(np.diff(ths))
        omega = dth / dts
        cos_s = np.cos(ths[:-1]) + np.cos(ths[1:])
        sin_s = np.sin(ths[:-1]) + np.sin(ths[1:])
        sign_v = np.where(cx * cos_s + cy * sin_s >= 0.0, 1.0, -1.0)
        v = sign_v * length / dts
        return dict(xs=xs, ys=ys, ths=ths, dts=dts, cx=cx, cy=cy,
                    length=length, omega=omega, v=v, sign_v=sign_v,
                    cos_s=cos_s, sin_s=sin_s)

    # -- residual blocks ---------------------------------------------------

    def block_time(self, g, with_j):
        r = self.sq["time"] * g["dts"]
        if not with_j:
            return r, None
        J = np.zeros((self.m, self.nv))
        J[np.arange(self.m), self.dt0 + np.arange(self.m)] = self.sq["time"]
        return r, J

    def block_obstacle(self, g, with_j):
        # The field is signed (negative inside obstacles) so penetrated poses
        # still feel an outward push.
        xs, ys = g["xs"][1:], g["ys"][1:]
        sw = self.sq["obstacle"]
        if with_j:
            d, gx, gy = sample_field(self.field, xs, ys, with_gradient=True, floor=False)
        else:
            d = sample_field(self.field, xs, ys, floor=False)
        h = self.cfg.d_min - d
        act = h > 0
        r = sw * np.where(act, h, 0.0)
        if not with_j:
            return r, None
        J = np.zeros((self.m, self.nv))
        rows = np.arange(self.m)
        cols = self._col_x(np.arange(1, self.n))
        J[rows, cols] = np.where(act, -sw * gx, 0.0)
        J[rows, cols + 1] = np.where(act, -sw * gy, 0.0)
        return r, J

    def block_velocity(self, g, with_j):
        sw = self.sq["velocity"]
        vhat = g["length"] / g["dts"]
        over = vhat - self.limits.v_max
        act = over > 0
        r = sw * np.where(act, over, 0.0)
        if not with_j:
            return r, None
        J = np.zeros((self.m, self.nv))
        L = np.where(g["length"] > 1e-12, g["length"], 1.0)
        ux = np.where(g["length"] > 1e-12, g["cx"] / L, 0.0)
        uy = np.where(g["length"] > 1e-12, g["cy"] / L, 0.0)
        rows = np.arange(self.m)
        coef = np.where(act, sw / g["dts"], 0.0)
        cols_b = self._col_x(np.arange(1, self.n))          # pose k+1 of segment k
        J[rows, cols_b] += coef * ux
        J[rows, cols_b + 1] += coef * uy
        has_a = rows >= 1                                    # pose k free for k >= 1
        cols_a = self._col_x(np.arange(1, self.n - 1))
        J[rows[has_a], cols_a] -= (coef * ux)[has_a]
        J[rows[has_a], cols_a + 1] -= (coef * uy)[has_a]
        J[rows, self.dt0 + rows] = np.where(act, -sw * vhat / g["dts"], 0.0)
        return r, J

    def block_angular_velocity(self, g, with_j):
        sw = self.sq["velocity"]
        w = g["omega"]
        over = np.abs(w) - self.limits.omega_max
        act = over > 0
        r = sw * np.where(act, over, 0.0)
        if not with_j:
            return r, None
        J = np.zeros((self.m, self.nv))
        rows = np.arange(self.m)
        sgn = np.sign(w)
        coef = np.where(act, sw * sgn / g["dts"], 0.0)
        cols_b = self._col_x(np.arange(1, self.n)) + 2
        J[rows, cols_b] += coef
        has_a = rows >= 1
        cols_a = self._col_x(np.arange(1, self.n - 1)) + 2
        J[rows[has_a], cols_a] -= coef[has_a]
        J[rows, self.dt0 + rows] = np.where(act, -sw * np.abs(w) / g["dts"], 0.0)
        return r, J

    def block_acceleration(self, g, with_j):
        sw = self.sq["acceleration"]
        v, dts = g["v"], g["dts"]
        tau = 0.5 * (dts[:-1] + dts[1:])
        a = (v[1:] - v[:-1]) / tau
        over = np.abs(a) - self.limits.a_max
        act = over > 0
        r = sw * np.where(act, over, 0.0)
        if not with_j:
            return r, None
        J = np.zeros((max(self.m - 1, 0), self.nv))
        if self.m < 2:
            return r, J
        rows = np.arange(self.m - 1)
        sgn = np.sign(a)
        coef = np.where(act, sw * sgn / tau, 0.0)
        L = np.where(g["length"] > 1e-12, g["length"], 1.0)
        ux = np.where(g["length"] > 1e-12, g["cx"] / L, 0.0) * g["sign_v"]
        uy = np.where(g["length"] > 1e-12, g["cy"] / L, 0.0) * g["sign_v"]
        # dv_k/dp_{k+1} = u_k / dt_k ; dv_k/dp_k = -u_k / dt_k
        dv_dxb = ux / dts
        dv_dyb = uy / dts
        for k in range(self.m - 1):
            c = coef[k]
            if c == 0.0:
                continue
            # + dv_{k+1} terms: poses k+1, k+2
            cb = self._col_x(k + 2)
            J[k, cb] += c * dv_dxb[k + 1]
            J[k, cb + 1] += c * dv_dyb[k + 1]
            ca = self._col_x(k + 1)
            J[k, ca] -= c * dv_dxb[k + 1]
            J[k, ca + 1] -= c * dv_dyb[k + 1]
            # - dv_k terms: poses k, k+1
            J[k, ca] -= c * dv_dxb[k]
            J[k, ca + 1] -= c * dv_dyb[k]
            if k >= 1:
                c0 = self._col_x(k)
                J[k, c0] += c * dv_dxb[k]
                J[k, c0 + 1] += c * dv_dyb[k]
            # d a / d dt_k = (v_k / dt_k) / tau - a / (2 tau)
            J[k, self.dt0 + k] = c * (v[k] / dts[k]) - 0.5 * c * a[k]
            J[k, self.dt0 + k + 1] = c * (-v[k + 1] / dts[k + 1]) - 0.5 * c * a[k]
        return r, J

    def block_angular_acceleration(self, g, with_j):
        sw = self.sq["acceleration"]
        w, dts = g["omega"], g["dts"]
        tau = 0.5 * (dts[:-1] + dts[1:])
        al = (w[1:] - w[:-1]) / tau
        over = np.abs(al) - self.limits.alpha_max
        act = over > 0
        r = sw * np.where(act, over, 0.0)
        if not with_j:
            return r, None
        J = np.zeros((max(self.m - 1, 0), self.nv))
        if self.m < 2:
            return r, J
        sgn = np.sign(al)
        coef = np.where(act, sw * sgn / tau, 0.0)
        for k in range(self.m - 1):
            c = coef[k]
            if c == 0.0:
                continue
            # omega_k = wrap(th_{k+1} - th_k) / dt_k
            cb = self._col_x(k + 2) + 2
            J[k, cb] += c / dts[k + 1]
            ca = self._col_x(k + 1) + 2
            J[k, ca] -= c / dts[k + 1]
            J[k, ca] -= c / dts[k]
            if k >= 1:
                c0 = self._col_x(k) + 2
                J[k, c0] += c / dts[k]
            J[k, self.dt0 + k] = c * (w[k] / dts[k]) - 0.5 * c * al[k]
            J[k, self.dt0 + k + 1] = c * (-w[k + 1] / dts[k + 1]) - 0.5 * c * al[k]
        return r, J

    def block_nonholonomic(self, g, with_j):
        sw = self.sq["nonholonomic"]
        r = sw * (g["cos_s"] * g["cy"] - g["sin_s"] * g["cx"])
        if not with_j:
            return r, None
        J = np.zeros((self.m, self.nv))
        rows = np.arange(self.m)
        ths = g["ths"]
        cols_b = self._col_x(np.arange(1, self.n))
        J[rows, cols_b] += -sw * g["sin_s"]
        J[rows, cols_b + 1] += sw * g["cos_s"]
        dth_b = sw * (-np.sin(ths[1:]) * g["cy"] - np.cos(ths[1:]) * g["cx"])
        J[rows, cols_b + 2] += dth_b
        has_a = rows >= 1
        cols_a = self._col_x(np.arange(1, self.n - 1))
        J[rows[has_a], cols_a] += (sw * g["sin_s"])[has_a]
        J[rows[has_a], cols_a + 1] += (-sw * g["cos_s"])[has_a]
        dth_a = sw * (-np.sin(ths[:-1]) * g["cy"] - np.cos(ths[:-1]) * g["cx"])
        J[rows[has_a], cols_a + 2] += dth_a[has_a]
        return r, J

    def block_goal(self, g, with_j):
        sw = self.sq["goal"]
        gx, gy, gth = self.goal
        r = sw * np.array([g["xs"][-1] - gx, g["ys"][-1] - gy,
                           wrap_angle(g["ths"][-1] - gth)])
        if not with_j:
            return r, None
        J = np.zeros((3, self.nv))
        c = self._col_x(self.n - 1)
        J[0, c] = sw
        J[1, c + 1] = sw
        J[2, c + 2] = sw
        return r, J

    # -- assembly ----------------------------------------------------------

    def residual_blocks(self, z, with_jacobian=False):
        g = self._geometry(z)
        return {name: getattr(self, f"block_{name}")(g, with_jacobian)
                for name in self.BLOCKS}

    def residuals(self, z) -> np.ndarray:
        blocks = self.residual_blocks(z, with_jacobian=False)
        return np.concatenate([blocks[name][0] for name in self.BLOCKS])

    def residuals_and_jacobian(self, z):
        blocks = self.residual_blocks(z, with_jacobian=True)
        r = np.concatenate([blocks[name][0] for name in self.BLOCKS])
        J = np.vstack([blocks[name][1] for name in self.BLOCKS])
        return r, J

    def objective(self, z) -> float:
        r = self.residuals(z)
        return float(r @ r)


def optimize_band(problem: BandProblem, z0: np.ndarray, cfg: TebConfig):
    """Damped Gauss-Newton with objective-decrease acceptance.

    Returns (z, objective, evaluations, trace); the trace holds the objective
    after every accepted step and is non-increasing by construction.
    """
    z = problem.project(z0)
    obj = problem.objective(z)
    trace = [obj]
    lam = 1e-4
    evals = 1
    eye = np.eye(problem.nv)
    done = False
    for _ in range(cfg.outer_iterations):
        if done:
            break
        for _ in range(cfg.inner_iterations):
            r, J = problem.residuals_and_jacobian(z)
            grad = J.T @ r
            H = J.T @ J
            accepted = False
            for _ in range(8):
                evals += 1
                try:
                    dz = np.linalg.solve(H + lam * eye, -grad)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                z_new = problem.project(z + dz)
                obj_new = problem.objective(z_new)
                if math.isfinite(obj_new) and obj_new <= obj:
                    improvement = obj - obj_new
                    z = z_new
                    obj = obj_new
                    trace.append(obj)
                    lam = max(lam / 3.0, 1e-12)
                    accepted = True
                    if improvement <= 1e-10 * max(1.0, obj):
                        done = True
                    break
                lam *= 10.0
            if not accepted or done:
                if not accepted:
                    done = True
                break
    return z, obj, evals, trace


def _resample_polyline(points, n: int):
    """n points uniformly spaced in arc length, with per-point tangents."""
    pts = np.asarray(points, dtype=np.float64)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    keep = seg > 1e-12
    if not keep.all():
        pts = pts[np.concatenate([[True], keep])]
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    targets = np.linspace(0.0, total, n)
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg) - 1)
    frac = (targets - cum[idx]) / seg[idx]
    out = pts[idx] + frac[:, None] * (pts[idx + 1] - pts[idx])
    tangents = np.arctan2(pts[idx + 1, 1] - pts[idx, 1], pts[idx + 1, 0] - pts[idx, 0])
    return out, tangents


def teb_plan(req: LocalPlanRequest, cfg: TebConfig = TebConfig()) -> PlannerOutput:
    t0 = time.perf_counter()
    if len(req.reference) == 0:
        raise PlanInputError("empty reference path")
    if cfg.d_min < req.limits.radius:
        raise ValidationError("obstacle hinge distance below the robot radius")
    term = terminal_output(req, t0)
    if term is not None:
        return term

    r = req.robot
    pts = [(r.x, r.y)] + list(req.reference.points)
    span = sum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:]))
    if span < max(2.0 * req.local_map.resolution, 0.05):
        # Degenerate reference: fall back to the straight line toward the goal.
        pts = [(r.x, r.y), (req.goal[0], req.goal[1])]
        span = math.hypot(req.goal[0] - r.x, req.goal[1] - r.y)
    if span < 1e-9:
        return recovery_output(req, t0, 1)

    resampled, tangents = _resample_polyline(pts, cfg.n_poses)
    ths = np.array(tangents)
    ths[0] = r.theta
    ths[-1] = req.goal[2]
    xs = resampled[:, 0].copy()
    ys = resampled[:, 1].copy()
    xs[0], ys[0] = r.x, r.y
    dts = np.full(cfg.n_poses - 1, cfg.dt_init)

    repulsion = signed_distance_field(req.local_map, UnknownAs.OCCUPIED)
    problem = BandProblem((r.x, r.y, r.theta), repulsion,
                          req.goal, req.limits, cfg)
    z0 = problem.pack(xs, ys, ths, dts)
    z, obj, evals, trace = optimize_band(problem, z0, cfg)
    xs, ys, ths, dts = problem.unpack(z)

    valid = math.isfinite(obj) and np.isfinite(z).all()
    if valid:
        # The executed portion is the first segment; require it collision-free.
        ts = np.linspace(0.0, 1.0, 6)
        sx = xs[0] + ts * (xs[1] - xs[0])
        sy = ys[0] + ts * (ys[1] - ys[0])
        clear = sample_field(req.local_field, sx, sy)
        valid = bool((clear >= req.limits.radius).all())
    if not valid:
        return recovery_output(req, t0, evals)

    chord = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
    head = (math.cos(ths[0]) + math.cos(ths[1]),
            math.sin(ths[0]) + math.sin(ths[1]))
    sign = 1.0 if (xs[1] - xs[0]) * head[0] + (ys[1] - ys[0]) * head[1] >= 0 else -1.0
    v = sign * chord / dts[0]
    w = wrap_angle(ths[1] - ths[0]) / dts[0]
    cmd = clamp_command(VelocityCommand(v, w), VelocityCommand(r.v, r.omega),
                        req.limits, req.dt_control)

    times = np.concatenate([[0.0], np.cumsum(dts)])
    traj = tuple((float(x), float(y), float(th), float(t))
                 for x, y, th, t in zip(xs, ys, ths, times))
    ms = (time.perf_counter() - t0) * 1e3
    return PlannerOutput(cmd, traj, ms, evals, PlannerStatus.OK,
                         objective_trace=tuple(trace))
