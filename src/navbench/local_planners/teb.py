"""Optimization-based local planner: an elastic band of timed poses.

The band is a sequence of poses with per-segment time deltas.  A penalty
least-squares objective trades off total time, obstacle clearance, kinematic
limits, the nonholonomic rolling constraint, and goal attraction; it is
minimized with damped Gauss-Newton steps that are only accepted when the
objective does not increase.  Every evaluation of a band returns its
residuals and their analytic Jacobian together.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import PlanInputError, ValidationError
from ..global_planner import segments_clear
from ..gridmap import sample_field, signed_distance_field
from ..robot import VelocityCommand, clamp_command, wrap_angle
from .common import (LocalPlanRequest, PlannerOutput, PlannerStatus,
                     recovery_output, terminal_output)

DT_FLOOR = 0.01  # lower bound on every time delta [s]
X, Y, TH, DT = range(4)  # the variables of a pose in a Jacobian term


@dataclass(frozen=True)
class TebConfig:
    n_poses: int = 30
    dt_init: float = 0.3
    max_iterations: int = 40
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
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        for w in (self.w_time, self.w_obstacle, self.w_velocity, self.w_acceleration,
                  self.w_nonholonomic, self.w_goal):
            if w < 0:
                raise ValidationError("weights must be non-negative")
        if self.d_min <= 0:
            raise ValidationError("d_min must be positive")


class BandProblem:
    """Residual blocks and analytic Jacobians for one band optimization;
    `residuals_and_jacobian(z)` is the one evaluation of a band.

    State vector: [x_1, y_1, th_1, ..., x_{n-1}, y_{n-1}, th_{n-1},
    dt_0, ..., dt_{n-2}]; pose 0 is pinned to the robot pose.

    Every block touches only neighbouring poses, so it states its partials
    as terms `(pose, var, values)` over its `rows`: `values[i]` is the
    partial of row `rows[i]` by variable `var` (X, Y, TH, or DT, the time
    delta of the segment leaving the pose) of pose `pose[i]`.  Row k of a
    per-segment block is segment k, from pose k to pose k+1.  The terms are
    laid out through one column map, `cols`, whose three leading columns
    belong to pinned pose 0 and are cut off, so a block writes its pose-0
    partials like any other.
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
        self.seg = np.arange(self.m)           # segment k starts at pose k ...
        self.nxt = self.seg + 1                # ... and ends at pose k+1
        self.xyz = np.arange(3)
        # cols[pose, var]: x, y, th of pose p at 3p + var, so pose 0's three
        # pinned columns lead; dt_p after all poses (the last pose has none).
        self.cols = np.column_stack([np.arange(3 * self.n).reshape(self.n, 3),
                                     3 * self.n + np.arange(self.n)])
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
        # unit chord of each segment, zero where its poses coincide
        long = length > 1e-12
        L = np.where(long, length, 1.0)
        return dict(xs=xs, ys=ys, ths=ths, dts=dts, cx=cx, cy=cy,
                    length=length, omega=omega, v=v, sign_v=sign_v,
                    cos_s=cos_s, sin_s=sin_s,
                    ux=np.where(long, cx / L, 0.0), uy=np.where(long, cy / L, 0.0))

    # -- shared hinges -----------------------------------------------------

    def _rate_hinge(self, rate, limit, dts, dirs):
        """sqrt(w_velocity) * max(0, rate_k - limit) for a per-segment rate
        |change_k| / dt_k.  `dirs` holds (var, u) pairs, u_k being the
        partial of |change_k| by var of pose k+1 (of pose k: -u_k)."""
        sw = self.sq["velocity"]
        over = rate - limit
        act = over > 0
        coef = np.where(act, sw / dts, 0.0)
        terms = [(self.seg, DT, np.where(act, -sw * rate / dts, 0.0))]
        for var, u in dirs:
            terms += [(self.nxt, var, coef * u), (self.seg, var, -(coef * u))]
        return sw * np.where(act, over, 0.0), (self.seg, terms)

    def _rate_change_hinge(self, q, limit, dts, dq):
        """sqrt(w_acceleration) * max(0, |a_k| - limit) for the change of a
        per-segment rate q, a_k = (q_{k+1} - q_k) / tau_k with tau_k the mean
        of dt_k and dt_{k+1}.  `dq(c, s)` returns (var, c * dq_s / d var of
        pose s+1) pairs (of pose s: the negatives).  Only active rows get
        terms."""
        sw = self.sq["acceleration"]
        tau = 0.5 * (dts[:-1] + dts[1:])
        a = (q[1:] - q[:-1]) / tau
        over = np.abs(a) - limit
        act = over > 0
        r = sw * np.where(act, over, 0.0)
        k = np.flatnonzero(act)
        if len(k) == 0:  # the usual case; empty terms cost about 5% of optimize_band
            return r, (k, [])
        c = sw * np.sign(a[k]) / tau[k]
        # d a / d dt_k = (q_k / dt_k) / tau - a / (2 tau), and likewise dt_{k+1}
        terms = [(k, DT, c * (q[k] / dts[k]) - 0.5 * c * a[k]),
                 (k + 1, DT, c * (-q[k + 1] / dts[k + 1]) - 0.5 * c * a[k])]
        for (var, d0), (_, d1) in zip(dq(c, k), dq(c, k + 1)):
            terms += [(k, var, d0), (k + 1, var, -d1 - d0), (k + 2, var, d1)]
        return r, (k, terms)

    # -- residual blocks: (r, (rows, terms)) ---------------------------------

    def block_time(self, g):
        return self.sq["time"] * g["dts"], (self.seg, [(self.seg, DT, self.sq["time"])])

    def block_obstacle(self, g):
        # The field is signed (negative inside obstacles) so penetrated poses
        # still feel an outward push.
        sw = self.sq["obstacle"]
        d, gx, gy = sample_field(self.field, g["xs"][1:], g["ys"][1:],
                                 with_gradient=True, floor=False)
        h = self.cfg.d_min - d
        act = h > 0
        return sw * np.where(act, h, 0.0), (self.seg, [
            (self.nxt, X, np.where(act, -sw * gx, 0.0)),
            (self.nxt, Y, np.where(act, -sw * gy, 0.0))])

    def block_velocity(self, g):
        dirs = ((X, g["ux"]), (Y, g["uy"]))
        return self._rate_hinge(g["length"] / g["dts"], self.limits.v_max, g["dts"], dirs)

    def block_angular_velocity(self, g):
        dirs = ((TH, np.sign(g["omega"])),)
        return self._rate_hinge(np.abs(g["omega"]), self.limits.omega_max, g["dts"], dirs)

    def block_acceleration(self, g):
        # dv_s / d(x, y) of pose s+1 is the signed unit chord over dt_s
        dvx = g["ux"] * g["sign_v"] / g["dts"]
        dvy = g["uy"] * g["sign_v"] / g["dts"]

        def dq(c, s):
            return (X, c * dvx[s]), (Y, c * dvy[s])
        return self._rate_change_hinge(g["v"], self.limits.a_max, g["dts"], dq)

    def block_angular_acceleration(self, g):
        # omega_s = wrap(th_{s+1} - th_s) / dt_s
        return self._rate_change_hinge(g["omega"], self.limits.alpha_max, g["dts"],
                                       lambda c, s: ((TH, c / g["dts"][s]),))

    def block_nonholonomic(self, g):
        sw = self.sq["nonholonomic"]
        ths, cx, cy, cos_s, sin_s = g["ths"], g["cx"], g["cy"], g["cos_s"], g["sin_s"]
        return sw * (cos_s * cy - sin_s * cx), (self.seg, [
            (self.nxt, X, -sw * sin_s), (self.nxt, Y, sw * cos_s),
            (self.nxt, TH, sw * (-np.sin(ths[1:]) * cy - np.cos(ths[1:]) * cx)),
            (self.seg, X, sw * sin_s), (self.seg, Y, -sw * cos_s),
            (self.seg, TH, sw * (-np.sin(ths[:-1]) * cy - np.cos(ths[:-1]) * cx))])

    def block_goal(self, g):
        sw = self.sq["goal"]
        gx, gy, gth = self.goal
        r = sw * np.array([g["xs"][-1] - gx, g["ys"][-1] - gy,
                           wrap_angle(g["ths"][-1] - gth)])
        return r, (self.xyz, [(self.n - 1, self.xyz, sw)])

    # -- assembly ----------------------------------------------------------

    def residuals_and_jacobian(self, z):
        """The blocks' residuals stacked in `BLOCKS` order, and their Jacobian
        without pose 0's pinned columns: every block writes its terms into
        its own row range of one matrix."""
        g = self._geometry(z)
        blocks = [getattr(self, f"block_{name}")(g) for name in self.BLOCKS]
        r = np.concatenate([block_r for block_r, _ in blocks])
        J = np.zeros((len(r), 3 + self.nv))
        offset = 0
        for block_r, (rows, terms) in blocks:
            at = offset + rows
            for pose, var, values in terms:
                J[at, self.cols[pose, var]] = values
            offset += len(block_r)
        return r, np.ascontiguousarray(J[:, 3:])


def optimize_band(problem: BandProblem, z0: np.ndarray, cfg: TebConfig):
    """Damped Gauss-Newton with objective-decrease acceptance.

    Each band is evaluated once, residuals and Jacobian together: the start
    band, then every candidate step.  An accepted candidate's r and J carry
    over to the next step.  Returns (z, objective, evaluations, trace); the
    trace holds the objective after every accepted step and is
    non-increasing by construction.  It stops after `cfg.max_iterations`
    steps, when no damping gives a step that does not raise the objective,
    or when a step gains almost nothing.
    """
    z = problem.project(z0)
    r, J = problem.residuals_and_jacobian(z)
    obj = float(r @ r)
    trace = [obj]
    lam = 1e-4
    evals = 1
    eye = np.eye(problem.nv)
    for _ in range(cfg.max_iterations):
        grad = J.T @ r
        H = J.T @ J
        improvement = None
        for _ in range(8):
            evals += 1
            try:
                dz = np.linalg.solve(H + lam * eye, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            z_new = problem.project(z + dz)
            r_new, J_new = problem.residuals_and_jacobian(z_new)
            obj_new = float(r_new @ r_new)
            if math.isfinite(obj_new) and obj_new <= obj:
                improvement = obj - obj_new
                z, r, J, obj = z_new, r_new, J_new, obj_new
                trace.append(obj)
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        if improvement is None or improvement <= 1e-10 * max(1.0, obj):
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

    repulsion = signed_distance_field(req.local_map)
    problem = BandProblem((r.x, r.y, r.theta), repulsion,
                          req.goal, req.limits, cfg)
    z0 = problem.pack(xs, ys, ths, dts)
    z, obj, evals, trace = optimize_band(problem, z0, cfg)
    xs, ys, ths, dts = problem.unpack(z)

    # The executed portion is the first segment; require it collision-free.
    valid = (math.isfinite(obj) and np.isfinite(z).all()
             and segments_clear(req.local_field, (xs[0], ys[0]), [(xs[1], ys[1])], [6],
                                req.limits.radius)[0])
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
