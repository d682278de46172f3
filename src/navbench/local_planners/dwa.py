"""Sampling-based local planner: dynamic-window velocity search.

Velocity pairs are sampled on a lattice inside the acceleration-reachable
window, forward-simulated with exact arcs, filtered for collisions, and the
survivor with the best weighted (heading, clearance, velocity) score wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import PlanInputError, ValidationError
from ..robot import VelocityCommand, velocity_window
from .common import (LocalPlanRequest, PlannerOutput, PlannerStatus,
                     recovery_output, rollout_for_scoring, score_components,
                     terminal_output)


@dataclass(frozen=True)
class DwaConfig:
    n_v: int = 11
    n_omega: int = 21
    sim_horizon: float = 1.6
    sim_dt: float = 0.1
    w_heading: float = 0.8
    w_clearance: float = 0.3
    w_velocity: float = 0.3

    def __post_init__(self):
        if self.n_v < 3 or self.n_omega < 3:
            raise ValidationError("need at least 3 samples per axis")
        if not (self.sim_horizon > self.sim_dt > 0):
            raise ValidationError("need sim_horizon > sim_dt > 0")
        weights = (self.w_heading, self.w_clearance, self.w_velocity)
        if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
            raise ValidationError("weights must be non-negative and not all zero")


def dynamic_window(req: LocalPlanRequest) -> tuple[float, float, float, float]:
    """The `velocity_window` reachable in one control period."""
    return velocity_window(req.robot.v, req.robot.omega, req.limits, req.dt_control)


def dwa_plan(req: LocalPlanRequest, cfg: DwaConfig = DwaConfig()) -> PlannerOutput:
    t0 = time.perf_counter()
    if len(req.reference) == 0:
        raise PlanInputError("empty reference path")
    term = terminal_output(req, t0)
    if term is not None:
        return term

    v_lo, v_hi, w_lo, w_hi = dynamic_window(req)
    # v-major lattice: argmax's first-index tie-break keeps the winner that a
    # strict `>` scan over v, then omega, would keep.
    vs, ws = (a.ravel() for a in np.meshgrid(np.linspace(v_lo, v_hi, cfg.n_v),
                                              np.linspace(w_lo, w_hi, cfg.n_omega),
                                              indexing="ij"))
    n_steps = int(round(cfg.sim_horizon / cfg.sim_dt))
    trajs, end = rollout_for_scoring(req, vs, ws, n_steps, cfg.sim_dt)
    scores = score_components(trajs, req)
    h, c, vel = scores
    score = cfg.w_heading * h + cfg.w_clearance * c + cfg.w_velocity * vel
    # NaN clearance passes the filter; a NaN score then never wins.
    ok = ~(scores.min_clearance < req.limits.radius) & (score > -np.inf)
    if not ok.any():
        return recovery_output(req, t0, vs.size)

    b = int(np.argmax(np.where(ok, score, -np.inf)))
    ms = (time.perf_counter() - t0) * 1e3
    return PlannerOutput(VelocityCommand(float(vs[b]), float(ws[b])),
                         tuple(map(tuple, trajs[b, :end[b] + 1])),
                         ms, vs.size, PlannerStatus.OK)
