"""Differential-drive kinematics: limits, command clamping, exact arc stepping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Wrap to (-pi, pi], elementwise; a float gives a float.  The `+ 0.0`
    keeps wrap_angle(-0.0) == -0.0, as the integer from `round` did."""
    r = theta - TWO_PI * (np.round(theta / TWO_PI) + 0.0)
    r = np.where(r <= -math.pi, r + TWO_PI, np.where(r > math.pi, r - TWO_PI, r))
    return float(r) if r.ndim == 0 else r


@dataclass(frozen=True)
class KinematicLimits:
    """Velocity/acceleration box shared by both local planners."""

    v_max: float = 0.55
    v_min: float = -0.2
    omega_max: float = 1.0
    omega_min: float = -1.0
    a_max: float = 2.5
    a_min: float = -2.5
    alpha_max: float = 3.2
    alpha_min: float = -3.2
    radius: float = 0.17

    def __post_init__(self):
        for lo, hi in ((self.v_min, self.v_max), (self.omega_min, self.omega_max),
                       (self.a_min, self.a_max), (self.alpha_min, self.alpha_max)):
            if not hi > lo:
                raise ValueError("each limit pair needs max > min")
        if not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class VelocityCommand:
    v: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.omega)):
            raise ValueError("velocity command must be finite")


@dataclass(frozen=True)
class RobotState:
    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0
    v: float = 0.0
    omega: float = 0.0

    def pose(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.theta)


def velocity_window(v: float, omega: float, limits: KinematicLimits, dt: float):
    """Velocity box intersected with what the acceleration limits reach from
    (v, omega) within `dt`: (v_lo, v_hi, omega_lo, omega_hi)."""
    return (max(limits.v_min, v + limits.a_min * dt),
            min(limits.v_max, v + limits.a_max * dt),
            max(limits.omega_min, omega + limits.alpha_min * dt),
            min(limits.omega_max, omega + limits.alpha_max * dt))


def clamp_command(desired: VelocityCommand, prev: VelocityCommand,
                  limits: KinematicLimits, dt: float) -> VelocityCommand:
    """Clip a command to the `velocity_window` reachable from `prev`."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    v_lo, v_hi, w_lo, w_hi = velocity_window(prev.v, prev.omega, limits, dt)
    v = min(max(desired.v, v_lo), v_hi)
    w = min(max(desired.omega, w_lo), w_hi)
    return VelocityCommand(v, w)


def arc_terms(v, w, dt: float):
    """(half, chord, turn) of one exact constant-twist arc step, elementwise:
    half = w*dt/2, chord = v*dt*sinc(half), turn = w*dt.  A step moves the
    pose by chord along theta + half and turns it by turn; `arc_step` applies
    it once, `forward_simulate` along a whole rollout, so both share this one
    formula.  The half-angle form equals (v/w)*(sin(theta+w*dt) - sin(theta))
    without the catastrophic cancellation that form suffers at small |w|."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    half = 0.5 * w * dt
    small = np.abs(half) < 1e-12
    sinc = np.where(small, 1.0, np.sin(half) / np.where(small, 1.0, half))
    return half, v * dt * sinc, w * dt


def arc_step(x, y, theta, v, w, dt: float):
    """Advance poses one `arc_terms` step, elementwise over floats or
    equal-shape arrays; the heading is wrapped."""
    half, chord, turn = arc_terms(v, w, dt)
    return (x + chord * np.cos(theta + half), y + chord * np.sin(theta + half),
            wrap_angle(theta + turn))


def step(state: RobotState, cmd: VelocityCommand, dt: float) -> RobotState:
    """Advance the unicycle model one `arc_step`."""
    x, y, theta = arc_step(state.x, state.y, state.theta, cmd.v, cmd.omega, dt)
    return RobotState(float(x), float(y), theta, cmd.v, cmd.omega)

