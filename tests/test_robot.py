import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navbench.robot import (KinematicLimits, RobotState, VelocityCommand,
                            clamp_command, step, wrap_angle)

LIMITS = KinematicLimits()


def test_clamp_accelerating_forward():
    out = clamp_command(VelocityCommand(1.0, 0.0), VelocityCommand(0.0, 0.0), LIMITS, 0.2)
    assert out.v == pytest.approx(0.5)  # min(0.55, 0 + 2.5 * 0.2)


def test_clamp_identity_within_limits():
    prev = VelocityCommand(0.3, 0.2)
    out = clamp_command(prev, prev, LIMITS, 0.2)
    assert out == prev


def test_clamp_reverse_hits_box():
    out = clamp_command(VelocityCommand(-1.0, 0.0), VelocityCommand(0.0, 0.0), LIMITS, 0.2)
    assert out.v == pytest.approx(-0.2)  # max(-0.2, -0.5)


@settings(max_examples=300, deadline=None)
@given(st.floats(-2, 2), st.floats(-3, 3),
       st.floats(-0.2, 0.55), st.floats(-1, 1),
       st.floats(0.01, 0.5))
def test_clamp_always_inside_window(dv, dw, pv, pw, dt):
    prev = VelocityCommand(pv, pw)
    out = clamp_command(VelocityCommand(dv, dw), prev, LIMITS, dt)
    assert LIMITS.v_min - 1e-12 <= out.v <= LIMITS.v_max + 1e-12
    assert LIMITS.omega_min - 1e-12 <= out.omega <= LIMITS.omega_max + 1e-12
    assert prev.v + LIMITS.a_min * dt - 1e-12 <= out.v <= prev.v + LIMITS.a_max * dt + 1e-12
    assert prev.omega + LIMITS.alpha_min * dt - 1e-12 <= out.omega \
        <= prev.omega + LIMITS.alpha_max * dt + 1e-12


def test_step_at_rest():
    s = RobotState(1.0, 2.0, 0.5)
    out = step(s, VelocityCommand(0.0, 0.0), 0.1)
    assert (out.x, out.y, out.theta) == (1.0, 2.0, 0.5)


def test_step_straight_line():
    out = step(RobotState(), VelocityCommand(1.0, 0.0), 1.0)
    assert out.x == pytest.approx(1.0, abs=1e-15)
    assert out.y == pytest.approx(0.0, abs=1e-15)


def _arc_oracle(state, v, w, dt):
    """Rotate the start point about the instantaneous center of curvature;
    an independent derivation of the constant-twist arc.

    The start point's offset from the center is p = r*(sin th, -cos th) with
    r = v/w, and the rotation by a = w*dt moves it by (R(a) - I) p.  Adding
    that displacement to the start, with cos(a) - 1 written as
    -2*sin(a/2)**2, avoids summing the center and the rotated offset: both
    are of size r, which grows without bound as w -> 0 and would cost the
    oracle its precision long before the 1e-12 tolerance."""
    r = v / w
    a = w * dt
    px, py = r * math.sin(state.theta), -r * math.cos(state.theta)
    cm1 = -2.0 * math.sin(0.5 * a) ** 2
    sa = math.sin(a)
    return state.x + cm1 * px - sa * py, state.y + sa * px + cm1 * py


def test_step_circle_closed_form():
    s = RobotState(0.0, 0.0, 0.0)
    out = step(s, VelocityCommand(0.5, 0.5), 2.0)
    # circle of radius v/w = 1 through angle w*dt = 1 rad
    assert out.x == pytest.approx(math.sin(1.0), abs=1e-12)
    assert out.y == pytest.approx(1.0 - math.cos(1.0), abs=1e-12)
    assert out.theta == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-math.pi, math.pi),
       st.floats(-0.2, 0.55), st.floats(-1, 1).filter(lambda w: abs(w) > 1e-6),
       st.floats(0.01, 2.0))
@example(0.0, 0.0, 0.0, 0.5, 1.8199181029189657e-06, 1.0)  # r = v/w ~ 2.7e5
@example(0.0, 0.0, 1.0, 0.5, 1.8199181029189657e-06, 1.0)
def test_step_matches_icc_rotation(x, y, th, v, w, dt):
    s = RobotState(x, y, th)
    out = step(s, VelocityCommand(v, w), dt)
    ex, ey = _arc_oracle(s, v, w, dt)
    assert out.x == pytest.approx(ex, abs=1e-12)
    assert out.y == pytest.approx(ey, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(-0.2, 0.55), st.floats(-1, 1), st.integers(1, 16))
def test_substep_equivalence(v, w, n):
    cmd = VelocityCommand(v, w)
    s = RobotState(0.3, -0.4, 0.9)
    single = step(s, cmd, 0.2)
    multi = s
    for _ in range(n):
        multi = step(multi, cmd, 0.2 / n)
    assert multi.x == pytest.approx(single.x, abs=1e-12)
    assert multi.y == pytest.approx(single.y, abs=1e-12)
    assert abs(wrap_angle(multi.theta - single.theta)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.floats(-50, 50))
def test_wrap_angle_range(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert abs(math.remainder(w - theta, 2 * math.pi)) <= 1e-9
