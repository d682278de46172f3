"""DWA rollouts as running sums, against the step-by-step formulas.

`forward_simulate` accumulates headings and positions with `np.add.accumulate`
instead of chaining `arc_step`; `rollout_for_scoring` freezes by mask; the
scoring helpers map `math` functions over Python floats.  Every comparison
here is bit for bit (`tobytes`), NaN payloads and signed zeros included.
"""

import math

import numpy as np
import pytest

import navbench.local_planners.common as common
from navbench.global_planner import GlobalPath
from navbench.gridmap import OccupancyGrid, UnknownAs, distance_transform
from navbench.local_planners import LocalPlanRequest, forward_simulate
from navbench.robot import (KinematicLimits, RobotState, VelocityCommand, arc_step,
                            arc_terms, step, wrap_angle)

DT = 0.1
N_STEPS = 16


def formula_arc_step(x, y, theta, v, w, dt):
    """The arc step as one expression, in its original operation order."""
    half = 0.5 * w * dt
    small = np.abs(half) < 1e-12
    sinc = np.where(small, 1.0, np.sin(half) / np.where(small, 1.0, half))
    return (x + v * dt * sinc * np.cos(theta + half),
            y + v * dt * sinc * np.sin(theta + half), wrap_angle(theta + w * dt))


def chained(step_fn, state, v, w, n_steps=N_STEPS, dt=DT):
    """Rollouts built one step at a time, in forward_simulate's layout."""
    v, w = np.broadcast_arrays(v, w)
    out = np.empty(v.shape + (n_steps + 1, 4))
    out[..., 3] = np.arange(n_steps + 1) * dt
    pose = (state.x, state.y, state.theta)
    out[..., 0, :3] = pose
    for k in range(1, n_steps + 1):
        pose = step_fn(*pose, v, w, dt)
        out[..., k, 0], out[..., k, 1], out[..., k, 2] = pose
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def lattice(w_lo=-1.0, w_hi=1.0):
    vs, ws = np.meshgrid(np.linspace(-0.2, 0.55, 11), np.linspace(w_lo, w_hi, 21),
                         indexing="ij")
    return vs, ws


THETA0 = [math.pi, math.pi - 1e-9, -math.pi + 1e-9, 3.0, -3.0, 0.0, -0.0, 1.2]


@pytest.mark.parametrize("theta", THETA0)
def test_lattice_equals_chained_arc_steps(theta):
    state = RobotState(13.51, -6.62, theta)
    for vs, ws in (lattice(), lattice(-4.0, 4.0)):
        batch = forward_simulate(state, vs, ws, N_STEPS, DT)
        assert batch.shape == (11, 21, N_STEPS + 1, 4)
        assert same_bits(batch, chained(arc_step, state, vs, ws))
        assert same_bits(batch, chained(formula_arc_step, state, vs, ws))


def test_headings_cross_pi_in_both_directions():
    """The lattices above do wrap mid-rollout, so the fallback is exercised."""
    for theta, w in ((3.0, 1.0), (-3.0, -1.0), (math.pi - 1e-9, 0.5), (-math.pi + 1e-9, -0.5)):
        th = forward_simulate(RobotState(0.0, 0.0, theta), 0.3, w, N_STEPS, DT)[:, 2]
        assert np.sign(th[-1]) == -np.sign(theta)
        assert np.all(np.abs(th) <= math.pi)


def test_heading_landing_on_minus_pi_wraps_to_pi():
    """-pi + 0.5 and a turn of exactly -0.5 sum to -pi, which wrap_angle maps
    to +pi: a heading of exactly |pi| must take the wrapped path, also when
    it is the rollout's last (no later heading leaves (-pi, pi))."""
    for turns in (1, 2):
        state = RobotState(1.0, 2.0, -math.pi + 0.5 * turns)
        for w, dt in ((-5.0, 0.1), (-1.0, 0.5)):
            assert w * dt == -0.5
            for n_steps in (turns, 6):
                traj = forward_simulate(state, 0.4, w, n_steps, dt)
                assert traj[turns, 2] == math.pi
                assert same_bits(traj, chained(arc_step, state, 0.4, w, n_steps, dt))
                batch = forward_simulate(state, np.full(3, 0.4), np.full(3, w), n_steps, dt)
                assert same_bits(batch[1], traj)


WRAP_THETA0 = [math.pi, -math.pi, 4.0, -4.0, 7.5, -3.5 * math.pi]
# turns of up to 0.1, 4 and 7 rad a step: the last two wrap a rollout many times
WRAP_LATTICES = [lattice(), lattice(-40.0, 40.0), lattice(-70.0, 70.0)]


def chained_wraps(state, vs, ws):
    """Per rollout, how many of its chained steps' headings `wrap_angle` changed."""
    th = chained(arc_step, state, vs, ws)[..., 2]
    pre = th[..., :-1] + (ws * DT)[..., None]
    return ((pre > math.pi) | (pre <= -math.pi)).sum(axis=-1)


@pytest.mark.parametrize("theta", WRAP_THETA0)
def test_wrapping_rollouts_equal_chained_arc_steps(theta):
    """theta0 at +-pi or beyond, and rollouts that wrap more than once."""
    state = RobotState(13.51, -6.62, theta)
    for vs, ws in WRAP_LATTICES:
        batch = forward_simulate(state, vs, ws, N_STEPS, DT)
        assert same_bits(batch, chained(arc_step, state, vs, ws))
        assert same_bits(batch, chained(formula_arc_step, state, vs, ws))
    assert chained_wraps(state, *WRAP_LATTICES[-1]).max() > 1


@pytest.mark.parametrize("theta", WRAP_THETA0)
def test_one_wrapping_pass_per_wrap(monkeypatch, theta):
    """Pass j wraps one heading of each rollout with at least j wraps; a
    heading of exactly pi is not wrapped, so theta0 = pi with no turn takes
    no pass."""
    passes = []
    wrap = common.wrap_angle

    def counting(th):
        passes.append(np.size(th))
        return wrap(th)

    monkeypatch.setattr(common, "wrap_angle", counting)
    state = RobotState(0.5, 0.25, theta)
    for vs, ws in WRAP_LATTICES + [(np.zeros(3), np.zeros(3))]:
        passes.clear()
        forward_simulate(state, vs, ws, N_STEPS, DT)
        wraps = chained_wraps(state, vs, ws)
        assert passes == [int((wraps >= j).sum()) for j in range(1, wraps.max() + 1)]
    passes.clear()
    still = forward_simulate(RobotState(0.0, 0.0, math.pi), 0.3, 0.0, N_STEPS, DT)
    assert passes == [] and (still[:, 2] == math.pi).all()


@pytest.mark.parametrize("theta", THETA0)
def test_small_and_special_turn_rates(theta):
    state = RobotState(-2.25, 7.125, theta)
    ws = np.array([0.0, -0.0, 1e-13, -1e-13, np.nan, np.inf, -np.inf, 1.0, -1.0])
    vs = np.array([0.0, 0.3, -0.2, 0.55, np.nan, np.inf])
    vv, ww = np.meshgrid(vs, ws, indexing="ij")
    with np.errstate(invalid="ignore"):
        batch = forward_simulate(state, vv, ww, N_STEPS, DT)
        assert same_bits(batch, chained(arc_step, state, vv, ww))
        for b in np.ndindex(vv.shape):
            single = forward_simulate(state, float(vv[b]), float(ww[b]), N_STEPS, DT)
            assert same_bits(single, batch[b]), (vv[b], ww[b])


@pytest.mark.parametrize("theta", THETA0)
def test_shapes_scalar_1d_2d(theta):
    state = RobotState(0.5, 0.25, theta)
    vs, ws = lattice(-3.0, 3.0)
    grid = forward_simulate(state, vs, ws, N_STEPS, DT)
    flat = forward_simulate(state, vs.ravel(), ws.ravel(), N_STEPS, DT)
    assert flat.shape == (vs.size, N_STEPS + 1, 4)
    assert same_bits(flat.reshape(grid.shape), grid)
    for b in (0, 37, 120, vs.size - 1):
        single = forward_simulate(state, float(vs.flat[b]), float(ws.flat[b]), N_STEPS, DT)
        assert single.shape == (N_STEPS + 1, 4)
        assert same_bits(single, flat[b])
        assert same_bits(single, chained(arc_step, state, vs.flat[b], ws.flat[b]))
    broadcast = forward_simulate(state, 0.3, ws[0], N_STEPS, DT)
    assert same_bits(broadcast, chained(arc_step, state, 0.3, ws[0]))


@pytest.mark.parametrize("theta", THETA0)
def test_lattice_equals_chained_robot_steps(theta):
    state = RobotState(3.75, -1.5, theta)
    vs, ws = lattice(-2.0, 2.0)
    batch = forward_simulate(state, vs, ws, N_STEPS, DT)
    for b in np.ndindex(vs.shape):
        s, cmd = state, VelocityCommand(float(vs[b]), float(ws[b]))
        rows = [(s.x, s.y, s.theta, 0.0)]
        for k in range(1, N_STEPS + 1):
            s = step(s, cmd, DT)
            rows.append((s.x, s.y, s.theta, k * DT))
        assert same_bits(batch[b], np.array(rows)), b


def test_arc_step_equals_one_expression_formula(rng):
    n = 20000
    x, y = rng.uniform(-20.0, 20.0, (2, n))
    theta = rng.uniform(-math.pi, math.pi, n)
    v = rng.uniform(-0.6, 0.6, n)
    w = np.concatenate([rng.uniform(-3.0, 3.0, n - 8),
                        [0.0, -0.0, 1e-13, -1e-13, 1e-11, -1e-11, 2e-11, -2e-11]])
    for dt in (0.1, 0.2, 0.05, 1.0 / 3.0):
        for got, want in zip(arc_step(x, y, theta, v, w, dt),
                             formula_arc_step(x, y, theta, v, w, dt)):
            assert same_bits(got, want)
    for b in range(0, n, 997):
        args = (float(x[b]), float(y[b]), float(theta[b]), float(v[b]), float(w[b]), DT)
        got, want = arc_step(*args), formula_arc_step(*args)
        assert [float(a) for a in got] == [float(a) for a in want]
        assert type(got[2]) is float


def test_arc_terms_reject_non_positive_dt():
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError):
            arc_terms(0.3, 0.5, dt)
        with pytest.raises(ValueError):
            arc_step(0.0, 0.0, 0.0, 0.3, 0.5, dt)
        with pytest.raises(ValueError):
            forward_simulate(RobotState(), 0.3, 0.5, 4, dt)


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, -1e-310, 1.0, -1.0, 0.5, -3.25, 1e300])


@pytest.mark.parametrize("name, fn", [("_atan2", math.atan2), ("_hypot", math.hypot)])
def test_elementwise_math_equals_math_per_element(name, fn, rng):
    apply = getattr(common, name)
    a, b = np.meshgrid(SPECIAL, SPECIAL, indexing="ij")
    got = apply(a, b)
    assert got.shape == a.shape and got.dtype == np.float64
    want = np.array([fn(p, q) for p, q in zip(a.ravel().tolist(), b.ravel().tolist())])
    assert same_bits(got.ravel(), want)

    p, q = rng.normal(size=(2, 40, 7)) * 10.0 ** rng.integers(-8, 8, (2, 40, 7))
    want = np.array([fn(s, t) for s, t in zip(p.ravel().tolist(), q.ravel().tolist())])
    assert same_bits(apply(p, q), want.reshape(p.shape))
    assert same_bits(apply(p[:, :1], q[0]), np.vectorize(fn)(p[:, :1], q[0]))

    for s in SPECIAL.tolist():
        for t in (0.0, -0.0, np.nan, 2.0):
            scalar = apply(s, t)
            assert isinstance(scalar, np.ndarray) and scalar.ndim == 0
            assert same_bits(scalar, np.float64(fn(s, t)))
    assert apply(np.empty((0, 3)), 1.0).shape == (0, 3)


def frozen_by_gather(req, v, omega, n_steps, dt):
    """rollout_for_scoring with an explicit per-step index and a gather."""
    traj = forward_simulate(req.robot, v, omega, n_steps, dt)
    d = np.hypot(traj[..., 0] - req.goal[0], traj[..., 1] - req.goal[1])
    k = np.argmin(d, axis=-1)
    closer = np.take_along_axis(d, k[..., None], axis=-1)[..., 0] < d[..., -1]
    end = np.where((k < n_steps) & closer, np.maximum(k, 1), n_steps)
    held = np.minimum(np.arange(n_steps + 1), end[..., None])
    return np.take_along_axis(traj, held[..., None], axis=-2), end


def request(robot, goal):
    grid = OccupancyGrid.full_free(40, 40, 0.1)
    field = distance_transform(grid, UnknownAs.OCCUPIED)
    ref = GlobalPath(((robot.x, robot.y), goal[:2]), 1.0)
    return LocalPlanRequest(grid, field, robot, ref, goal, KinematicLimits(), 0.2)


def test_freeze_by_mask_equals_gather(rng):
    vs, ws = lattice(-1.5, 1.5)
    # zero speed: every step ties at the closest approach
    vs = np.concatenate([vs, np.zeros((1, 21)), np.full((1, 21), 1e-300)])
    ws = np.concatenate([ws, ws[:2]])
    for trial in range(60):
        robot = RobotState(*rng.uniform(1.5, 2.5, 2).tolist(), float(rng.uniform(-math.pi, math.pi)))
        ang, dist = rng.uniform(-math.pi, math.pi), rng.uniform(0.0, 1.5)
        goal = (robot.x + dist * math.cos(ang), robot.y + dist * math.sin(ang), 0.0)
        if trial % 10 == 0:
            goal = (robot.x, robot.y, 0.0)  # the start is the closest pose
        req = request(robot, goal)
        for n_steps in (1, 2, 8, N_STEPS):
            got, end = common.rollout_for_scoring(req, vs, ws, n_steps, DT)
            want, want_end = frozen_by_gather(req, vs, ws, n_steps, DT)
            assert same_bits(end, want_end) and same_bits(got, want)
    single = common.rollout_for_scoring(req, 0.3, -0.4, N_STEPS, DT)
    gathered = frozen_by_gather(req, 0.3, -0.4, N_STEPS, DT)
    assert same_bits(single[0], gathered[0]) and same_bits(single[1], gathered[1])


def test_freeze_with_nan_distances():
    req = request(RobotState(2.0, 2.0, 0.5), (2.6, 2.3, 0.0))
    vs = np.array([0.3, np.nan, 0.2, 0.0])
    ws = np.array([np.nan, 0.2, np.inf, 0.0])
    with np.errstate(invalid="ignore"):
        got, end = common.rollout_for_scoring(req, vs, ws, N_STEPS, DT)
        want, want_end = frozen_by_gather(req, vs, ws, N_STEPS, DT)
    assert same_bits(end, want_end) and same_bits(got, want)
