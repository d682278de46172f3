"""The lidar march and the Catmull-Rom sampler against copies of their
previous, straightforward forms.

`_march` steps flat indices into a padded code array and compacts its live
rays; `sample_field` gathers its 4x4 stencil from a padded copy cached on the
field.  Both feed every tick's simulated rows, so equality here is bitwise
(`tobytes`, plus type and shape).
"""

import math

import numpy as np
import pytest

import navbench.gridmap as gridmap
from navbench.gridmap import (INF_SENTINEL_M, CellState, DistanceField, OccupancyGrid,
                              OutOfBoundsError, _catmull_rom_dweights, _catmull_rom_weights,
                              _march, distance_at, distance_at_clamped, raycast,
                              sample_field)

DIAG = math.sqrt(0.5)


def old_march(grid, px, py, dx, dy, t_stop, blocking):
    """`_march` as it was: every step re-gathers the active rays by index."""
    ox, oy = grid.origin
    res = grid.resolution
    w, h = grid.width, grid.height
    ix = np.floor((px - ox) / res).astype(np.int64)
    iy = np.floor((py - oy) / res).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        tdx = np.where(dx != 0.0, res / np.abs(dx), np.inf)
        tdy = np.where(dy != 0.0, res / np.abs(dy), np.inf)
        bx = ox + np.where(dx > 0, ix + 1, ix) * res
        by = oy + np.where(dy > 0, iy + 1, iy) * res
        tmx = np.where(dx != 0.0, (bx - px) / dx, np.inf)
        tmy = np.where(dy != 0.0, (by - py) / dy, np.inf)
    tmx = np.where(np.isnan(tmx), np.inf, tmx)
    tmy = np.where(np.isnan(tmy), np.inf, tmy)
    sx = np.sign(dx).astype(np.int64)
    sy = np.sign(dy).astype(np.int64)

    t_stop = np.broadcast_to(t_stop, ix.shape)
    t_entry = np.zeros(ix.shape)
    t_hit = np.full(ix.shape, np.inf)
    traversed = np.zeros(h * w, dtype=bool)
    blocks = None if blocking is None else blocking.ravel()
    active = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h) & (t_stop > 0)
    while active.any():
        idx = np.nonzero(active)[0]
        cell = iy[idx] * w + ix[idx]
        traversed[cell] = True
        if blocks is not None:
            hit = blocks[cell]
            if hit.any():
                hidx = idx[hit]
                t_hit[hidx] = t_entry[hidx]
                active[hidx] = False
                idx = idx[~hit]
                if idx.size == 0:
                    continue
        step_x = tmx[idx] <= tmy[idx]
        xs_i = idx[step_x]
        ys_i = idx[~step_x]
        t_entry[xs_i] = tmx[xs_i]
        ix[xs_i] += sx[xs_i]
        tmx[xs_i] += tdx[xs_i]
        t_entry[ys_i] = tmy[ys_i]
        iy[ys_i] += sy[ys_i]
        tmy[ys_i] += tdy[ys_i]
        dead = (t_entry[idx] >= t_stop[idx]) | (ix[idx] < 0) | (ix[idx] >= w) \
            | (iy[idx] < 0) | (iy[idx] >= h)
        active[idx[dead]] = False
    return t_hit, traversed.reshape(h, w)


def old_sample_field(field, xs, ys, *, with_gradient=False, floor=True):
    """`sample_field` as it was: clipped index arrays and 16 2-D gathers."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    ox, oy = field.origin
    res = field.resolution
    w, h = field.width, field.height

    u_raw = (xs - ox) / res - 0.5
    v_raw = (ys - oy) / res - 0.5
    u = np.clip(u_raw, 0.0, w - 1.0)
    v = np.clip(v_raw, 0.0, h - 1.0)
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    fu = u - i0
    fv = v - j0

    vals = field.values
    if not np.isfinite(vals).all():
        vals = np.where(np.isfinite(vals), vals,
                        np.where(vals > 0, INF_SENTINEL_M, -INF_SENTINEL_M))

    wu = _catmull_rom_weights(fu)
    wv = _catmull_rom_weights(fv)
    cols = [np.clip(i0 + k - 1, 0, w - 1) for k in range(4)]
    rows = [np.clip(j0 + k - 1, 0, h - 1) for k in range(4)]

    value = np.zeros_like(u)
    row_vals = []
    for j in range(4):
        acc = np.zeros_like(u)
        for i in range(4):
            acc += wu[i] * vals[rows[j], cols[i]]
        row_vals.append(acc)
        value += wv[j] * acc
    raw = value
    if floor:
        value = np.maximum(raw, 0.0)

    if not with_gradient:
        return value

    dwu = _catmull_rom_dweights(fu)
    dwv = _catmull_rom_dweights(fv)
    dvalue_du = np.zeros_like(u)
    dvalue_dv = np.zeros_like(u)
    for j in range(4):
        acc_du = np.zeros_like(u)
        for i in range(4):
            acc_du += dwu[i] * vals[rows[j], cols[i]]
        dvalue_du += wv[j] * acc_du
        dvalue_dv += dwv[j] * row_vals[j]
    gx = dvalue_du / res
    gy = dvalue_dv / res
    inside_x = (u_raw > 0.0) & (u_raw < w - 1.0)
    inside_y = (v_raw > 0.0) & (v_raw < h - 1.0)
    live = (raw > 0.0) if floor else np.ones_like(raw, dtype=bool)
    gx = np.where(inside_x & live, gx, 0.0)
    gy = np.where(inside_y & live, gy, 0.0)
    return value, gx, gy


def assert_same(got, want, what):
    """Bitwise equality, with the same type and shape."""
    assert type(got) is type(want), what
    assert np.shape(got) == np.shape(want), what
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), what


def assert_march_same(grid, px, py, dx, dy, t_stop, blocking, what):
    got = _march(grid, px, py, dx, dy, t_stop, blocking)
    want = old_march(grid, px, py, dx, dy, t_stop, blocking)
    assert_same(got[0], want[0], what)
    assert_same(got[1], want[1], what)
    return got


def _grid(rng, w, h, p_occ):
    res = float(rng.choice([0.05, 0.1, 0.25]))
    origin = (float(rng.normal()), float(rng.normal()))
    cells = np.where(rng.random((h, w)) < p_occ, np.uint8(CellState.OCCUPIED),
                     np.uint8(CellState.FREE))
    return OccupancyGrid(w, h, res, origin, cells)


# ---------------------------------------------------------------------------
# _march


@pytest.mark.parametrize("per_ray", [False, True])
@pytest.mark.parametrize("blocked", [False, True])
def test_march_matches_parent_on_random_grids(blocked, per_ray):
    rng = np.random.default_rng(90 + 2 * blocked + per_ray)
    sizes = [(1, 1), (1, 60), (60, 1), (60, 60), (2, 3)]
    sizes += [tuple(int(s) for s in rng.integers(1, 61, size=2)) for _ in range(55)]
    for w, h in sizes:
        grid = _grid(rng, w, h, rng.uniform(0.0, 0.5))
        n = int(rng.integers(1, 80))
        # Starts reach a fifth of the grid beyond each side.
        px = grid.origin[0] + rng.uniform(-0.2, 1.2, n) * grid.size_x
        py = grid.origin[1] + rng.uniform(-0.2, 1.2, n) * grid.size_y
        ang = rng.uniform(-math.pi, math.pi, n)
        span = 1.5 * max(grid.size_x, grid.size_y)
        t_stop = rng.uniform(-0.3 * span, span, n) if per_ray else float(rng.uniform(0, span))
        if per_ray:
            t_stop[rng.random(n) < 0.1] = 0.0
        blocking = (grid.cells == CellState.OCCUPIED if blocked
                    else np.zeros((h, w), dtype=bool))
        assert_march_same(grid, px, py, np.cos(ang), np.sin(ang), t_stop, blocking, (w, h))


def test_march_nonpositive_scalar_stop_marches_nothing():
    rng = np.random.default_rng(3)
    grid = _grid(rng, 20, 15, 0.2)
    px = np.full(9, grid.origin[0] + 0.55 * grid.size_x)
    py = np.full(9, grid.origin[1] + 0.45 * grid.size_y)
    ang = np.linspace(-math.pi, math.pi, 9)
    for t_stop in (0.0, -1.0):
        t_hit, seen = assert_march_same(grid, px, py, np.cos(ang), np.sin(ang), t_stop,
                                        grid.cells == CellState.OCCUPIED, t_stop)
        assert np.isinf(t_hit).all() and not seen.any()


def test_march_stop_short_of_the_first_wall():
    """A wall cell entered at t >= t_stop is neither hit nor traversed."""
    cells = np.zeros((3, 12), dtype=np.uint8)
    cells[:, 8] = CellState.OCCUPIED
    grid = OccupancyGrid(12, 3, 0.5, (0.0, 0.0), cells)
    blocking = grid.cells == CellState.OCCUPIED
    # From x = 1.25 the wall column (x = 4.0) is entered at t = 2.75.
    px, py = np.full(5, 1.25), np.full(5, 0.75)
    dx, dy = np.ones(5), np.zeros(5)
    t_stop = np.array([2.0, 2.75, np.nextafter(2.75, 3.0), 3.0, 10.0])
    t_hit, seen = assert_march_same(grid, px, py, dx, dy, t_stop, blocking, "short")
    assert list(t_hit) == [np.inf, np.inf, 2.75, 2.75, 2.75]
    t_hit, seen = assert_march_same(grid, px[:2], py[:2], dx[:2], dy[:2], t_stop[:2],
                                    blocking, "short only")
    assert not seen[:, 8].any()
    assert seen[1, 2:8].all()


def test_march_rays_starting_outside_the_grid():
    rng = np.random.default_rng(5)
    grid = _grid(rng, 17, 11, 0.1)
    ox, oy = grid.origin
    px = np.array([ox - 0.01, ox + grid.size_x, ox + grid.size_x + 1.0, ox + 0.3, ox - 5.0])
    py = np.array([oy + 0.3, oy + 0.3, oy - 2.0, oy + grid.size_y, oy - 5.0])
    ang = np.array([0.0, math.pi, math.pi / 2, -math.pi / 2, math.pi / 4])
    t_hit, seen = assert_march_same(grid, px, py, np.cos(ang), np.sin(ang), 100.0,
                                    grid.cells == CellState.OCCUPIED, "outside")
    assert np.isinf(t_hit).all() and not seen.any()


def test_march_corner_starts_axis_and_diagonal_headings():
    """Starts on cell corners: the crossings tie, and x steps first on a tie."""
    rng = np.random.default_rng(6)
    headings = (0.0, math.pi / 2, -math.pi / 2, math.pi, math.pi / 4, -math.pi / 4)
    # Exact diagonals as well: cos(pi/4) and sin(pi/4) differ by one ulp, so
    # only equal components tie at every crossing.
    dirs = [(math.cos(a), math.sin(a)) for a in headings]
    dirs += [(DIAG, DIAG), (-DIAG, DIAG), (DIAG, -DIAG), (-DIAG, -DIAG)]
    dx, dy = (np.array(c) for c in zip(*dirs))
    for w, h in [(1, 1), (5, 5), (31, 17), (60, 60)]:
        for blocked in (False, True):
            grid = _grid(rng, w, h, 0.05)
            cx = rng.integers(0, w + 1, 6)
            cy = rng.integers(0, h + 1, 6)
            for x, y in zip(grid.origin[0] + cx * grid.resolution,
                            grid.origin[1] + cy * grid.resolution):
                n = dx.size
                assert_march_same(grid, np.full(n, x), np.full(n, y), dx, dy,
                                  2.0 * max(grid.size_x, grid.size_y),
                                  grid.cells == CellState.OCCUPIED if blocked
                                  else np.zeros((h, w), dtype=bool),
                                  (w, h, x, y, blocked))


def test_march_tie_steps_x_first():
    grid = OccupancyGrid.full_free(4, 4, 1.0)
    _, seen = _march(grid, np.array([0.0]), np.array([0.0]), np.array([DIAG]),
                     np.array([DIAG]), 3.0, np.zeros((4, 4), dtype=bool))
    want = np.zeros((4, 4), dtype=bool)
    want[0, 0] = want[0, 1] = want[1, 1] = want[1, 2] = want[2, 2] = True
    assert (seen == want).all()


def test_raycast_matches_parent_in_suite_scenes(scenes, monkeypatch):
    assert len(scenes) == 8
    rng = np.random.default_rng(11)
    cases = []
    for scn in scenes.values():
        grid = scn.map
        iy, ix = np.nonzero(grid.cells == CellState.FREE)
        for k in range(20):
            j = rng.integers(ix.size)
            if k % 2 == 0:
                x, y = grid.cell_center(ix[j], iy[j])
            else:
                x = grid.origin[0] + ix[j] * grid.resolution
                y = grid.origin[1] + iy[j] * grid.resolution
            cases.append((scn, (x, y, float(rng.uniform(-math.pi, math.pi)))))
    names = ("ranges", "seen", "hit")
    # A scan marches when it is first read, so `got` is read before `_march`
    # is swapped for `old_march`.
    got = [[getattr(raycast(scn.map, pose, scn.scan_spec), n) for n in names]
           for scn, pose in cases]
    monkeypatch.setattr(gridmap, "_march", old_march)
    want = [raycast(scn.map, pose, scn.scan_spec) for scn, pose in cases]
    assert len(cases) == 160
    for g, w_, (scn, pose) in zip(got, want, cases):
        for name, arr in zip(names, g):
            assert_same(arr, getattr(w_, name), (scn.name, pose, name))


# ---------------------------------------------------------------------------
# sample_field


def _fields(rng):
    """(name, DistanceField) cases: finite, +inf, -inf, all +inf, thin shapes."""
    out = []
    for name, (w, h) in [("square", (9, 7)), ("1xN", (13, 1)), ("Nx1", (1, 13)),
                         ("1x1", (1, 1)), ("2x2", (2, 2)), ("wide", (40, 25))]:
        vals = rng.normal(0.5, 1.0, (h, w))
        pos = vals.copy()
        pos[rng.random((h, w)) < 0.3] = np.inf
        both = pos.copy()
        both[rng.random((h, w)) < 0.3] = -np.inf
        for kind, v in [("finite", vals), ("+inf", pos), ("+-inf", both),
                        ("all +inf", np.full((h, w), np.inf))]:
            field = DistanceField(w, h, 0.1, (-0.3, 0.2), v)
            out.append((f"{name} {kind}", field))
    return out


def _queries(rng, field):
    """0-d, 1-D and 2-D queries over and beyond the grid, with NaN and +-inf."""
    ox, oy = field.origin

    def pts(shape):
        return (ox + rng.uniform(-0.3, 1.3, shape) * field.size_x,
                oy + rng.uniform(-0.3, 1.3, shape) * field.size_y)

    xs, ys = pts((40,))
    xs[:6] = [np.nan, 0.0, np.inf, -np.inf, np.nan, ox]
    ys[:6] = [0.0, np.nan, -np.inf, np.inf, np.nan, oy]
    qx, qy = pts((6, 5))
    qx[0, 0] = np.nan
    cx, cy = field.cell_center(field.width - 1, field.height - 1)
    return [pts(()), (float(cx), float(cy)), (np.float64(np.nan), 0.0), (xs, ys), (qx, qy),
            (list(xs[:3]), list(ys[:3]))]


@pytest.mark.parametrize("floor", [True, False])
@pytest.mark.parametrize("with_gradient", [False, True])
def test_sample_field_matches_parent(with_gradient, floor):
    rng = np.random.default_rng(20 + 2 * with_gradient + floor)
    for name, field in _fields(rng):
        for q, (xs, ys) in enumerate(_queries(rng, field)):
            # The old form casts a NaN to an int64 index and overflows.
            with np.errstate(invalid="ignore", over="ignore"):
                want = old_sample_field(field, xs, ys, with_gradient=with_gradient, floor=floor)
            got = sample_field(field, xs, ys, with_gradient=with_gradient, floor=floor)
            if not with_gradient:
                got, want = (got,), (want,)
            assert len(got) == len(want)
            for g, w_ in zip(got, want):
                assert_same(g, w_, (name, q))


def test_sample_field_nan_and_inf_queries():
    rng = np.random.default_rng(4)
    field = DistanceField(6, 5, 0.2, (1.0, -1.0), rng.uniform(0.5, 2.0, (5, 6)))
    v, gx, gy = sample_field(field, np.array([np.nan, 1.5]), np.array([0.0, np.nan]),
                             with_gradient=True)
    assert np.isnan(v).all()
    assert (gx == 0.0).all() and (gy == 0.0).all()
    # +-inf snaps to the border, like any other out-of-grid coordinate.
    lo = sample_field(field, -np.inf, -np.inf)
    hi = sample_field(field, np.inf, np.inf)
    assert lo == sample_field(field, 1.0, -1.0)
    assert hi == sample_field(field, 1.0 + 6 * 0.2, -1.0 + 5 * 0.2)
    assert np.isfinite([lo, hi]).all()


def test_distance_field_values_are_a_read_only_copy():
    """`values` views the padded stencil copy: it must still equal the input
    bit for bit, +-inf included, and be detached from it and read-only."""
    rng = np.random.default_rng(9)
    given = rng.normal(size=(7, 4))
    given[0, 0], given[3, 2] = np.inf, -np.inf
    field = DistanceField(4, 7, 0.1, (0.0, 0.0), given)
    assert field.values.shape == (7, 4)
    assert field.values.tobytes() == given.tobytes()
    given[1, 1] = 99.0
    assert field.values[1, 1] != 99.0
    with pytest.raises(ValueError):
        field.values[2, 2] = 0.0


def test_distance_at_is_the_clamped_sample_inside():
    rng = np.random.default_rng(2)
    field = DistanceField(8, 6, 0.5, (0.0, 0.0), rng.uniform(0.0, 3.0, (6, 8)))
    for x, y in rng.uniform(0.0, 3.0, (25, 2)):
        got = distance_at(field, x, y)
        assert type(got) is float
        assert got == distance_at_clamped(field, x, y)
    with pytest.raises(OutOfBoundsError):
        distance_at(field, 4.0, 1.0)
    # x = 4.0 is past the last cell centre (3.75), so it snaps there.
    assert distance_at_clamped(field, 4.0, 1.0) == distance_at(field, 3.75, 1.0)
