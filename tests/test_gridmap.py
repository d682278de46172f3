import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navbench.errors import OutOfBoundsError, ParseError, ValidationError
from navbench.gridmap import (CellState, DistanceField, OccupancyGrid, ScanSpec,
                              UnknownAs, beam_count, crop_local, distance_at,
                              distance_transform, integrate_scan, load_grid,
                              mask_unknown_region, raycast, sample_field,
                              save_grid, signed_distance_field)
from navbench.world import load_scenario

from conftest import brute_force_distance, random_grid


def grid_from_rows(rows, resolution=1.0, origin=(0.0, 0.0)):
    lut = {".": CellState.FREE, "#": CellState.OCCUPIED, "?": CellState.UNKNOWN}
    cells = np.array([[lut[c] for c in row] for row in rows], dtype=np.uint8)
    return OccupancyGrid(cells.shape[1], cells.shape[0], resolution, origin, cells)


# ---------------------------------------------------------------------------
# distance transform


def test_single_obstacle_distances():
    g = grid_from_rows(["....."] * 5)
    cells = np.array(g.cells)
    cells[2, 2] = CellState.OCCUPIED
    f = distance_transform(g.with_cells(cells))
    assert f.values[2, 2] == 0.0
    assert f.values[2, 3] == pytest.approx(1.0, abs=1e-12)
    assert f.values[4, 4] == pytest.approx(math.sqrt(8.0), abs=1e-12)


def test_all_free_grid_is_infinite():
    f = distance_transform(grid_from_rows(["...", "...", "..."]))
    assert np.isinf(f.values).all()


def test_random_grid_matches_brute_force(rng):
    g = random_grid(rng, 50, 50, resolution=1.0, p_occ=0.1)
    f = distance_transform(g)
    expected = brute_force_distance(g)
    assert np.max(np.abs(f.values - expected)) <= 1e-9


def test_exhaustive_3x3_occupancies():
    for bits in range(512):
        cells = np.array([(bits >> k) & 1 for k in range(9)],
                         dtype=np.uint8).reshape(3, 3)
        g = OccupancyGrid(3, 3, 0.5, (0.0, 0.0), cells)
        f = distance_transform(g)
        expected = brute_force_distance(g)
        assert np.allclose(f.values, expected, atol=1e-9, equal_nan=False) or \
            (np.isinf(expected).all() and np.isinf(f.values).all())


def test_unknown_policy():
    g = grid_from_rows(["?..", "...", "..."])
    assert np.isinf(distance_transform(g, UnknownAs.FREE).values).all()
    f = distance_transform(g, UnknownAs.OCCUPIED)
    assert f.values[0, 0] == 0.0


def test_signed_field_treats_unknown_as_occupied():
    g = grid_from_rows(["??..", "....", "...."])
    f = signed_distance_field(g)
    assert f.values[0, 0] == f.values[0, 1] == -1.0
    assert f.values[0, 2] == 1.0 and f.values[2, 3] == pytest.approx(math.hypot(2, 2))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 64), st.integers(2, 64))
def test_distance_property_grids(seed, w, h):
    rng = np.random.default_rng(seed)
    g = random_grid(rng, w, h, resolution=0.25, p_occ=0.15)
    f = distance_transform(g)
    expected = brute_force_distance(g)
    both_inf = np.isinf(f.values) & np.isinf(expected)
    with np.errstate(invalid="ignore"):
        diff = np.where(both_inf, 0.0, np.abs(f.values - expected))
    assert diff.max() <= 1e-9


def test_distance_field_lipschitz(rng):
    g = random_grid(rng, 30, 30, resolution=0.1, p_occ=0.1)
    f = distance_transform(g)
    v = f.values
    for dy, dx in ((0, 1), (1, 0), (1, 1)):
        a = v[dy:, dx:]
        b = v[:v.shape[0] - dy, :v.shape[1] - dx]
        step = math.hypot(dx, dy) * g.resolution
        finite = np.isfinite(a) & np.isfinite(b)
        assert (np.abs(a - b)[finite] <= step + 1e-9).all()


# ---------------------------------------------------------------------------
# interpolation


def synthetic_field(values, resolution=1.0, origin=(0.0, 0.0)):
    arr = np.asarray(values, dtype=np.float64)
    return DistanceField(arr.shape[1], arr.shape[0], resolution, origin, arr)


def test_interpolation_reproduces_nodes(rng):
    g = random_grid(rng, 12, 9, resolution=0.3, p_occ=0.2)
    f = distance_transform(g)
    for iy in range(g.height):
        for ix in range(g.width):
            cx, cy = g.cell_center(ix, iy)
            assert distance_at(f, cx, cy) == pytest.approx(f.values[iy, ix], abs=1e-12)


def test_interpolation_linear_ramp_exact():
    res = 0.5
    vals = np.tile((np.arange(8) + 0.5) * res, (6, 1))  # value = x [m]
    f = synthetic_field(vals, resolution=res)
    # query at x = 1.5 cells from the first center, well inside the grid
    x = (1.5 + 0.5) * res
    assert distance_at(f, x, 3 * res) == pytest.approx(1.5 * res + 0.5 * res, abs=1e-12)
    # ramp along y as well
    vals_y = np.tile(((np.arange(6) + 0.5) * res)[:, None], (1, 8))
    fy = synthetic_field(vals_y, resolution=res)
    assert distance_at(fy, 2.0, (2.5 + 0.5) * res) == pytest.approx(2.5 * res + 0.5 * res, abs=1e-12)


def test_interpolation_out_of_bounds():
    f = synthetic_field(np.ones((4, 4)))
    with pytest.raises(OutOfBoundsError):
        distance_at(f, -1.0, -1.0)


def test_interpolation_continuity(rng):
    g = random_grid(rng, 25, 25, resolution=0.1, p_occ=0.12)
    f = distance_transform(g)
    pts = rng.uniform(0.05, 2.45, size=(200, 2))
    for x, y in pts:
        base = distance_at(f, x, y)
        for dx, dy in ((1e-6, 0), (0, 1e-6), (-1e-6, 0), (0, -1e-6)):
            assert abs(distance_at(f, x + dx, y + dy) - base) <= 1e-3


def test_interpolation_nonnegative(rng):
    g = random_grid(rng, 20, 20, resolution=0.1, p_occ=0.3)
    f = distance_transform(g)
    xs = rng.uniform(0.0, 1.999, size=500)
    ys = rng.uniform(0.0, 1.999, size=500)
    assert (sample_field(f, xs, ys) >= 0.0).all()


def test_gradient_matches_finite_differences(rng):
    g = random_grid(rng, 20, 20, resolution=0.2, p_occ=0.15)
    f = distance_transform(g)
    pts = rng.uniform(0.8, 3.2, size=(50, 2))
    h = 1e-6
    for x, y in pts:
        val, gx, gy = sample_field(f, x, y, with_gradient=True)
        fx = (distance_at(f, x + h, y) - distance_at(f, x - h, y)) / (2 * h)
        fy = (distance_at(f, x, y + h) - distance_at(f, x, y - h)) / (2 * h)
        assert gx == pytest.approx(fx, abs=1e-4)
        assert gy == pytest.approx(fy, abs=1e-4)


# ---------------------------------------------------------------------------
# raycasting


def test_raycast_flat_wall():
    rows = ["." * 30] * 20
    g = grid_from_rows(rows, resolution=0.1)
    cells = np.array(g.cells)
    cells[:, 20] = CellState.OCCUPIED  # wall face at x = 2.0
    g = g.with_cells(cells)
    scan = raycast(g, (1.0, 1.0, 0.0), ScanSpec())
    center = len(scan.ranges) // 2
    assert scan.ranges[center] == pytest.approx(1.0, abs=0.05)


def test_raycast_empty_world_sentinel():
    g = OccupancyGrid.full_free(40, 40, 0.1)
    spec = ScanSpec()
    scan = raycast(g, (2.0, 2.0, 0.5), spec)
    assert (scan.ranges == spec.range_max).all()
    assert len(scan.ranges) == 1081


def test_raycast_pose_outside():
    g = OccupancyGrid.full_free(10, 10, 0.1)
    with pytest.raises(OutOfBoundsError):
        raycast(g, (5.0, 5.0, 0.0), ScanSpec())


def _dense_march_oracle(grid, pose, spec):
    """Fixed-step ray march at resolution/10."""
    x, y, th = pose
    n = beam_count(spec)
    out = np.full(n, spec.range_max)
    step = grid.resolution / 10.0
    ts = np.arange(spec.range_min, spec.range_max + step, step)
    for k in range(n):
        a = th + spec.angle_min + k * spec.angle_increment
        px = x + ts * math.cos(a)
        py = y + ts * math.sin(a)
        ix = np.floor((px - grid.origin[0]) / grid.resolution).astype(int)
        iy = np.floor((py - grid.origin[1]) / grid.resolution).astype(int)
        inside = (ix >= 0) & (ix < grid.width) & (iy >= 0) & (iy < grid.height)
        hit = inside & (grid.cells[np.clip(iy, 0, grid.height - 1),
                                   np.clip(ix, 0, grid.width - 1)] == CellState.OCCUPIED)
        nz = np.nonzero(hit)[0]
        if nz.size:
            out[k] = ts[nz[0]]
    return out


def test_raycast_matches_dense_oracle(rng):
    spec = ScanSpec(angle_increment=math.radians(2.0), range_max=8.0)
    diag = math.sqrt(2.0) * 0.1
    for trial in range(20):
        g = random_grid(rng, 40, 40, resolution=0.1, p_occ=0.05)
        for _ in range(5):
            x, y = rng.uniform(0.5, 3.5, size=2)
            th = rng.uniform(-math.pi, math.pi)
            if g.state_at(x, y) == CellState.OCCUPIED:
                continue
            scan = raycast(g, (x, y, th), spec)
            oracle = _dense_march_oracle(g, (x, y, th), spec)
            # Exact traversal can never hit later than the sampled march.
            assert (scan.ranges <= oracle + 1e-9).all()
            for k in np.nonzero(np.abs(scan.ranges - oracle) > diag + 1e-9)[0]:
                # The res/10 march can step over corner-clipped cells; the
                # earlier exact hit must then land inside a real obstacle.
                a = th + spec.angle_min + k * spec.angle_increment
                hx = x + (scan.ranges[k] + 1e-7) * math.cos(a)
                hy = y + (scan.ranges[k] + 1e-7) * math.sin(a)
                assert g.state_at(hx, hy) == CellState.OCCUPIED


def test_raycast_monotone_under_obstacle_insertion(rng):
    g = random_grid(rng, 30, 30, resolution=0.1, p_occ=0.03)
    pose = (1.5, 1.5, 0.3)
    if g.state_at(1.5, 1.5) == CellState.OCCUPIED:
        cells = np.array(g.cells)
        cells[15, 15] = CellState.FREE
        g = g.with_cells(cells)
    spec = ScanSpec(angle_increment=math.radians(1.0), range_max=5.0)
    base = raycast(g, pose, spec).ranges
    for _ in range(20):
        ix, iy = rng.integers(0, 30, size=2)
        cells = np.array(g.cells)
        cells[iy, ix] = CellState.OCCUPIED
        g2 = g.with_cells(cells)
        if g2.state_at(1.5, 1.5) == CellState.OCCUPIED:
            continue
        after = raycast(g2, pose, spec).ranges
        assert (after <= base + 1e-12).all()


# ---------------------------------------------------------------------------
# scan integration


def test_integrate_endpoint_becomes_occupied():
    rows = ["?" * 20] * 20
    g = grid_from_rows(rows, resolution=0.1)
    truth = OccupancyGrid.full_free(20, 20, 0.1)
    cells = np.array(truth.cells)
    cells[10, 15] = CellState.OCCUPIED
    truth = truth.with_cells(cells)
    pose = (0.55, 1.05, 0.0)
    scan = raycast(truth, pose, ScanSpec(range_max=5.0))
    merged = integrate_scan(g, scan)
    assert merged.cells[10, 15] == CellState.OCCUPIED
    # cells along the center beam before the hit became free
    assert merged.cells[10, 10] == CellState.FREE


def test_integrate_carves_unknown_free():
    g = grid_from_rows(["?" * 30] * 30, resolution=0.1)
    truth = OccupancyGrid.full_free(30, 30, 0.1)
    pose = (1.5, 1.5, 0.0)
    scan = raycast(truth, pose, ScanSpec(range_max=2.0))
    merged = integrate_scan(g, scan)
    assert merged.cells[15, 20] == CellState.FREE
    assert (merged.cells == CellState.FREE).sum() > 200


def test_integrate_idempotent(rng):
    truth = random_grid(rng, 30, 30, resolution=0.1, p_occ=0.08)
    prior = grid_from_rows(["?" * 30] * 30, resolution=0.1)
    pose = (1.55, 1.55, 0.7)
    if truth.state_at(*pose[:2]) == CellState.OCCUPIED:
        cells = np.array(truth.cells)
        cells[15, 15] = CellState.FREE
        truth = truth.with_cells(cells)
    scan = raycast(truth, pose, ScanSpec())
    once = integrate_scan(prior, scan)
    twice = integrate_scan(once, scan)
    assert np.array_equal(once.cells, twice.cells)


def test_integrate_never_demotes_occupied():
    g = grid_from_rows(["." * 20] * 20, resolution=0.1)
    cells = np.array(g.cells)
    cells[10, 5] = CellState.OCCUPIED  # prior obstacle on the beam path
    g = g.with_cells(cells)
    truth = OccupancyGrid.full_free(20, 20, 0.1)
    tc = np.array(truth.cells)
    tc[10, 15] = CellState.OCCUPIED
    truth = truth.with_cells(tc)
    pose = (0.15, 1.05, 0.0)
    scan = raycast(truth, pose, ScanSpec(range_max=5.0))
    merged = integrate_scan(g, scan)
    assert merged.cells[10, 5] == CellState.OCCUPIED


# ---------------------------------------------------------------------------
# masking and cropping


def test_mask_cell_count_for_rectangle():
    g = OccupancyGrid.full_free(200, 150, 0.1)
    masked = mask_unknown_region(g, (3.0, 3.0, 13.0, 7.7))
    count = (masked.cells == CellState.UNKNOWN).sum()
    expected = math.ceil(13.0 / 0.1) * math.ceil(7.7 / 0.1)
    assert abs(count - expected) <= 130 + 77 + 1  # one row/col of rounding slack


def test_mask_outside_grid():
    g = OccupancyGrid.full_free(10, 10, 0.1)
    with pytest.raises(ValidationError):
        mask_unknown_region(g, (5.0, 5.0, 1.0, 1.0))


def test_mask_whole_grid():
    g = OccupancyGrid.full_free(10, 10, 0.1)
    masked = mask_unknown_region(g, (-1.0, -1.0, 5.0, 5.0))
    assert (masked.cells == CellState.UNKNOWN).all()


def test_mask_degenerate_rect():
    g = OccupancyGrid.full_free(10, 10, 0.1)
    with pytest.raises(ValidationError):
        mask_unknown_region(g, (0.2, 0.2, 0.0, 1.0))


def test_crop_local_size():
    g = OccupancyGrid.full_free(200, 200, 0.1)
    sub = crop_local(g, (10.0, 10.0), 5.5)
    assert sub.width == 55 and sub.height == 55


def test_crop_corner_clamps():
    g = OccupancyGrid.full_free(100, 80, 0.1)
    sub = crop_local(g, (0.05, 0.05), 5.5)
    assert sub.width == 55 and sub.height == 55
    assert sub.origin == (0.0, 0.0)


def test_crop_values_roundtrip(rng):
    g = random_grid(rng, 80, 60, resolution=0.1, p_occ=0.2)
    sub = crop_local(g, (4.0, 3.0), 2.0)
    for iy in range(sub.height):
        for ix in range(sub.width):
            cx, cy = sub.cell_center(ix, iy)
            assert sub.cells[iy, ix] == g.cells[g.cell_index(cx, cy)[1],
                                                g.cell_index(cx, cy)[0]]


def test_crop_center_outside():
    g = OccupancyGrid.full_free(10, 10, 0.1)
    with pytest.raises(OutOfBoundsError):
        crop_local(g, (5.0, 0.5), 1.0)


# ---------------------------------------------------------------------------
# grid files


def test_grid_file_roundtrip(tmp_path, rng):
    g = random_grid(rng, 17, 9, resolution=0.05, origin=(-1.25, 3.5), p_occ=0.3)
    cells = np.array(g.cells)
    cells[0, 0] = CellState.UNKNOWN
    g = g.with_cells(cells)
    path = tmp_path / "map.grid"
    save_grid(g, path)
    g2 = load_grid(path)
    assert g2.width == g.width and g2.height == g.height
    assert g2.resolution == g.resolution and g2.origin == g.origin
    assert np.array_equal(g2.cells, g.cells)


def test_grid_file_rejects_ragged(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("grid 3 2 0.1 0 0\n...\n..\n")
    with pytest.raises(ParseError) as err:
        load_grid(path)
    assert err.value.line == 3


def test_grid_file_rejects_extra_rows(tmp_path):
    path = tmp_path / "extra.grid"
    path.write_text("grid 3 2 0.1 0 0\n...\n...\n\n")
    assert load_grid(path).height == 2  # trailing blank lines are fine
    for extra in ("...", "#"):  # a full row, and a row of the wrong width
        path.write_text(f"grid 3 2 0.1 0 0\n...\n...\n\n{extra}\n")
        with pytest.raises(ParseError) as err:
            load_grid(path)
        assert err.value.path == path and err.value.line == 5


def test_grid_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("grid 3 x 0.1 0 0\n")
    with pytest.raises(ParseError):
        load_grid(path)


def test_grid_file_bytes(tmp_path):
    g = OccupancyGrid(3, 2, 0.1, (0.0, -0.5), np.array([[0, 1, 2], [0, 0, 0]]))
    save_grid(g, tmp_path / "g.grid")
    assert (tmp_path / "g.grid").read_bytes() == b"grid 3 2 0.1 0 -0.5\n.#?\n...\n"


@pytest.mark.parametrize("rows, line, message", [
    # the first error in row order wins: a bad character in row 3 over a bad
    # length in row 7, a bad length in row 2 over a bad character in row 3
    ([".#.", "...", "..x", "...", "...", "...", "..", "..."], 4,
     "unknown cell character 'x'"),
    (["...", "..", "x..", "..."], 3, "row has 2 cells, expected 3"),
    (["...", ".é.", "..."], 3, "unknown cell character 'é'"),
    (["...", "...", "...."], 4, "row has 4 cells, expected 3"),
])
def test_grid_file_reports_its_first_bad_row(tmp_path, rows, line, message):
    path = tmp_path / "bad.grid"
    path.write_text("\n".join([f"grid 3 {len(rows)} 0.1 0 0"] + rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_grid(path)
    assert err.value.line == line and str(err.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("size", ["-3 2", "3 -2"])
def test_grid_file_rejects_a_negative_size(tmp_path, size):
    path = tmp_path / "bad.grid"
    path.write_text(f"grid {size} 0.1 0 0\n...\n...\n")
    with pytest.raises(ParseError) as err:
        load_grid(path)
    assert err.value.line == 1


@pytest.mark.parametrize("header, message", [
    ("grid 0 2 0.1 0 0", "grid must be at least 1x1"),
    ("grid 2 2 -0.1 0 0", "grid resolution must be positive"),
])
def test_grid_file_reports_a_bad_geometry_at_its_header(tmp_path, header, message):
    """Also when read through a scene: the error names the grid file."""
    path = tmp_path / "bad.grid"
    path.write_text(f"{header}\n..\n..\n")
    with pytest.raises(ParseError, match=message) as err:
        load_grid(path)
    assert err.value.path == path and err.value.line == 1
    (tmp_path / "bad.scene").write_text("name bad\nmap bad.grid\n")
    with pytest.raises(ParseError, match=message) as err:
        load_scenario(str(tmp_path / "bad.scene"))
    assert err.value.path == str(path) and err.value.line == 1


@pytest.mark.parametrize("values", ["nan 0 0", "0.1 inf 0", "0.1 0 -inf"])
def test_grid_file_rejects_a_non_finite_header_value(tmp_path, values):
    path = tmp_path / "bad.grid"
    path.write_text(f"grid 3 2 {values}\n...\n...\n")
    with pytest.raises(ParseError) as err:
        load_grid(path)
    assert err.value.line == 1
