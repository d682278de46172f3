"""Occupancy grids, Euclidean distance fields, lidar raycasting, and scan fusion.

Grids are immutable value objects; every operation returns a new grid.
World coordinates are meters, cell (0, 0) sits at the grid origin corner and
row 0 is the minimum-y row.  A scan marches its beams on first read; fusion
reads it only when it can change the map, and fuses the cells they crossed.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import OutOfBoundsError, ParseError, ValidationError, finite

# Stand-in for +inf when a field value has to be written to a text output.
INF_SENTINEL_M = 1.0e9


class CellState(enum.IntEnum):
    FREE = 0
    OCCUPIED = 1
    UNKNOWN = 2


# The codes as plain ints, for cell arrays: numpy compares an array with an
# IntEnum member several times slower than with an int.
FREE, OCCUPIED, UNKNOWN = map(int, CellState)


# Grid-file characters: ASCII code by cell state, and cell state by code point
# (255 for any other character; code points past 127 read entry 127).
_CHAR_CODES = np.frombuffer(b".#?", dtype=np.uint8)
_STATE_CODES = np.full(128, 255, dtype=np.uint8)
_STATE_CODES[_CHAR_CODES] = np.arange(_CHAR_CODES.size)


class UnknownAs(enum.Enum):
    """How a distance transform treats Unknown cells."""

    FREE = "free"
    OCCUPIED = "occupied"


@dataclass(frozen=True)
class GridGeometry:
    """Extent of a cell grid in the world: width x height cells of side
    `resolution` meters, with cell (0, 0) at `origin`."""

    width: int
    height: int
    resolution: float
    origin: tuple[float, float]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValidationError("grid must be at least 1x1")
        if not self.resolution > 0:
            raise ValidationError("grid resolution must be positive")

    @property
    def size_x(self) -> float:
        return self.width * self.resolution

    @property
    def size_y(self) -> float:
        return self.height * self.resolution

    def contains(self, x: float, y: float) -> bool:
        ox, oy = self.origin
        return ox <= x < ox + self.size_x and oy <= y < oy + self.size_y

    def cell_index(self, x: float, y: float) -> tuple[int, int]:
        """Cell (ix, iy) containing the world point; raises if outside."""
        if not self.contains(x, y):
            raise OutOfBoundsError(f"point ({x:.3f}, {y:.3f}) outside grid")
        ox, oy = self.origin
        ix = int(math.floor((x - ox) / self.resolution))
        iy = int(math.floor((y - oy) / self.resolution))
        return min(ix, self.width - 1), min(iy, self.height - 1)

    def cell_center(self, ix: int, iy: int) -> tuple[float, float]:
        ox, oy = self.origin
        return (ox + (ix + 0.5) * self.resolution, oy + (iy + 0.5) * self.resolution)


@dataclass(frozen=True)
class OccupancyGrid(GridGeometry):
    cells: np.ndarray  # (height, width) uint8 of CellState values

    def __post_init__(self):
        super().__post_init__()
        arr = np.asarray(self.cells, dtype=np.uint8)
        if arr.shape != (self.height, self.width):
            raise ValidationError(
                f"cells shape {arr.shape} does not match ({self.height}, {self.width})"
            )
        if arr.max(initial=0) > 2:
            raise ValidationError("cell values must be 0 (free), 1 (occupied) or 2 (unknown)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @classmethod
    def full_free(cls, width, height, resolution, origin=(0.0, 0.0)):
        return cls(width, height, resolution, origin,
                   np.zeros((height, width), dtype=np.uint8))

    def with_cells(self, cells: np.ndarray) -> "OccupancyGrid":
        return OccupancyGrid(self.width, self.height, self.resolution, self.origin, cells)

    def state_at(self, x: float, y: float) -> CellState:
        ix, iy = self.cell_index(x, y)
        return CellState(int(self.cells[iy, ix]))


@dataclass(frozen=True)
class DistanceField(GridGeometry):
    """Per-cell distance (meters) to the nearest occupied cell center."""

    values: np.ndarray  # (height, width) float64; +inf if the grid has no obstacle

    def __post_init__(self):
        super().__post_init__()
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.height, self.width):
            raise ValidationError("distance field shape mismatch")
        # A copy edge-padded by 1 cell before and 2 after on each axis, for
        # sample_field's stencils (+-inf read as +-INF_SENTINEL_M); values views it.
        pad = np.empty((self.height + 3, self.width + 3))
        pad[1:-2, 1:-2] = vals
        pad[1:-2, :1], pad[1:-2, -2:] = vals[:, :1], vals[:, -1:]
        pad[:1], pad[-2:] = pad[1:2], pad[-3:-2]
        vals = pad[1:-2, 1:-2]
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not np.isfinite(vals).all():
            pad = np.where(np.isfinite(pad), pad, np.where(pad > 0, INF_SENTINEL_M, -INF_SENTINEL_M))
        object.__setattr__(self, "_stencil", pad)


@dataclass(frozen=True)
class ScanSpec:
    """Planar lidar model: 270 degree fan, 0.25 degree steps, 0.1-30 m."""

    angle_min: float = -0.75 * math.pi
    angle_max: float = 0.75 * math.pi
    angle_increment: float = math.radians(0.25)
    range_min: float = 0.1
    range_max: float = 30.0

    def __post_init__(self):
        if self.angle_max <= self.angle_min:
            raise ValidationError("angle_max must exceed angle_min")
        if self.angle_increment <= 0:
            raise ValidationError("angle_increment must be positive")
        if not (0 <= self.range_min < self.range_max):
            raise ValidationError("need 0 <= range_min < range_max")


def beam_count(spec: ScanSpec) -> int:
    span = (spec.angle_max - spec.angle_min) / spec.angle_increment
    return int(math.floor(span + 1e-9)) + 1


@dataclass(frozen=True)
class LaserScan:
    """One lidar scan from `pose` (x, y, theta) against the grid `world`.

    Its read-only `ranges` (beam k at angle_min + k * angle_increment: entry
    distance into the first Occupied cell, else range_max), `seen` and `hit`
    ((height, width) bool: cells crossed, hit cells included, and cells stopped
    in) come from one exact march of the beams' cell crossings, on first read."""

    spec: ScanSpec
    world: OccupancyGrid
    pose: tuple[float, float, float]

    ranges = property(lambda self: self._cast[0])
    seen = property(lambda self: self._cast[1])
    hit = property(lambda self: self._cast[2])

    @functools.cached_property
    def _cast(self):
        x, y, theta = self.pose
        spec = self.spec
        ang = theta + spec.angle_min + spec.angle_increment * np.arange(beam_count(spec))
        dx, dy = np.cos(ang), np.sin(ang)
        occupied = self.world.cells == OCCUPIED
        t_hit, seen = _march(self.world, x + spec.range_min * dx, y + spec.range_min * dy,
                             dx, dy, spec.range_max - spec.range_min, occupied)
        out = (np.where(np.isfinite(t_hit), spec.range_min + t_hit, spec.range_max),
               seen, seen & occupied)
        for arr in out:
            arr.setflags(write=False)
        return out


# ---------------------------------------------------------------------------
# distance transform + interpolation


def _obstacles(grid: OccupancyGrid, unknown_as: UnknownAs) -> np.ndarray:
    """(height, width) mask of the cells a distance transform measures from."""
    if unknown_as is UnknownAs.OCCUPIED:
        return grid.cells != FREE
    return grid.cells == OCCUPIED


def distance_transform(grid: OccupancyGrid, unknown_as: UnknownAs = UnknownAs.FREE) -> DistanceField:
    """Exact Euclidean distance (m) from every cell center to the nearest
    occupied cell center.  Grids without any obstacle yield +inf everywhere."""
    occ = _obstacles(grid, unknown_as)
    if not occ.any():
        values = np.full((grid.height, grid.width), np.inf)
    else:
        values = ndimage.distance_transform_edt(~occ, sampling=grid.resolution)
    return DistanceField(grid.width, grid.height, grid.resolution, grid.origin, values)


def signed_distance_field(grid: OccupancyGrid) -> DistanceField:
    """Signed variant for gradient-based planners, with Unknown as Occupied:
    positive clearance outside obstacles, negative penetration depth inside,
    so the gradient keeps pointing out of occupied regions."""
    occ = _obstacles(grid, UnknownAs.OCCUPIED)
    if not occ.any():
        values = np.full((grid.height, grid.width), np.inf)
    elif occ.all():
        values = np.full((grid.height, grid.width), -np.inf)
    else:
        values = ndimage.distance_transform_edt(~occ, sampling=grid.resolution) \
            - ndimage.distance_transform_edt(occ, sampling=grid.resolution)
    return DistanceField(grid.width, grid.height, grid.resolution, grid.origin, values)


def _catmull_rom_weights(s: np.ndarray):
    s2 = s * s
    s3 = s2 * s
    return (
        -0.5 * s3 + s2 - 0.5 * s,
        1.5 * s3 - 2.5 * s2 + 1.0,
        -1.5 * s3 + 2.0 * s2 + 0.5 * s,
        0.5 * s3 - 0.5 * s2,
    )


def _catmull_rom_dweights(s: np.ndarray):
    s2 = s * s
    return (
        -1.5 * s2 + 2.0 * s - 0.5,
        4.5 * s2 - 5.0 * s,
        -4.5 * s2 + 4.0 * s + 0.5,
        1.5 * s2 - 1.0 * s,
    )


def sample_field(field: DistanceField, xs, ys, *, with_gradient=False, floor=True):
    """Catmull-Rom interpolation of field values at world points (vectorized).

    Out-of-grid queries are snapped to the boundary.  The 4x4 stencil is
    edge-clamped, which keeps the interpolant continuous across the whole
    grid; values are clamped below at zero unless ``floor=False`` (signed
    fields).  The 16 stencil cells are read by flat index from the field's
    cached edge-padded copy, `_stencil`; a NaN query gives NaN.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    ox, oy = field.origin
    res = field.resolution
    w, h = field.width, field.height

    u_raw = (xs - ox) / res - 0.5
    v_raw = (ys - oy) / res - 0.5
    u = np.minimum(np.maximum(u_raw, 0.0), w - 1.0)
    v = np.minimum(np.maximum(v_raw, 0.0), h - 1.0)
    i0 = np.floor(u)
    j0 = np.floor(v)
    fu = u - i0
    fv = v - j0
    stride = w + 3
    base = (np.fmax(j0, 0.0) * stride + np.fmax(i0, 0.0)).astype(np.intp)
    flat = field._stencil.ravel()
    cells = [flat[j * stride + i:].take(base) for j in range(4) for i in range(4)]

    wu = _catmull_rom_weights(fu)
    wv = _catmull_rom_weights(fv)

    value = np.zeros_like(u)
    row_vals = []
    for j in range(4):
        acc = np.zeros_like(u)
        for i in range(4):
            acc += wu[i] * cells[4 * j + i]
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
            acc_du += dwu[i] * cells[4 * j + i]
        dvalue_du += wv[j] * acc_du
        dvalue_dv += dwv[j] * row_vals[j]
    gx = dvalue_du / res
    gy = dvalue_dv / res
    # Gradient vanishes where the coordinate was clamped or the value floored.
    inside_x = (u_raw > 0.0) & (u_raw < w - 1.0)
    inside_y = (v_raw > 0.0) & (v_raw < h - 1.0)
    live = (raw > 0.0) if floor else np.ones_like(raw, dtype=bool)
    gx = np.where(inside_x & live, gx, 0.0)
    gy = np.where(inside_y & live, gy, 0.0)
    return value, gx, gy


def distance_at(field: DistanceField, x: float, y: float) -> float:
    """Interpolated clearance at a world point; raises outside the grid."""
    if not field.contains(x, y):
        raise OutOfBoundsError(f"query ({x:.3f}, {y:.3f}) outside distance field")
    return distance_at_clamped(field, x, y)


def distance_at_clamped(field: DistanceField, x: float, y: float) -> float:
    """Like distance_at but snaps out-of-grid queries to the boundary."""
    return float(sample_field(field, x, y))


# ---------------------------------------------------------------------------
# raycasting and scan integration


def _march(grid: GridGeometry, px, py, dx, dy, t_stop, blocking):
    """Exact cell-crossing traversal of rays from (px, py) along the unit
    directions (dx, dy) (Amanatides & Woo, 1987).

    A ray stops when it leaves the grid, when it enters a cell at distance
    >= t_stop (a scalar or one value per ray), or when it meets a cell set in
    `blocking` (a (height, width) bool mask).  Returns the entry distance of
    each ray's blocking cell (+inf where it met none) and the (height, width)
    mask of the cells the rays traversed, blocking cells included.

    Cells are coded 0 (open), 2 (blocking) or 1 (stop) in a copy with a ring
    of 1s, so leaving the grid is one lookup; rays step flat indices, x first
    on a tie, and entering at t >= t_stop sets the stop bit.  Stopped rays park
    on cell 0 until fewer than half are live, then the live ones are compacted.
    """
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
    t_stop = np.broadcast_to(t_stop, ix.shape)
    t_hit = np.full(ix.shape, np.inf)
    code = np.ones((h + 2, w + 2), dtype=np.uint8)
    code[1:-1, 1:-1] = blocking * np.uint8(2)
    code = code.ravel()
    seen = np.zeros(code.size, dtype=bool)
    ray = np.flatnonzero((ix >= 0) & (ix < w) & (iy >= 0) & (iy < h) & (t_stop > 0))
    cell = (iy[ray] + 1) * (w + 2) + ix[ray] + 1
    tmx, tmy, tdx, tdy, ts = tmx[ray], tmy[ray], tdx[ray], tdy[ray], t_stop[ray]
    sx, sy = np.sign(dx[ray]).astype(np.int64), np.sign(dy[ray]).astype(np.int64) * (w + 2)
    te, k, parked = np.zeros(ray.size), code[cell], 0
    while ray.size:
        stop = k != 0
        n_stop = np.count_nonzero(stop)
        if n_stop != parked:
            hit = k == 2
            t_hit[ray[hit]] = te[hit]
            seen[cell[hit]] = True
            if 2 * n_stop > ray.size:
                ray, cell, tmx, tmy, tdx, tdy, ts, sx, sy, k = (
                    a[~stop] for a in (ray, cell, tmx, tmy, tdx, tdy, ts, sx, sy, k))
                parked = 0
                continue
            cell[stop] = sx[stop] = sy[stop] = 0
            parked = n_stop
        seen[cell] = True
        step_x = tmx <= tmy
        te = np.where(step_x, tmx, tmy)
        np.copyto(tmx, te + tdx, where=step_x)
        np.copyto(tmy, te + tdy, where=~step_x)
        cell += np.where(step_x, sx, sy)
        k = code[cell]
        k |= te >= ts
    return t_hit, seen.reshape(h + 2, w + 2)[1:-1, 1:-1].copy()


def raycast(world: OccupancyGrid, pose, spec: ScanSpec = ScanSpec()) -> LaserScan:
    """One lidar scan from pose (x, y, theta) against the grid; raises if the
    pose is outside it.  The scan is marched when something first reads it."""
    x, y, theta = pose
    if not world.contains(x, y):
        raise OutOfBoundsError("raycast pose outside grid")
    return LaserScan(spec, world, (x, y, theta))


def integrate_scan(known: OccupancyGrid, scan: LaserScan) -> OccupancyGrid:
    """Fuse a scan into `known`, which must share the grid the scan was cast
    on: Unknown cells the beams crossed become Free, and the cells they
    stopped in become Occupied.  Occupied cells are never demoted.  If `known`
    has no Unknown cell and all the world's Occupied cells, no cell can change:
    the scan is not read (so not marched), and a copy of `known` is returned."""
    if scan.world.cells.shape != known.cells.shape:
        raise ValidationError(f"scan grid does not match the grid's {known.cells.shape}")
    new = np.array(known.cells)
    occupied = scan.world.cells == OCCUPIED
    if (new != UNKNOWN).all() and (new[occupied] == OCCUPIED).all():
        return known.with_cells(new)
    new[scan.seen & (new == UNKNOWN)] = FREE
    new[scan.hit] = OCCUPIED
    return known.with_cells(new)


# ---------------------------------------------------------------------------
# masking and cropping


def mask_unknown_region(grid: OccupancyGrid, rect) -> OccupancyGrid:
    """Set every cell whose center lies in rect = (x, y, w, h) to Unknown; a
    rect that holds no cell center raises ValidationError."""
    if len(rect) != 4:
        raise ValidationError("mask needs 4 values: x y w h")
    rx, ry, rw, rh = rect
    if rw <= 0 or rh <= 0:
        raise ValidationError("mask rectangle must have positive extent")
    ox, oy = grid.origin
    if rx + rw <= ox or rx >= ox + grid.size_x or ry + rh <= oy or ry >= oy + grid.size_y:
        raise ValidationError("mask rectangle does not intersect the grid")
    cx = ox + (np.arange(grid.width) + 0.5) * grid.resolution
    cy = oy + (np.arange(grid.height) + 0.5) * grid.resolution
    in_x = (cx >= rx) & (cx <= rx + rw)
    in_y = (cy >= ry) & (cy <= ry + rh)
    mask = np.outer(in_y, in_x)
    if not mask.any():
        raise ValidationError("mask rectangle covers no cell center")
    new = np.array(grid.cells)
    new[mask] = UNKNOWN
    return grid.with_cells(new)


def crop_local(grid: OccupancyGrid | DistanceField, center, side: float):
    """Square window of `side` meters centered at `center`, clamped to the
    parent bounds, of one grid layer: an OccupancyGrid's cells or a
    DistanceField's values (which keep measuring to obstacles outside the
    window), as a layer of the same type.  Resolution and world alignment are
    preserved, so a map and its field give windows over the same cells."""
    if side <= 0:
        raise ValidationError("crop side must be positive")
    cx, cy = center
    icx, icy = grid.cell_index(cx, cy)  # raises OutOfBoundsError if outside
    n = max(1, int(round(side / grid.resolution)))
    nx = min(n, grid.width)
    ny = min(n, grid.height)
    x0 = min(max(icx - n // 2, 0), grid.width - nx)
    y0 = min(max(icy - n // 2, 0), grid.height - ny)
    layer = grid.values if isinstance(grid, DistanceField) else grid.cells
    origin = (grid.origin[0] + x0 * grid.resolution, grid.origin[1] + y0 * grid.resolution)
    return type(grid)(nx, ny, grid.resolution, origin, layer[y0:y0 + ny, x0:x0 + nx])


# ---------------------------------------------------------------------------
# plain-text map files


def save_grid(grid: OccupancyGrid, path) -> None:
    head = (f"grid {grid.width} {grid.height} {grid.resolution:.10g} "
            f"{grid.origin[0]:.10g} {grid.origin[1]:.10g}\n")
    rows = np.empty((grid.height, grid.width + 1), dtype=np.uint8)
    rows[:, :-1] = _CHAR_CODES[grid.cells]
    rows[:, -1] = ord("\n")
    with open(path, "w", encoding="utf-8") as f:
        f.write(head + rows.tobytes().decode("ascii"))


def load_grid(path) -> OccupancyGrid:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ParseError("empty grid file", path=path, line=1)
    head = lines[0].split()
    if len(head) != 6 or head[0] != "grid":
        raise ParseError("expected header 'grid <w> <h> <res> <ox> <oy>'", path=path, line=1)
    try:
        w, h = finite(head[1], int), finite(head[2], int)
        res = finite(head[3])
        origin = (finite(head[4]), finite(head[5]))
    except ValueError as exc:
        raise ParseError(f"bad header value: {exc}", path=path, line=1)
    if w < 0 or h < 0:
        raise ParseError(f"negative grid size {w} x {h}", path=path, line=1)
    if len(lines) < 1 + h:
        raise ParseError(f"expected {h} rows, found {len(lines) - 1}", path=path, line=len(lines))
    rows = lines[1:1 + h]
    # The rows before the first one of the wrong length are mapped in one
    # lookup, one code point per cell; the first error in row order is raised.
    n_ok = next((iy for iy, row in enumerate(rows) if len(row) != w), len(rows))
    codes = np.frombuffer("".join(rows[:n_ok]).encode("utf-32-le"), dtype=np.uint32)
    states = _STATE_CODES[np.minimum(codes, _STATE_CODES.size - 1)]
    bad = np.flatnonzero(states == 255)
    if bad.size:
        iy, ix = divmod(int(bad[0]), w)
        raise ParseError(f"unknown cell character {rows[iy][ix]!r}", path=path, line=2 + iy)
    if n_ok < len(rows):
        raise ParseError(f"row has {len(rows[n_ok])} cells, expected {w}", path=path,
                         line=2 + n_ok)
    for ln, row in enumerate(lines[1 + h:], start=2 + h):
        if row.strip():
            raise ParseError(f"row beyond the header's {h} rows", path=path, line=ln)
    return OccupancyGrid(w, h, res, origin, states.reshape(h, w))
