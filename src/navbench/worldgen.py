"""Procedural grid worlds approximating the benchmark scenario archetypes:
office-like rooms, perfect mazes, U-turn corridors, an acute-angle corridor,
and an open room.  Every generator is a pure function of (kind, params, seed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ValidationError
from .gridmap import FREE, OCCUPIED, OccupancyGrid

ACUTE_TURN_DEG = 135.0  # corridor_acute's heading change at its junction

@dataclass(frozen=True)
class WorldParams:
    size_x: float
    size_y: float
    resolution: float = 0.1
    passage_width: float = 1.0
    clutter: int = 0  # small free-standing blocks (office only)

    def __post_init__(self):
        if self.size_x <= 0 or self.size_y <= 0 or self.resolution <= 0:
            raise ValidationError("world extents and resolution must be positive")
        if self.passage_width <= 0:
            raise ValidationError("passage width must be positive")

    @property
    def nx(self) -> int:
        return int(round(self.size_x / self.resolution))

    @property
    def ny(self) -> int:
        return int(round(self.size_y / self.resolution))

    @property
    def passage_cells(self) -> int:
        return max(1, int(round(self.passage_width / self.resolution)))


def generate_world(kind: str, params: WorldParams, seed: int = 0) -> OccupancyGrid:
    if kind not in WORLD_KINDS:
        raise ValidationError(f"unknown world kind {kind!r}; expected one of {WORLD_KINDS}")
    cells = _BUILDERS[kind](params, seed)
    return OccupancyGrid(cells.shape[1], cells.shape[0], params.resolution,
                         (0.0, 0.0), cells)


def _bordered(nx: int, ny: int) -> np.ndarray:
    if nx < 5 or ny < 5:
        raise ValidationError("world too small for a bordered map")
    cells = np.full((ny, nx), FREE, dtype=np.uint8)
    cells[0, :] = OCCUPIED
    cells[-1, :] = OCCUPIED
    cells[:, 0] = OCCUPIED
    cells[:, -1] = OCCUPIED
    return cells


def _open_room(params: WorldParams, seed: int) -> np.ndarray:
    return _bordered(params.nx, params.ny)


def _office(params: WorldParams, seed: int) -> np.ndarray:
    """Rooms carved by recursive wall splits, one door per wall."""
    cells = _bordered(params.nx, params.ny)
    rng = random.Random(seed)
    door = params.passage_cells
    min_room = max(2 * door, int(round(2.0 / params.resolution)))

    def split(x0, y0, x1, y1, depth):
        # region interior is [x0, x1) x [y0, y1)
        w, h = x1 - x0, y1 - y0
        if depth > 6 or max(w, h) < 2 * min_room + 1:
            return
        if w >= h:  # the longer side fits two rooms and the wall between
            wx = rng.randrange(x0 + min_room, x1 - min_room)
            gap0 = rng.randrange(y0, y1 - door + 1)
            cells[y0:y1, wx] = OCCUPIED
            cells[gap0:gap0 + door, wx] = FREE
            split(x0, y0, wx, y1, depth + 1)
            split(wx + 1, y0, x1, y1, depth + 1)
        else:
            wy = rng.randrange(y0 + min_room, y1 - min_room)
            gap0 = rng.randrange(x0, x1 - door + 1)
            cells[wy, x0:x1] = OCCUPIED
            cells[wy, gap0:gap0 + door] = FREE
            split(x0, y0, x1, wy, depth + 1)
            split(x0, wy + 1, x1, y1, depth + 1)

    split(1, 1, params.nx - 1, params.ny - 1, 0)

    for _ in range(params.clutter):
        bw = rng.randrange(2, 4)
        bh = rng.randrange(2, 4)
        bx = rng.randrange(2, params.nx - 2 - bw)
        by = rng.randrange(2, params.ny - 2 - bh)
        patch = cells[by:by + bh, bx:bx + bw].copy()
        cells[by:by + bh, bx:bx + bw] = OCCUPIED
        free = cells != OCCUPIED
        _, count = ndimage.label(free, structure=np.ones((3, 3), dtype=int))
        if count != 1:  # block would split the free space; revert
            cells[by:by + bh, bx:bx + bw] = patch
    return cells


def _maze(params: WorldParams, seed: int) -> np.ndarray:
    """Perfect maze (spanning tree) with corridors of the requested width."""
    p = params.passage_cells
    wall = 1
    pitch = p + wall
    mx = (params.nx - wall) // pitch
    my = (params.ny - wall) // pitch
    if mx < 2 or my < 2:
        raise ValidationError("maze extent too small for passage width")
    nx = mx * pitch + wall
    ny = my * pitch + wall
    cells = np.full((ny, nx), OCCUPIED, dtype=np.uint8)

    rng = random.Random(seed)
    visited = np.zeros((my, mx), dtype=bool)

    def carve_cell(cx, cy):
        x0 = wall + cx * pitch
        y0 = wall + cy * pitch
        cells[y0:y0 + p, x0:x0 + p] = FREE

    def carve_link(ax, ay, bx, by):
        x0 = wall + min(ax, bx) * pitch
        y0 = wall + min(ay, by) * pitch
        if ax == bx:
            cells[y0 + p:y0 + pitch, x0:x0 + p] = FREE
        else:
            cells[y0:y0 + p, x0 + p:x0 + pitch] = FREE

    stack = [(0, 0)]
    visited[0, 0] = True
    carve_cell(0, 0)
    while stack:
        cx, cy = stack[-1]
        options = [(cx + dx, cy + dy) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                   if 0 <= cx + dx < mx and 0 <= cy + dy < my and not visited[cy + dy, cx + dx]]
        if not options:
            stack.pop()
            continue
        nxt = options[rng.randrange(len(options))]
        visited[nxt[1], nxt[0]] = True
        carve_cell(*nxt)
        carve_link(cx, cy, *nxt)
        stack.append(nxt)
    return cells


def _corridor_u(params: WorldParams, seed: int) -> np.ndarray:
    """Serpentine corridor: horizontal teeth with alternating end gaps force
    continuous U-turns.  The map height snaps to a whole number of legs so
    every free region is exactly one passage wide."""
    p = params.passage_cells
    legs = (params.ny - 2 + 1) // (p + 1)
    if legs < 2:
        raise ValidationError("corridor_u extent too small for passage width")
    if params.nx - 2 < 3 * p:
        raise ValidationError("corridor_u too narrow for its passage width")
    ny = legs * p + (legs - 1) + 2
    nx = params.nx
    cells = _bordered(nx, ny)
    chamfer = max(1, int(round(p / 5)))
    for k in range(legs - 1):
        wy = 1 + p + k * (p + 1)
        cells[wy, 1:nx - 1] = OCCUPIED
        if k % 2 == 0:
            cells[wy, nx - 1 - p:nx - 1] = FREE
            tip = nx - 2 - p
            steps = [(tip + c, c) for c in range(1, chamfer + 1)]
        else:
            cells[wy, 1:1 + p] = FREE
            tip = 1 + p
            steps = [(tip - c, c) for c in range(1, chamfer + 1)]
        # chamfer the inner corners so turn pockets stay within half a passage
        for cx, dy in steps:
            for yy in (wy - dy, wy + dy):
                if 0 < yy < ny - 1 and 0 < cx < nx - 1:
                    cells[yy, cx] = OCCUPIED
    return cells


def _corridor_acute(params: WorldParams, seed: int) -> np.ndarray:
    """Two corridor legs carved into solid rock; the heading change at the
    junction is ACUTE_TURN_DEG (an acute interior angle)."""
    nx, ny = params.nx, params.ny
    if nx < 5 or ny < 5:
        raise ValidationError("world too small")
    cells = np.full((ny, nx), OCCUPIED, dtype=np.uint8)
    res = params.resolution
    half = params.passage_width / 2.0
    margin = half + 2 * res

    corner = np.array([params.size_x - margin, margin + half])
    a_start = np.array([margin, corner[1]])
    heading = math.radians(ACUTE_TURN_DEG)
    direction = np.array([math.cos(heading), math.sin(heading)])
    # Second leg runs until it meets the top or left margin.
    t_candidates = []
    if direction[0] < 0:
        t_candidates.append((margin - corner[0]) / direction[0])
    if direction[1] > 0:
        t_candidates.append((params.size_y - margin - corner[1]) / direction[1])
    t = min(c for c in t_candidates if c > 0)
    b_end = corner + t * direction

    xs = (np.arange(nx) + 0.5) * res
    ys = (np.arange(ny) + 0.5) * res
    px, py = np.meshgrid(xs, ys)

    def carve_capsule(a, b):
        ab = b - a
        L2 = float(ab @ ab)
        tt = ((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / L2
        tt = np.clip(tt, 0.0, 1.0)
        qx = a[0] + tt * ab[0]
        qy = a[1] + tt * ab[1]
        d2 = (px - qx) ** 2 + (py - qy) ** 2
        cells[d2 <= half * half] = FREE

    if corner[0] - a_start[0] < params.passage_width or t < params.passage_width:
        raise ValidationError("corridor_acute extent too small for passage width")
    carve_capsule(a_start, corner)
    carve_capsule(corner, b_end)
    return cells


_BUILDERS = {
    "office": _office,
    "maze": _maze,
    "corridor_u": _corridor_u,
    "corridor_acute": _corridor_acute,
    "open_room": _open_room,
}
WORLD_KINDS = tuple(_BUILDERS)
