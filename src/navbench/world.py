"""Scenario model: map + start/goal pairs + moving agents + unknown masking.

A Scenario is what its .scene file states: the ground-truth grid, the
start/goal pairs, the agents, the scan and the masks.  The prior handed to
the planners is derived, never stated: the map with every mask set Unknown.
Dynamic agents move along fixed waypoint polylines at constant speed from the
first waypoint at time 0, so each one's place is a function of trial time,
and they get stamped into the planning grids at each control tick's start.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import ParseError, ValidationError, finite, keyed_lines
from .gridmap import (FREE, OCCUPIED, UNKNOWN, OccupancyGrid, ScanSpec,
                      UnknownAs, distance_at, distance_transform, load_grid,
                      mask_unknown_region, save_grid)
from .robot import KinematicLimits

AGENT_MODES = ("loop", "ping_pong")


@functools.lru_cache(maxsize=256)
def _route(waypoints, mode):
    """The polyline through `waypoints` (closed in loop mode), derived once and
    shared: vertices, segment vectors and lengths, arc at each vertex, total."""
    pts = np.asarray(waypoints + waypoints[:1] if mode == "loop" else waypoints)
    deltas = np.diff(pts, axis=0)
    lengths = np.linalg.norm(deltas, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    return pts, deltas, lengths, cum, lengths.sum()


@dataclass(frozen=True)
class DynamicAgent:
    """Disc obstacle following a waypoint polyline at constant speed.

    It starts on the first waypoint at trial time 0; `position(t)` is where it
    stands at trial time `t`.  Loop mode closes the polyline, ping_pong
    reflects at both ends.  The route is derived once per (waypoints, mode).
    """

    radius: float
    speed: float
    waypoints: tuple[tuple[float, float], ...]
    mode: str = "ping_pong"

    def __post_init__(self):
        if not self.speed > 0:
            raise ValidationError("agent speed must be positive")
        if not self.radius > 0:
            raise ValidationError("agent radius must be positive")
        wps = tuple((float(x), float(y)) for x, y in self.waypoints)
        if len(wps) < 2:
            raise ValidationError("agent needs at least two waypoints")
        for a, b in zip(wps, wps[1:]):
            if math.hypot(b[0] - a[0], b[1] - a[1]) < 1e-12:
                raise ValidationError("consecutive agent waypoints must be distinct")
        if self.mode not in AGENT_MODES:
            raise ValidationError(f"agent mode must be one of {AGENT_MODES}")
        object.__setattr__(self, "waypoints", wps)

    @property
    def vertices(self) -> np.ndarray:
        """The polyline the agent drives: its waypoints, closed in loop mode."""
        return _route(self.waypoints, self.mode)[0]

    @property
    def path_length(self) -> float:
        return float(_route(self.waypoints, self.mode)[-1])

    def position(self, t: float) -> tuple[float, float]:
        pts, deltas, lengths, cum, total = _route(self.waypoints, self.mode)
        s = (self.speed * t) % (total if self.mode == "loop" else 2.0 * total)
        if s > total:  # on ping_pong's way back
            s = 2.0 * total - s
        i = int(np.searchsorted(cum, s, side="right")) - 1
        i = min(max(i, 0), len(lengths) - 1)
        frac = (s - cum[i]) / lengths[i]
        p = pts[i] + frac * deltas[i]
        return (float(p[0]), float(p[1]))


def stamp_agents(grid: OccupancyGrid, agents, t: float) -> OccupancyGrid:
    """Mark cells whose centers fall inside any agent disc at trial time `t`
    as Occupied."""
    if not agents:
        return grid
    new = np.array(grid.cells)
    ox, oy = grid.origin
    res = grid.resolution
    for a in agents:
        px, py = a.position(t)
        ix0 = int(math.floor((px - a.radius - ox) / res))
        ix1 = int(math.floor((px + a.radius - ox) / res))
        iy0 = int(math.floor((py - a.radius - oy) / res))
        iy1 = int(math.floor((py + a.radius - oy) / res))
        ix0, ix1 = max(ix0, 0), min(ix1, grid.width - 1)
        iy0, iy1 = max(iy0, 0), min(iy1, grid.height - 1)
        if ix0 > ix1 or iy0 > iy1:
            continue
        cx = ox + (np.arange(ix0, ix1 + 1) + 0.5) * res
        cy = oy + (np.arange(iy0, iy1 + 1) + 0.5) * res
        dx = cx[None, :] - px
        dy = cy[:, None] - py
        inside = dx * dx + dy * dy <= a.radius * a.radius
        block = new[iy0:iy1 + 1, ix0:ix1 + 1]
        block[inside] = OCCUPIED
    return grid.with_cells(new)


@dataclass(frozen=True)
class Scenario:
    """A scene.  `prior_map`, what the planners start from, is not an
    argument: it is `map` with every mask applied by `mask_unknown_region`, in
    order (`map` itself when there are none), so it shares the truth's grid,
    as scans of the truth fuse into it.  A bad mask raises ValidationError."""

    name: str
    map: OccupancyGrid                 # ground truth
    start_goal_pairs: tuple            # ((x, y, th), (x, y, th)) per pair
    agents: tuple = ()
    scan_spec: ScanSpec = ScanSpec()
    masks: tuple = ()                  # (x, y, w, h) rectangles set Unknown in the prior
    prior_map: OccupancyGrid = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "start_goal_pairs",
                           tuple((tuple(s), tuple(g)) for s, g in self.start_goal_pairs))
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "masks", tuple(tuple(m) for m in self.masks))
        prior = self.map
        for m in self.masks:
            prior = mask_unknown_region(prior, m)
        object.__setattr__(self, "prior_map", prior)

    @property
    def has_unknown_prior(self) -> bool:
        return bool((self.prior_map.cells == UNKNOWN).any())

    def validate(self) -> None:
        """Enforce the scenario invariants for a robot of `KinematicLimits`'
        radius; raises ValidationError."""
        if not self.start_goal_pairs:
            raise ValidationError("scenario has no start/goal pairs")
        field_ = distance_transform(self.map, UnknownAs.FREE)
        free = self.map.cells != OCCUPIED
        labels, _ = ndimage.label(free, structure=np.ones((3, 3), dtype=int))
        for k, (s, g) in enumerate(self.start_goal_pairs):
            for tag, pose in (("start", s), ("goal", g)):
                x, y = pose[0], pose[1]
                if not self.map.contains(x, y):
                    raise ValidationError(f"pair {k}: {tag} outside map")
                if self.map.state_at(x, y) != FREE:
                    raise ValidationError(f"pair {k}: {tag} not free")
                if distance_at(field_, x, y) < KinematicLimits.radius:
                    raise ValidationError(f"pair {k}: {tag} clearance below robot radius")
            si = self.map.cell_index(s[0], s[1])
            gi = self.map.cell_index(g[0], g[1])
            if labels[si[1], si[0]] != labels[gi[1], gi[0]]:
                raise ValidationError(f"pair {k}: start and goal not connected")


# ---------------------------------------------------------------------------
# scene files


def save_scenario(scn: Scenario, path) -> None:
    """Write a .scene file plus its .grid map next to it."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    map_filename = os.path.splitext(os.path.basename(path))[0] + ".grid"
    save_grid(scn.map, os.path.join(directory, map_filename))
    lines = [f"name {scn.name}", f"map {map_filename}"]
    for m in scn.masks:
        lines.append("mask " + " ".join(f"{v:.10g}" for v in m))
    for s, g in scn.start_goal_pairs:
        lines.append("pair " + " ".join(f"{v:.10g}" for v in (*s, *g)))
    for a in scn.agents:
        wp = " ".join(f"{v:.10g}" for p in a.waypoints for v in p)
        lines.append(f"agent {a.radius:.10g} {a.speed:.10g} {a.mode} {wp}")
    sp = scn.scan_spec
    if sp != ScanSpec():
        lines.append("scan " + " ".join(f"{v:.10g}" for v in (
            math.degrees(sp.angle_min), math.degrees(sp.angle_max),
            math.degrees(sp.angle_increment), sp.range_min, sp.range_max)))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_scenario(path) -> Scenario:
    """Parse and fully validate a .scene file; a scene that parses but breaks
    an invariant raises ValidationError naming the file."""
    directory = os.path.dirname(os.path.abspath(path))
    name = None
    grid = None
    masks = []
    pairs = []
    agents = []
    scan = ScanSpec()

    def fail(msg, ln):
        raise ParseError(msg, path=path, line=ln)

    for ln, key, rest in keyed_lines(path, once=("name", "map", "scan")):
        try:
            if key == "name":
                name = rest
            elif key == "map":
                grid = load_grid(os.path.join(directory, rest))
            elif key == "mask":
                vals = [finite(v) for v in rest.split()]
                if len(vals) != 4:
                    fail("mask needs 4 values: x y w h", ln)
                masks.append(tuple(vals))
            elif key == "pair":
                vals = [finite(v) for v in rest.split()]
                if len(vals) != 6:
                    fail("pair needs 6 values: sx sy sth gx gy gth", ln)
                pairs.append((tuple(vals[:3]), tuple(vals[3:])))
            elif key == "agent":
                parts = rest.split()
                if len(parts) < 7 or len(parts) % 2 == 0:
                    fail("agent needs: radius speed mode x1 y1 x2 y2 [...]", ln)
                radius_a, speed = finite(parts[0]), finite(parts[1])
                mode = parts[2]
                coords = [finite(v) for v in parts[3:]]
                wps = list(zip(coords[::2], coords[1::2]))
                agents.append(DynamicAgent(radius_a, speed, tuple(wps), mode))
            elif key == "scan":
                vals = [finite(v) for v in rest.split()]
                if len(vals) != 5:
                    fail("scan needs: amin_deg amax_deg incr_deg rmin rmax", ln)
                scan = ScanSpec(math.radians(vals[0]), math.radians(vals[1]),
                                math.radians(vals[2]), vals[3], vals[4])
            else:
                fail(f"unknown scene key {key!r}", ln)
        except (ValueError, ValidationError) as exc:
            fail(str(exc), ln)

    if name is None:
        raise ParseError("scene file has no 'name' line", path=path)
    if grid is None:
        raise ParseError("scene file has no 'map' line", path=path)
    try:
        scn = Scenario(name=name, map=grid, start_goal_pairs=tuple(pairs),
                       agents=tuple(agents), scan_spec=scan, masks=tuple(masks))
        scn.validate()
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return scn
