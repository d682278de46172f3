"""Builds the ready-to-run benchmark suite: generated worlds, start/goal
pairs with guaranteed clearance and connectivity, agent routes cleared by
`global_planner.segments_clear`, and the manifest tying them together."""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import NoPathError, PlanInputError, ValidationError
from .global_planner import plan_global, segments_clear
from .gridmap import FREE, OccupancyGrid, distance_transform
from .robot import KinematicLimits
from .world import DynamicAgent, Scenario, save_scenario
from .worldgen import WorldParams, generate_world

PAIR_CLEARANCE = 0.35
AGENT_RADIUS = 0.25
AGENT_SPEED = 0.6


def _in_rect(point, rect) -> bool:
    rx, ry, rw, rh = rect
    return rx <= point[0] <= rx + rw and ry <= point[1] <= ry + rh


def _draws(grid: OccupancyGrid, field, clearance: float, seed: int):
    """Up to 6000 seeded draws of two cell centres, each of a free cell whose
    clearance in `field` is at least `clearance`."""
    cand = np.argwhere((grid.cells == FREE) & (field.values >= clearance))
    if len(cand) < 2:
        raise ValidationError("grid has too little clear space to draw from")
    rng = np.random.default_rng(seed)
    for _ in range(6000):
        i, j = rng.integers(0, len(cand), size=2)
        (ay, ax), (by, bx) = cand[i], cand[j]
        yield grid.cell_center(int(ax), int(ay)), grid.cell_center(int(bx), int(by))


def propose_pairs(grid: OccupancyGrid, n: int, seed: int, *,
                  min_euclid: float, max_path: float, require_rect=None):
    """Deterministically sample n validated start/goal pose pairs, each start
    outside `require_rect` and each path crossing it, if one is given.

    Pose headings follow the planned path's first/last segment so the goal
    yaw is always reachable along the approach direction.
    """
    field = distance_transform(grid)
    pairs = []
    for s, g in _draws(grid, field, PAIR_CLEARANCE, seed):
        if len(pairs) >= n:
            break
        if math.hypot(g[0] - s[0], g[1] - s[1]) < min_euclid:
            continue
        if any(math.hypot(s[0] - p[0], s[1] - p[1]) < 1.0 for p, _ in pairs):
            continue
        if require_rect is not None and _in_rect(s, require_rect):
            continue
        try:
            path = plan_global(grid, s, g, KinematicLimits.radius, field=field)
        except (NoPathError, PlanInputError):
            continue
        if path.cumulative_length > max_path or len(path.points) < 2:
            continue
        if require_rect is not None and not any(_in_rect(p, require_rect) for p in path.points):
            continue
        p0, p1 = path.points[0], path.points[1]
        s_th = math.atan2(p1[1] - p0[1], p1[0] - p0[0])
        q0, q1 = path.points[-2], path.points[-1]
        g_th = math.atan2(q1[1] - q0[1], q1[0] - q0[0])
        pairs.append(((s[0], s[1], s_th), (g[0], g[1], g_th)))
    if len(pairs) < n:
        raise ValidationError(f"could only propose {len(pairs)}/{n} pairs")
    return tuple(pairs)


def propose_agent_routes(grid: OccupancyGrid, n_agents: int, seed: int, pairs, *,
                         min_len: float = 2.5, max_len: float = 8.0):
    """Straight back-and-forth walking routes with clearance for the disc and
    distance from every trial start so the robot never spawns inside one."""
    field = distance_transform(grid)
    keepout = [(s[0], s[1]) for s, _ in pairs]
    agents = []
    for a, b in _draws(grid, field, AGENT_RADIUS + 0.15, seed):
        if len(agents) >= n_agents:
            break
        length = math.hypot(b[0] - a[0], b[1] - a[1])
        if not min_len <= length <= max_len:
            continue
        if not segments_clear(field, a, [b], [max(2, int(length / 0.1) + 1)],
                              AGENT_RADIUS + 0.1)[0]:
            continue
        if any(math.hypot(a[0] - k[0], a[1] - k[1]) < 1.5 for k in keepout):
            continue
        agents.append(DynamicAgent(AGENT_RADIUS, AGENT_SPEED, (a, b), "ping_pong"))
    if len(agents) < n_agents:
        raise ValidationError(f"could only place {len(agents)}/{n_agents} agents")
    return tuple(agents)


def build_default_suite(root, seed: int = 0, pairs_per_scene: int = 3) -> str:
    """Write the generated benchmark suite under root; returns the manifest
    path.  Groups: static (five archetypes), partially_unknown (masked
    office), dynamic (office walkers + open-space crowd)."""
    if pairs_per_scene < 1:
        raise ValidationError(f"pairs per scene must be at least 1, got {pairs_per_scene}")
    os.makedirs(root, exist_ok=True)

    office = generate_world("office", WorldParams(16.0, 12.0, passage_width=1.0, clutter=6),
                            seed=seed + 1)
    house = generate_world("office", WorldParams(11.0, 9.0, passage_width=0.9, clutter=8),
                           seed=seed + 2)
    maze = generate_world("maze", WorldParams(12.1, 12.1, passage_width=1.1), seed=seed + 3)
    corr_u = generate_world("corridor_u", WorldParams(8.0, 7.0, passage_width=1.0),
                            seed=seed + 4)
    corr_a = generate_world("corridor_acute", WorldParams(12.0, 9.0, passage_width=1.1),
                            seed=seed + 5)
    room = generate_world("open_room", WorldParams(10.0, 10.0), seed=seed + 6)

    def add(name, grid, pairs, agents=(), masks=()):
        scn = Scenario(name=name, map=grid, start_goal_pairs=pairs, agents=agents, masks=masks)
        save_scenario(scn, os.path.join(root, f"{name}.scene"))

    n = pairs_per_scene
    add("office", office,
        propose_pairs(office, n, seed + 11, min_euclid=6.0, max_path=14.0))
    add("house", house,
        propose_pairs(house, n, seed + 12, min_euclid=4.0, max_path=10.0))
    add("maze", maze,
        propose_pairs(maze, n, seed + 13, min_euclid=5.0, max_path=16.0))
    add("corridor_u", corr_u,
        propose_pairs(corr_u, n, seed + 14, min_euclid=4.0, max_path=16.0))
    add("corridor_acute", corr_a,
        propose_pairs(corr_a, n, seed + 15, min_euclid=5.0, max_path=16.0))

    mask = (4.8, 3.6, 6.4, 4.8)  # centered rectangle of the office map
    masked_pairs = propose_pairs(office, max(2, n - 1), seed + 16,
                                 min_euclid=5.0, max_path=14.0, require_rect=mask)
    add("office_masked", office, masked_pairs, masks=(mask,))

    dyn_pairs = propose_pairs(office, 2, seed + 17, min_euclid=6.0, max_path=14.0)
    dyn_agents = propose_agent_routes(office, 2, seed + 18, dyn_pairs)
    add("office_dynamic", office, dyn_pairs, agents=dyn_agents)

    crowd_pairs = propose_pairs(room, 2, seed + 19, min_euclid=5.0, max_path=13.0)
    crowd_agents = propose_agent_routes(room, 6, seed + 20, crowd_pairs,
                                        min_len=2.0, max_len=7.0)
    add("crowd", room, crowd_pairs, agents=crowd_agents)

    manifest = os.path.join(root, "benchmark.suite")
    lines = ["group static"]
    lines += [f"scene {name}.scene" for name in
              ("office", "house", "maze", "corridor_u", "corridor_acute")]
    lines += ["group partially_unknown", "scene office_masked.scene"]
    lines += ["group dynamic", "scene office_dynamic.scene", "scene crowd.scene"]
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return manifest
