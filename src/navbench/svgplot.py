"""Standalone SVG rendering of one trial: map, agent routes, robot path."""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .gridmap import OCCUPIED, UNKNOWN

VIEW_W = 800.0


def _cell_rects(grid, state, color, scale, flip_h):
    """Merge horizontal runs of same-state cells into one rect per run."""
    parts = []
    res = grid.resolution
    for iy in range(grid.height):
        row = grid.cells[iy] == state
        if not row.any():
            continue
        idx = np.flatnonzero(np.diff(np.concatenate([[0], row.view(np.int8), [0]])))
        for x0, x1 in zip(idx[::2], idx[1::2]):
            x = x0 * res * scale
            y = flip_h - (iy + 1) * res * scale
            w = (x1 - x0) * res * scale
            h = res * scale
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" '
                         f'height="{h:.2f}" fill="{color}"/>')
    return parts


def _polyline(points, color, width, scale, flip_h, ox, oy, dash=None):
    pts = " ".join(f"{(x - ox) * scale:.2f},{flip_h - (y - oy) * scale:.2f}"
                   for x, y in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>')


def emit_trajectory_svg(result, path) -> None:
    """Write a self-contained SVG: occupied cells dark, unknown grey, agent
    routes dashed, logged robot path as a polyline with start/goal markers."""
    grid = result.scenario.map
    prior = result.scenario.prior_map
    ox, oy = grid.origin
    scale = VIEW_W / max(grid.size_x, grid.size_y)
    view_h = grid.size_y * scale

    parts = [f'<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW_W:.0f}" '
             f'height="{view_h:.0f}" viewBox="0 0 {VIEW_W:.0f} {view_h:.0f}">',
             f'<title>{escape(result.scenario.name)} / {escape(result.planner)} '
             f'/ pair {result.pair_index}</title>',
             f'<rect width="100%" height="100%" fill="white"/>']
    parts += _cell_rects(prior, UNKNOWN, "#cccccc", scale, view_h)
    parts += _cell_rects(grid, OCCUPIED, "#333333", scale, view_h)

    for agent in result.scenario.agents:
        parts.append(_polyline(agent.vertices, "#d07000", 2, scale, view_h,
                               ox, oy, dash="6,4"))

    xy = [(r.x, r.y) for r in result.log.records]
    parts.append(_polyline(xy, "#1060c0", 2, scale, view_h, ox, oy))

    start, goal = result.scenario.start_goal_pairs[result.pair_index]
    sx, sy = (start[0] - ox) * scale, view_h - (start[1] - oy) * scale
    gx, gy = (goal[0] - ox) * scale, view_h - (goal[1] - oy) * scale
    parts.append(f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="5" fill="#10a010"/>')
    parts.append(f'<rect x="{gx - 5:.2f}" y="{gy - 5:.2f}" width="10" height="10" '
                 f'fill="#c01010"/>')
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")
