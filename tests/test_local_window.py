"""The local planners' field is a window of the sensed field, and a tick
samples clearance once while the sensed map equals the truth.

A window of the sensed field differs from the local crop's own transform only
where the nearest obstacle lies outside the crop, so at least the distance to
the crop's edge away.  Within 1.3 m of the robot, which covers DWA's rollouts
(under 0.9 m) and their interpolation stencils (0.2 m), the two are equal bit
for bit wherever either is below 1.45 m: far above the d_safe cap (0.34 m) and
the robot radius that the planners compare clearance with.
"""

import dataclasses

import numpy as np
import pytest

from navbench import harness
from navbench.gridmap import UNKNOWN, UnknownAs, crop_local, distance_transform
from navbench.suitegen import build_default_suite
from navbench.world import load_scenario

SIDE = harness.TrialConfig.local_map_side
NEAR_M = 1.3     # robot to cell
BELOW_M = 1.45   # either value


def _suite(root, seed):
    manifest = build_default_suite(str(root), seed=seed, pairs_per_scene=1)
    return {scn.name: scn for scn in
            (load_scenario(path) for _, path in harness.parse_suite(manifest))}


def _centers(grid, rng, n):
    """`n` random free cell centers, a quarter of them within half a crop of
    the map edge, so their crops are clamped."""
    iy, ix = np.nonzero(grid.cells == 0)
    half = SIDE / 2.0 / grid.resolution
    edge = ((ix < half) | (ix >= grid.width - half) | (iy < half) | (iy >= grid.height - half))
    picks = np.concatenate([rng.choice(np.flatnonzero(edge), n // 4),
                            rng.choice(ix.size, n - n // 4)])
    return [grid.cell_center(int(ix[k]), int(iy[k])) for k in picks]


@pytest.mark.parametrize("seed", [0, 1])
def test_window_of_the_sensed_field_equals_the_crop_transform_near_the_robot(
        tmp_path, seed):
    rng = np.random.default_rng(seed)
    clamped = compared = 0
    for scn in _suite(tmp_path, seed).values():
        grid = scn.map
        assert not (grid.cells == UNKNOWN).any()
        field = distance_transform(grid, UnknownAs.FREE)
        for cx, cy in _centers(grid, rng, 60):
            local_map = crop_local(grid, (cx, cy), SIDE)
            window = crop_local(field, (cx, cy), SIDE)
            own = distance_transform(local_map, UnknownAs.OCCUPIED)
            assert (window.width, window.height, window.resolution, window.origin) == \
                (own.width, own.height, own.resolution, own.origin)
            ix, iy = np.meshgrid(np.arange(own.width), np.arange(own.height))
            x0, y0 = own.origin
            near = np.hypot(x0 + (ix + 0.5) * own.resolution - cx,
                            y0 + (iy + 0.5) * own.resolution - cy) <= NEAR_M
            low = np.minimum(window.values, own.values) < BELOW_M
            a, b = window.values[near & low], own.values[near & low]
            assert a.tobytes() == b.tobytes()
            # elsewhere the window can only be nearer: it sees more obstacles
            assert (window.values <= own.values).all()
            compared += a.size
            n = round(SIDE / grid.resolution)
            clamped += own.width < n or own.height < n or \
                abs(own.origin[0] + own.size_x / 2 - cx) > grid.resolution or \
                abs(own.origin[1] + own.size_y / 2 - cy) > grid.resolution
    assert clamped >= 20 and compared > 0


def test_crop_of_a_field_is_its_window(scenes):
    grid = scenes["house"].map
    field = distance_transform(grid, UnknownAs.FREE)
    for center in ((0.1, 0.1), grid.cell_center(grid.width // 2, grid.height // 2),
                   grid.cell_center(grid.width - 1, grid.height - 1)):
        cells, window = crop_local(grid, center, SIDE), crop_local(field, center, SIDE)
        assert type(window) is type(field)
        assert (window.width, window.height, window.origin) == \
            (cells.width, cells.height, cells.origin)
        (iy, ix) = (round((window.origin[1] - grid.origin[1]) / grid.resolution),
                    round((window.origin[0] - grid.origin[0]) / grid.resolution))
        assert window.values.tobytes() == \
            field.values[iy:iy + window.height, ix:ix + window.width].tobytes()


def _traced_trial(monkeypatch, scn, pair, ticks):
    """Run one trial with the tick's layers wrapped; return (result, per tick:
    distance_transform calls, distance_at_clamped calls, the fused sensed map,
    the tick map, the plan request).  Tick 0 is the set-up before the first
    raycast."""
    log = [dict(transforms=0, samples=0)]
    raycast, integrate = harness.raycast, harness.integrate_scan
    stamp, transform = harness.stamp_agents, harness.distance_transform
    sample, plan = harness.distance_at_clamped, harness.plan

    def ticking(*args):
        log.append(dict(transforms=0, samples=0))
        return raycast(*args)

    def fusing(*args):
        log[-1]["sensed"] = integrate(*args)
        return log[-1]["sensed"]

    def stamping(grid, agents, t):
        out = stamp(grid, agents, t)
        if grid is not scn.map:
            log[-1]["tick_map"] = out
        return out

    def transforming(*args):
        log[-1]["transforms"] += 1
        return transform(*args)

    def sampling(*args):
        log[-1]["samples"] += 1
        return sample(*args)

    def planning(name, req, cfg=None):
        log[-1]["req"] = req
        return plan(name, req, cfg)

    for name, fn in (("raycast", ticking), ("integrate_scan", fusing),
                     ("stamp_agents", stamping), ("distance_transform", transforming),
                     ("distance_at_clamped", sampling), ("plan", planning)):
        monkeypatch.setattr(harness, name, fn)
    cfg = harness.TrialConfig(compute_cost_mode="iterations",
                              timeout=ticks * harness.TrialConfig.control_period)
    result = harness.run_trial(scn, "dwa", pair, cfg)
    monkeypatch.undo()
    assert len(result.log) == ticks == len(log) - 1
    return result, log


def test_known_map_trial_transforms_only_on_its_first_tick(scenes, monkeypatch):
    """house's map is known: its sensed field is built on the first tick (the
    static truth field before it), every local field is a window of it, and
    each tick samples clearance once, for both d and d_true."""
    scn = scenes["house"]
    result, log = _traced_trial(monkeypatch, scn, 0, 20)
    assert [t["transforms"] for t in log] == [1, 1] + [0] * 19
    assert [t["samples"] for t in log[1:]] == [1] * 20
    assert all(r.d_true == r.d for r in result.log.records)
    field = distance_transform(scn.map, UnknownAs.FREE)
    for t in log[1:]:
        robot = t["req"].robot
        window = crop_local(field, (robot.x, robot.y), SIDE)
        assert t["req"].local_field.values.tobytes() == window.values.tobytes()


@pytest.mark.parametrize("name, mask", [("office_masked", None),
                                        ("office", (14.0, 10.0, 2.0, 2.0))])
def test_trial_with_unknown_cells_samples_the_truth_field_while_its_map_differs(
        scenes, monkeypatch, name, mask):
    """While the sensed map differs from the truth, the truth field is sampled
    apart.  The local field is the crop's own transform where the crop holds
    Unknown cells, and a window of the sensed field elsewhere: office_masked's
    crops always hold some; office with its top-right corner masked starts and
    ends with crops that hold none."""
    scn = scenes[name]
    if mask is not None:
        scn = dataclasses.replace(scn, masks=(mask,))
    result, log = _traced_trial(monkeypatch, scn, 0, 60)
    differs = [not np.array_equal(t["sensed"].cells, scn.map.cells) for t in log[1:]]
    assert any(differs)
    assert [t["samples"] for t in log[1:]] == [1 + d for d in differs]
    kinds = []
    for t in log[1:]:
        req, tick_map = t["req"], t["tick_map"]
        center = (req.robot.x, req.robot.y)
        unknown = bool((req.local_map.cells == UNKNOWN).any())
        want = (distance_transform(req.local_map, UnknownAs.OCCUPIED) if unknown else
                crop_local(distance_transform(tick_map, UnknownAs.FREE), center, SIDE))
        assert req.local_field.values.tobytes() == want.values.tobytes()
        kinds.append(unknown)
    if mask is None:
        assert all(kinds)
    else:
        assert not kinds[0] and not kinds[-1] and any(kinds)
