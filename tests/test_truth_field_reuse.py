"""run_trial reuses the sensed field as the ground-truth field on ticks where
the sensed map equals the truth: stamping the agents into either then gives
the same cells, the cells the sensed field was built from.

The reuse only skips work whose result is already known, so equality here is
exact (identical CSV rows).
"""

import dataclasses

import pytest

from navbench import harness
from navbench.metrics import write_log_csv

TICKS = 15


def _run(monkeypatch, tmp_path, scn, reuse):
    """Run TICKS ticks of pair 0; return (CSV rows without the wall time,
    distance_transform calls, stamp_agents calls on the ground truth)."""
    counts = {"transforms": 0, "truth stamps": 0}
    stamp, transform = harness.stamp_agents, harness.distance_transform
    equal = harness.array_equal

    def stamping(grid, agents, t):
        counts["truth stamps"] += grid is scn.map
        return stamp(grid, agents, t)

    def transforming(*args):
        counts["transforms"] += 1
        return transform(*args)

    def comparing(a, b):  # with reuse off, the sensed map never equals the truth
        return equal(a, b) and (reuse or not any(x is scn.map.cells for x in (a, b)))

    monkeypatch.setattr(harness, "stamp_agents", stamping)
    monkeypatch.setattr(harness, "distance_transform", transforming)
    monkeypatch.setattr(harness, "array_equal", comparing)
    cfg = harness.TrialConfig(compute_cost_mode="iterations",
                              timeout=TICKS * harness.TrialConfig.control_period)
    result = harness.run_trial(scn, "dwa", 0, cfg)
    monkeypatch.undo()
    assert len(result.log) == TICKS
    path = tmp_path / f"{scn.name}_{reuse}.csv"
    write_log_csv(result.log, path, result.metadata)
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("# wall_ms")]
    return rows, counts["transforms"], counts["truth stamps"]


@pytest.mark.parametrize("name", ["office_dynamic", "crowd"])
def test_reuse_writes_the_same_rows_with_one_transform_fewer_per_tick(
        scenes, monkeypatch, tmp_path, name):
    scn = scenes[name]
    assert scn.agents and not scn.has_unknown_prior
    rows, transforms, truth_stamps = _run(monkeypatch, tmp_path, scn, reuse=True)
    rows_off, transforms_off, truth_stamps_off = _run(monkeypatch, tmp_path, scn, reuse=False)
    assert rows == rows_off
    assert transforms_off - transforms == TICKS
    assert (truth_stamps, truth_stamps_off) == (0, TICKS)


def test_unknown_prior_with_agents_builds_the_truth_field(scenes, monkeypatch, tmp_path):
    scn = scenes["office_dynamic"]
    scn = dataclasses.replace(scn, masks=((0.0, 0.0, 3.0, 3.0),))
    assert scn.has_unknown_prior
    rows, transforms, truth_stamps = _run(monkeypatch, tmp_path, scn, reuse=True)
    rows_off, transforms_off, _ = _run(monkeypatch, tmp_path, scn, reuse=False)
    assert rows == rows_off
    assert truth_stamps == TICKS and transforms == transforms_off

