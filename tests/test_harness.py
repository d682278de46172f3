import math
import os
from collections import Counter

import pytest

import navbench.local_planners as local_planners
from navbench import cli, harness, report
from navbench.errors import ValidationError
from navbench.metrics import Outcome, compute_report, read_log_csv, write_log_csv
from navbench.suitegen import propose_pairs
from navbench.world import Scenario, save_scenario
from navbench.worldgen import WorldParams, generate_world

TICKS = 8
CFG = harness.TrialConfig(compute_cost_mode="iterations",
                          timeout=TICKS * harness.TrialConfig.control_period)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """A one-scene, one-pair suite on a small generated office."""
    root = tmp_path_factory.mktemp("suite")
    grid = generate_world("office", WorldParams(7.0, 6.0, clutter=2), seed=3)
    pairs = propose_pairs(grid, 1, seed=5, min_euclid=3.0, max_path=9.0)
    scn = Scenario(name="small_office", map=grid, start_goal_pairs=pairs)
    save_scenario(scn, str(root / "small_office.scene"))
    manifest = root / "small.suite"
    manifest.write_text("group static\nscene small_office.scene\n")
    return scn, str(manifest)


def _rows(path):
    with open(path, encoding="utf-8") as f:
        return [ln for ln in f.read().splitlines() if not ln.startswith("#")]


def test_iterations_trial_rows_repeat(suite, tmp_path):
    scn, _ = suite
    rows = []
    for k in range(2):
        result = harness.run_trial(scn, "dwa", 0, CFG)
        assert result.outcome is Outcome.TIMEOUT
        assert len(result.log) == TICKS
        path = tmp_path / f"run{k}.csv"
        write_log_csv(result.log, path, result.metadata)
        rows.append(_rows(path))
    assert rows[0] == rows[1]


def _tables(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith("table_"):
            with open(os.path.join(directory, name), "rb") as f:
                out[name] = f.read()
    return out


def test_report_reproduces_run_suite_tables(suite, tmp_path):
    _, manifest = suite
    out = str(tmp_path / "out")
    result = harness.run_suite(manifest, ["dwa"], CFG, out)
    assert not result.crashed and len(result.results) == 1
    written = _tables(out)
    assert sorted(written) == ["table_static.csv", "table_static.md"]
    for name in written:
        os.remove(os.path.join(out, name))
    assert cli.main(["report", "--in", out]) == 0
    assert _tables(out) == written


def test_wrapped_call_sites_fire_once_per_tick(suite, monkeypatch):
    """Wrapping these module globals must see every tick (see harness imports)."""
    scn, _ = suite
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("raycast", "plan", "LogRecord"):
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    monkeypatch.setattr(local_planners, "dwa_plan",
                        counting("dwa_plan", local_planners.dwa_plan))
    result = harness.run_trial(scn, "dwa", 0, CFG)
    ticks = len(result.log)
    assert ticks == TICKS
    assert counts == {"raycast": ticks, "plan": ticks, "LogRecord": ticks, "dwa_plan": ticks}


def test_tick_order_of_the_wrapped_call_sites(suite, monkeypatch):
    """Timing a tick from `raycast` to `LogRecord`, and counting the cells
    `integrate_scan` changed by comparing its result with its first argument,
    both need this order and this argument in every tick."""
    scn, _ = suite
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, args, out))
            return out
        return wrapper

    for name in ("raycast", "integrate_scan", "LogRecord"):
        monkeypatch.setattr(harness, name, recording(name, getattr(harness, name)))
    result = harness.run_trial(scn, "dwa", 0, CFG)
    assert len(result.log) == TICKS
    assert [name for name, _, _ in calls] == ["raycast", "integrate_scan", "LogRecord"] * TICKS
    fused = [(args[0], out) for name, args, out in calls if name == "integrate_scan"]
    previous = [scn.prior_map] + [out for _, out in fused[:-1]]
    assert all(known is prev for (known, _), prev in zip(fused, previous))


@pytest.mark.parametrize("d_safe", [0.0, -0.34, float("inf"), float("nan")])
def test_trial_config_rejects_a_d_safe_that_is_not_positive_and_finite(d_safe):
    """Rejected before a trial runs, not by its report after the last tick."""
    with pytest.raises(ValidationError, match="d_safe"):
        harness.TrialConfig(d_safe=d_safe)


@pytest.mark.parametrize("field, value", [
    (field, value)
    for field in ("control_period", "physics_dt", "timeout", "goal_pos_tol", "goal_yaw_tol",
                  "local_map_side")
    for value in (float("nan"), float("inf"), -float("inf"))
] + [("local_map_side", 0.0), ("local_map_side", -1.0), ("timeout", 0.0)])
def test_trial_config_rejects_a_value_that_is_not_positive_and_finite(field, value):
    """A NaN passes every `<= 0` check, and an infinite timeout or period
    overflows the tick count: each is a ValidationError naming the field."""
    with pytest.raises(ValidationError, match=field):
        harness.TrialConfig(**{field: value})


def test_report_uses_the_trial_d_safe(suite, tmp_path):
    """`bench report` recomputes p_o with the d_safe the trial ran with.  The
    robot keeps 0.6-1.4 m of clearance here, so d_safe=1.0 makes p_o differ
    from the 0.34 default."""
    scn, _ = suite
    cfg = harness.TrialConfig(compute_cost_mode="iterations", d_safe=1.0,
                              timeout=CFG.timeout)
    result = harness.run_trial(scn, "dwa", 0, cfg)
    write_log_csv(result.log, tmp_path / "trial.csv", result.metadata)
    groups, _ = report.collect_rows(str(tmp_path))
    recomputed = groups["ungrouped"][(scn.name, 0)]["dwa"]
    log, _ = read_log_csv(tmp_path / "trial.csv")
    # the CSV keeps 10 significant digits, hence approx
    assert recomputed.exposure_percent == pytest.approx(result.report.exposure_percent,
                                                        rel=1e-12)
    assert recomputed.exposure_percent > compute_report(log).exposure_percent


def test_each_tick_aims_at_one_local_goal(suite, monkeypatch):
    """The planners aim at `req.goal`: the end of the local reference with its
    last segment's heading, or the trial goal once the reference reaches the
    end of the global path (here from tick 18 of 30)."""
    scn, _ = suite
    plan_global, plan = harness.plan_global, harness.plan
    paths, ticks = [], []

    def planning(*args, **kwargs):
        paths.append(plan_global(*args, **kwargs))
        return paths[-1]

    def aiming(name, req, cfg=None):
        ticks.append((paths[-1], req))
        return plan(name, req, cfg)

    monkeypatch.setattr(harness, "plan_global", planning)
    monkeypatch.setattr(harness, "plan", aiming)
    cfg = harness.TrialConfig(compute_cost_mode="iterations",
                              timeout=30 * CFG.control_period)
    harness.run_trial(scn, "dwa", 0, cfg)
    goal = scn.start_goal_pairs[0][1]
    at_path_end = 0
    for path, req in ticks:
        tx, ty = req.reference.points[-1]
        if (tx, ty) == path.points[-1]:
            at_path_end += 1
            assert req.goal == goal
        else:
            ax, ay = req.reference.points[-2]
            assert req.goal == (tx, ty, math.atan2(ty - ay, tx - ax))
    assert 0 < at_path_end < len(ticks) == 30


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_trial_that_raises_is_listed_as_crashed(suite, tmp_path, jobs):
    """TEB refuses a d_min below the robot radius on its first plan, so its
    trial raises; the suite lists it in `crashed` and still writes the other
    trial's CSV and the tables, serially and in the pool."""
    scn, manifest = suite
    out = str(tmp_path / "out")
    result = harness.run_suite(manifest, ["dwa", "teb"], CFG, out, jobs=jobs,
                               planner_cfgs={"teb": local_planners.TebConfig(d_min=0.1)})
    assert [desc for desc, _ in result.crashed] == [f"static/{scn.name}/pair0/teb"]
    assert result.crashed[0][1].startswith("ValidationError(")
    assert [(r.planner, r.outcome) for r in result.results] == [("dwa", Outcome.TIMEOUT)]
    assert sorted(os.listdir(out)) == [
        harness.trial_filename("static", scn.name, 0, "dwa"),
        "table_static.csv", "table_static.md"]
