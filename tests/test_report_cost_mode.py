"""The C column of a group table is labelled with the cost mode its trials
ran in, and a group that mixes modes is refused."""

import os

import pytest

from navbench import cli, harness, report
from navbench.errors import ParseError
from navbench.metrics import write_log_csv
from navbench.suitegen import propose_pairs
from navbench.world import Scenario, load_scenario, save_scenario
from navbench.worldgen import WorldParams, generate_world

TICKS = 4


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    grid = generate_world("office", WorldParams(7.0, 6.0, clutter=2), seed=3)
    pairs = propose_pairs(grid, 1, seed=5, min_euclid=3.0, max_path=9.0)
    scn = Scenario(name="small_office", map=grid, start_goal_pairs=pairs)
    save_scenario(scn, str(root / "small_office.scene"))
    path = root / "small.suite"
    path.write_text("group static\nscene small_office.scene\n")
    return str(path)


def _cfg(mode):
    return harness.TrialConfig(compute_cost_mode=mode,
                               timeout=TICKS * harness.TrialConfig.control_period)


def _read(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.mark.parametrize("mode, label", [("iterations", "C [iter] DWA"),
                                         ("wallclock", "C [ms] DWA")])
def test_run_and_report_label_c_by_cost_mode(manifest, tmp_path, mode, label):
    out = str(tmp_path / "out")
    result = harness.run_suite(manifest, ["dwa"], _cfg(mode), out)
    assert not result.crashed
    written = {p: _read(p) for p in result.table_paths}
    for path, data in written.items():
        header = data.decode().splitlines()[0]
        assert label in header
        assert ("C [iter]" in header) == (mode == "iterations")
        assert ("C [ms]" in header) == (mode == "wallclock")
        os.remove(path)
    assert cli.main(["report", "--in", out]) == 0
    assert {p: _read(p) for p in written} == written


def test_mixed_cost_modes_in_one_group_raise(manifest, tmp_path):
    scn = load_scenario(os.path.join(os.path.dirname(manifest), "small_office.scene"))
    for mode in ("iterations", "wallclock"):
        result = harness.run_trial(scn, "dwa", 0, _cfg(mode))
        result.metadata["group"] = "static"
        write_log_csv(result.log, tmp_path / f"{mode}.csv", result.metadata)
    # CSVs are read in name order, so wallclock.csv is the one that disagrees.
    with pytest.raises(ParseError, match="wallclock.csv"):
        report.collect_rows(str(tmp_path))
    assert cli.main(["report", "--in", str(tmp_path)]) == 2


def test_unknown_cost_mode_raises(manifest, tmp_path):
    scn = load_scenario(os.path.join(os.path.dirname(manifest), "small_office.scene"))
    result = harness.run_trial(scn, "dwa", 0, _cfg("iterations"))
    result.metadata["cost_mode"] = "cycles"
    write_log_csv(result.log, tmp_path / "trial.csv", result.metadata)
    with pytest.raises(ParseError, match="trial.csv"):
        report.collect_rows(str(tmp_path))


@pytest.mark.parametrize("mode, label, other", [("iterations", "C [iter]", "C [ms]"),
                                                ("wallclock", "C [ms]", "C [iter]")])
def test_trial_printout_labels_c_by_cost_mode(manifest, tmp_path, capsys, mode, label,
                                              other):
    scene = os.path.join(os.path.dirname(manifest), "small_office.scene")
    assert cli.main(["trial", "--scene", scene, "--planner", "dwa", "--out", str(tmp_path),
                     "--cost-mode", mode, "--timeout", str(_cfg(mode).timeout)]) == 0
    out = capsys.readouterr().out
    assert f"  {label} " in out
    assert other not in out
