"""`bench` end to end: make-suite, run, report, validate, and malformed inputs."""

import pytest

from navbench import cli
from navbench.metrics import LogRecord, NavLog, Outcome, write_log_csv
from navbench.suitegen import propose_pairs
from navbench.world import Scenario, save_scenario
from navbench.worldgen import WorldParams, generate_world


def test_make_suite_run_report_end_to_end(tmp_path, capsys):
    suite_dir, out_dir = tmp_path / "suite", tmp_path / "out"
    assert cli.main(["make-suite", "--pairs", "1", "--seed", "0",
                     "--out", str(suite_dir)]) == 0
    manifest = capsys.readouterr().out.strip()
    assert cli.main(["run", "--suite", manifest, "--planner", "dwa",
                     "--cost-mode", "iterations", "--timeout", "2",
                     "--out", str(out_dir)]) == 0
    tables = sorted(out_dir.glob("table_*"))
    assert [p.name for p in tables] == [
        f"table_{g}.{ext}" for g in ("dynamic", "partially_unknown", "static")
        for ext in ("csv", "md")]
    assert len(list(out_dir.glob("*__dwa.csv"))) == 11
    written = {p.name: p.read_bytes() for p in tables}
    for p in tables:
        p.unlink()
    capsys.readouterr()
    assert cli.main(["report", "--in", str(out_dir)]) == 0
    assert sorted(capsys.readouterr().out.split()) == [str(p) for p in tables]
    assert {p.name: p.read_bytes() for p in tables} == written


def test_missing_suite_is_an_error_not_a_traceback(tmp_path, capsys):
    missing = tmp_path / "no.suite"
    assert cli.main(["run", "--suite", str(missing), "--planner", "dwa",
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_make_suite_without_pairs_is_an_error(tmp_path, capsys, pairs):
    suite_dir = tmp_path / "suite"
    assert cli.main(["make-suite", "--pairs", pairs, "--seed", "0",
                     "--out", str(suite_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not suite_dir.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_without_workers_is_an_error(tmp_path, capsys, jobs):
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--suite", str(tmp_path / "any.suite"), "--planner", "dwa",
                     "--jobs", jobs, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "jobs" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("planners", [",", "dwa,dwa", "dwa, teb ,dwa"])
def test_run_with_an_empty_or_repeated_planner_list_is_an_error(tmp_path, capsys, planners):
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--suite", str(tmp_path / "any.suite"), "--planner", planners,
                     "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--planner" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("edit", [
    ("# outcome: timeout", None),            # no outcome line
    ("# outcome: timeout", "# outcome: crashed"),
    ("# pair: 0", "# pair: one"),
    ("# cost_mode: iterations", None),      # would be tabled as wall-clock
    ("# d_safe: 0.34", "# d_safe: abc"),
    ("# d_safe: 0.34", "# d_safe: 0"),
    ("# d_safe: 0.34", None),                # would be tabled at the default 0.34
    ("# d_safe: 0.34", "# d_safe: inf"),
], ids=["missing-outcome", "unknown-outcome", "non-integer-pair", "missing-cost-mode",
        "non-numeric-d-safe", "zero-d-safe", "missing-d-safe", "inf-d-safe"])
def test_report_rejects_a_trial_csv_without_a_valid_outcome_or_pair(tmp_path, capsys, edit):
    records = tuple(LogRecord(0.2 * k, 0.1 * k, 0.0, 0.0, 0.5, 0.0, 1.0, 7.0) for k in range(1, 4))
    path = tmp_path / "static__demo__pair0__dwa.csv"
    write_log_csv(NavLog(records, Outcome.TIMEOUT), path,
                  {"group": "static", "scenario": "demo", "pair": 0, "planner": "dwa",
                   "cost_mode": "iterations", "d_safe": 0.34})
    old, new = edit
    lines = path.read_text().splitlines()
    assert old in lines
    path.write_text("\n".join(ln for ln in (new if ln == old else ln for ln in lines)
                              if ln is not None) + "\n")
    assert cli.main(["report", "--in", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert not list(tmp_path.glob("table_*"))


@pytest.mark.parametrize("key, value", [("name", "again"), ("map", "demo.grid"),
                                        ("scan", "-90 90 1 0.05 8")])
def test_validate_rejects_a_repeated_singleton_key(tmp_path, capsys, key, value):
    g = generate_world("open_room", WorldParams(6.0, 5.0), 0)
    path = tmp_path / "demo.scene"
    save_scenario(Scenario(name="demo", map=g,
                           start_goal_pairs=(((1.0, 1.0, 0.0), (5.0, 4.0, 0.0)),)),
                  path)
    lines = path.read_text().splitlines() + ["scan -90 90 1 0.05 8"]
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["validate", "--scene", str(path)]) == 0  # each key once: fine
    # pair (like mask and agent) may repeat; the singleton's second line may not
    path.write_text("\n".join(lines + ["pair 1 1 0 5 4 0", f"{key} {value}"]) + "\n")
    capsys.readouterr()
    assert cli.main(["validate", "--scene", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{len(lines) + 2}: ") and repr(key) in err


@pytest.mark.parametrize("flag, value", [("--timeout", "inf"), ("--timeout", "nan"),
                                         ("--control-period", "nan")])
def test_trial_with_a_non_finite_period_is_an_error(tmp_path, capsys, flag, value):
    grid = generate_world("office", WorldParams(7.0, 6.0, clutter=2), seed=3)
    scene = tmp_path / "small.scene"
    pairs = propose_pairs(grid, 1, seed=5, min_euclid=3.0, max_path=9.0)
    save_scenario(Scenario(name="small", map=grid, start_goal_pairs=pairs),
                  str(scene))
    out_dir = tmp_path / "out"
    assert cli.main(["trial", "--scene", str(scene), "--planner", "dwa",
                     flag, value, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag[2:].replace("-", "_") in err
    assert not out_dir.exists()
