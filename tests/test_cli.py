"""`bench` end to end: make-suite, run, report, and a missing input file."""

import pytest

from navbench import cli


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
