import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navbench.errors import ParseError, ValidationError
from navbench.metrics import (LogRecord, MetricsConfig, NavLog, Outcome,
                              aggregate_reports, compute_report,
                              efficiency_compute, efficiency_travel_time,
                              path_length, read_log_csv, safety_exposure,
                              safety_min_distance, smoothness_path,
                              smoothness_velocity, write_log_csv)


def make_log(t, x=None, y=None, v=None, d=None, c=None, outcome=Outcome.SUCCESS):
    n = len(t)
    x = x if x is not None else [0.0] * n
    y = y if y is not None else [0.0] * n
    v = v if v is not None else [0.0] * n
    d = d if d is not None else [1.0] * n
    c = c if c is not None else [1.0] * n
    recs = [LogRecord(t[i], x[i], y[i], 0.0, v[i], 0.0, d[i], c[i]) for i in range(n)]
    return NavLog(tuple(recs), outcome)


def random_log(rng, n):
    t = np.cumsum(rng.uniform(0.05, 0.5, size=n))
    return make_log(
        t=list(t),
        x=list(rng.normal(0, 5, size=n)),
        y=list(rng.normal(0, 5, size=n)),
        v=list(rng.uniform(-0.2, 0.55, size=n)),
        d=list(rng.uniform(0.0, 2.0, size=n)),
        c=list(rng.uniform(0.0, 50.0, size=n)),
    )


# naive single-purpose oracles, coded independently of the module


def oracle_min(log):
    best = math.inf
    for r in log.records:
        if r.d < best:
            best = r.d
    return best


def oracle_exposure(log, d_safe):
    recs = log.records
    total = 0.0
    i = 0
    while i < len(recs):
        if recs[i].d <= d_safe:
            j = i
            while j + 1 < len(recs) and recs[j + 1].d <= d_safe:
                j += 1
            total += recs[j].t - recs[i].t
            i = j + 1
        else:
            i += 1
    return total / (recs[-1].t - recs[0].t) * 100.0


def oracle_fps(log):
    recs = log.records
    total = 0.0
    for i in range(1, len(recs) - 1):
        ax = recs[i].x - recs[i - 1].x
        ay = recs[i].y - recs[i - 1].y
        bx = recs[i + 1].x - recs[i].x
        by = recs[i + 1].y - recs[i].y
        total += (bx - ax) ** 2 + (by - ay) ** 2
    return total


def oracle_fvs(log):
    recs = log.records
    acc = 0.0
    for a, b in zip(recs, recs[1:]):
        acc += abs((b.v - a.v) / (b.t - a.t))
    return acc / (len(recs) - 1)


def oracle_length(log):
    recs = log.records
    return sum(math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(recs, recs[1:]))


def oracle_mean_kahan(values):
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / len(values)


def test_min_distance_examples():
    assert safety_min_distance(make_log([0, 1, 2], d=[0.5, 0.3, 0.4])) == 0.3
    assert safety_min_distance(make_log([0], d=[0.22])) == 0.22


def test_exposure_worked_example():
    log = make_log([0, 1, 2, 3, 4], d=[1, 0.2, 0.2, 1, 0.2])
    assert safety_exposure(log, MetricsConfig(d_safe=0.34)) == 25.0


def test_exposure_extremes():
    assert safety_exposure(make_log([0, 1, 2], d=[1, 1, 1])) == 0.0
    assert safety_exposure(make_log([0, 1, 2], d=[0.1, 0.1, 0.1])) == 100.0


def test_exposure_needs_two_records():
    with pytest.raises(ValidationError):
        safety_exposure(make_log([0.0]))


def test_travel_time():
    assert efficiency_travel_time(make_log([5.0, 45.0])) == 40.0
    assert efficiency_travel_time(make_log([3.0])) == 0.0


def test_travel_time_consistent_with_period():
    n = 176
    t = [0.2 * (i + 1) for i in range(n)]
    assert efficiency_travel_time(make_log(t)) == pytest.approx(35.0, abs=0.2)


def test_compute_mean():
    assert efficiency_compute(make_log([0, 1], c=[4.0, 6.0])) == 5.0
    assert efficiency_compute(make_log([0, 1, 2], c=[3.7] * 3)) == pytest.approx(3.7)


def test_compute_mean_matches_kahan(rng):
    log = random_log(rng, 1000)
    cs = [r.c for r in log.records]
    assert efficiency_compute(log) == pytest.approx(oracle_mean_kahan(cs), abs=1e-9)


def test_path_smoothness_examples():
    collinear = make_log([0, 1, 2, 3], x=[0, 1, 2, 3], y=[0, 0, 0, 0])
    assert smoothness_path(collinear) == 0.0
    corner = make_log([0, 1, 2], x=[0, 1, 1], y=[0, 0, 1])
    assert smoothness_path(corner) == 2.0


def test_path_smoothness_random_matches_oracle(rng):
    log = random_log(rng, 500)
    mine = smoothness_path(log)
    assert mine == pytest.approx(oracle_fps(log), rel=1e-12)


def test_velocity_smoothness_examples():
    assert smoothness_velocity(make_log([0, 1, 2], v=[0.3, 0.3, 0.3])) == 0.0
    assert smoothness_velocity(make_log([0.0, 1.0], v=[0.0, 0.5])) == 0.5


def test_path_length_examples():
    assert path_length(make_log([0], x=[1], y=[1])) == 0.0
    assert path_length(make_log([0, 1], x=[0, 3], y=[0, 4])) == 5.0


def test_random_logs_match_oracles(rng):
    for _ in range(200):
        log = random_log(rng, int(rng.integers(3, 60)))
        assert safety_min_distance(log) == pytest.approx(oracle_min(log), rel=1e-12)
        assert safety_exposure(log) == pytest.approx(oracle_exposure(log, 0.34), rel=1e-9)
        assert smoothness_path(log) == pytest.approx(oracle_fps(log), rel=1e-9)
        assert smoothness_velocity(log) == pytest.approx(oracle_fvs(log), rel=1e-9)
        assert path_length(log) == pytest.approx(oracle_length(log), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-math.pi, math.pi),
       st.floats(-10, 10), st.floats(-10, 10))
def test_fps_rigid_transform_invariant(seed, angle, tx, ty):
    rng = np.random.default_rng(seed)
    log = random_log(rng, 40)
    base = smoothness_path(log)
    c, s = math.cos(angle), math.sin(angle)
    recs = []
    for r in log.records:
        recs.append(LogRecord(r.t, c * r.x - s * r.y + tx, s * r.x + c * r.y + ty,
                              r.theta, r.v, r.omega, r.d, r.c))
    moved = NavLog(tuple(recs), log.outcome)
    assert smoothness_path(moved) == pytest.approx(base, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-100, 100))
def test_exposure_time_translation_invariant(seed, shift):
    rng = np.random.default_rng(seed)
    log = random_log(rng, 30)
    base = safety_exposure(log)
    recs = [LogRecord(r.t + shift, r.x, r.y, r.theta, r.v, r.omega, r.d, r.c)
            for r in log.records]
    assert safety_exposure(NavLog(tuple(recs), log.outcome)) == pytest.approx(base, rel=1e-9)


def test_compute_report_composes(rng):
    log = random_log(rng, 50)
    rep = compute_report(log)
    assert rep.min_obstacle_distance == safety_min_distance(log)
    assert rep.exposure_percent == safety_exposure(log)
    assert rep.travel_time == efficiency_travel_time(log)
    assert rep.compute_mean == efficiency_compute(log)
    assert rep.path_smoothness == smoothness_path(log)
    assert rep.velocity_smoothness == smoothness_velocity(log)
    assert rep.path_length == path_length(log)
    assert 0.0 <= rep.exposure_percent <= 100.0


def test_aggregate_means(rng):
    reports = [compute_report(random_log(rng, 30)) for _ in range(5)]
    agg = aggregate_reports(reports)
    for idx in range(7):
        vals = [r.as_tuple()[idx] for r in reports]
        assert agg.as_tuple()[idx] == pytest.approx(sum(vals) / len(vals), rel=1e-12)


def test_aggregate_skips_failures(rng):
    good = compute_report(random_log(rng, 30))
    bad = compute_report(NavLog(random_log(rng, 10).records, Outcome.COLLISION))
    agg = aggregate_reports([good, bad])
    assert agg.travel_time == good.travel_time


def test_log_validation():
    with pytest.raises(ValidationError):
        NavLog((), Outcome.SUCCESS)
    with pytest.raises(ValidationError):
        make_log([0.0, 0.0])


def test_csv_roundtrip(tmp_path, rng):
    log = random_log(rng, 25)
    path = tmp_path / "trial.csv"
    write_log_csv(log, path, {"scenario": "office", "planner": "teb", "pair": 1})
    log2, meta = read_log_csv(path)
    assert meta["scenario"] == "office"
    assert meta["outcome"] == "success"
    assert len(log2) == len(log)
    for a, b in zip(log.records, log2.records):
        assert b.t == pytest.approx(a.t, rel=1e-9)
        assert b.d == pytest.approx(a.d, rel=1e-9)
        assert b.c == pytest.approx(a.c, rel=1e-9)


def test_csv_inf_sentinel(tmp_path):
    log = make_log([0.0, 1.0], d=[math.inf, 1.0])
    path = tmp_path / "inf.csv"
    write_log_csv(log, path)
    text = path.read_text()
    assert "inf" not in text
    log2, _ = read_log_csv(path)
    assert log2.records[0].d == 1e9


@pytest.mark.parametrize("row, column, value, at_line", [
    (3, 0, "0", False),    # row 2's timestamp again: the rows, not one row, are bad
    (3, 0, "nan", True),   # a non-finite timestamp
    (2, 6, "nan", True),   # a non-finite clearance, once read as valid
])
def test_malformed_csv_row_names_the_file_and_line(tmp_path, row, column, value, at_line):
    path = tmp_path / "trial.csv"
    write_log_csv(make_log([0.0, 1.0, 2.0]), path)
    lines = path.read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[column] = value
    lines[row - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_log_csv(path)
    assert str(err.value).startswith(f"{path}:{row}: " if at_line else f"{path}: ")
