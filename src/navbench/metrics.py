"""Per-trial navigation logs and the benchmark metrics derived from them.

A trial produces one record per control cycle: timestamp, pose, commanded
velocities, clearance to the closest sensed obstacle, and planner compute
cost.  The metric kernels below reduce a log to the report row used in the
comparison tables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError, finite
from .gridmap import INF_SENTINEL_M


class Outcome(enum.Enum):
    SUCCESS = "success"
    TIMEOUT = "timeout"
    COLLISION = "collision"
    PLANNER_FAILURE = "planner_failure"


@dataclass(frozen=True)
class LogRecord:
    t: float
    x: float
    y: float
    theta: float
    v: float
    omega: float
    d: float       # clearance to closest sensed obstacle [m]
    c: float       # planner compute cost (ms, or iterations in that mode)
    d_true: float | None = None  # clearance against ground truth, if logged

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValidationError("record timestamp must be finite")
        if self.d < 0:
            raise ValidationError("clearance must be non-negative")
        if self.c < 0:
            raise ValidationError("compute cost must be non-negative")


@dataclass(frozen=True)
class NavLog:
    records: tuple[LogRecord, ...]
    outcome: Outcome

    def __post_init__(self):
        recs = tuple(self.records)
        if len(recs) < 1:
            raise ValidationError("a log needs at least one record")
        ts = [r.t for r in recs]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValidationError("timestamps must be strictly increasing")
        object.__setattr__(self, "records", recs)

    def __len__(self):
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records], dtype=np.float64)


@dataclass(frozen=True)
class MetricsConfig:
    d_safe: float = 0.34  # clearance threshold for the exposure metric

    def __post_init__(self):
        if not 0 < self.d_safe < math.inf:
            raise ValidationError("d_safe must be positive and finite")


C_UNITS = {"wallclock": "ms", "iterations": "iter"}  # C's unit by cost mode


@dataclass(frozen=True)
class MetricsReport:
    min_obstacle_distance: float   # d_o [m]
    exposure_percent: float        # p_o [%]
    travel_time: float             # T [s]
    compute_mean: float            # C [ms] or C [iter], by cost mode
    path_smoothness: float         # f_ps [m^2]
    velocity_smoothness: float     # f_vs [m/s^2]
    path_length: float             # S [m]
    outcome: Outcome

    @staticmethod
    def columns(cost_mode: str) -> tuple:
        """Labels of `as_tuple`; C is in ms of wall clock or planner iterations."""
        return ("d_o [m]", "p_o [%]", "T [s]", f"C [{C_UNITS[cost_mode]}]",
                "f_ps [m^2]", "f_vs [m/s^2]", "S [m]")

    def as_tuple(self):
        return (self.min_obstacle_distance, self.exposure_percent, self.travel_time,
                self.compute_mean, self.path_smoothness, self.velocity_smoothness,
                self.path_length)


def safety_min_distance(log: NavLog) -> float:
    """Smallest clearance seen over the whole trial."""
    return float(min(r.d for r in log.records))


def safety_exposure(log: NavLog, cfg: MetricsConfig = MetricsConfig()) -> float:
    """Percentage of trial time spent inside the dangerous band d <= d_safe.

    Contiguous below-threshold runs [a, b] contribute t_b - t_a, so an
    isolated single sample contributes zero duration.
    """
    if len(log) < 2:
        raise ValidationError("exposure needs at least two records")
    t = log.column("t")
    below = (log.column("d") <= cfg.d_safe).astype(np.int8)
    edges = np.diff(np.concatenate(([0], below, [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    # cumsum adds the run durations strictly in order, like a running total
    total = np.cumsum(t[ends] - t[starts])[-1] if starts.size else 0.0
    return float(total / (t[-1] - t[0]) * 100.0)


def efficiency_travel_time(log: NavLog) -> float:
    t = log.column("t")
    return float(t[-1] - t[0])


def efficiency_compute(log: NavLog) -> float:
    """Mean planner compute cost per call."""
    return float(log.column("c").mean())


def smoothness_path(log: NavLog) -> float:
    """Sum of squared second differences of the logged positions."""
    if len(log) < 3:
        raise ValidationError("path smoothness needs at least three records")
    xy = np.stack([log.column("x"), log.column("y")], axis=1)
    d = np.diff(xy, axis=0)
    dd = np.diff(d, axis=0)
    return float((dd * dd).sum())


def smoothness_velocity(log: NavLog) -> float:
    """Mean |dv/dt| between consecutive records."""
    if len(log) < 2:
        raise ValidationError("velocity smoothness needs at least two records")
    t = log.column("t")
    v = log.column("v")
    return float(np.abs(np.diff(v) / np.diff(t)).mean())


def path_length(log: NavLog) -> float:
    xy = np.stack([log.column("x"), log.column("y")], axis=1)
    if len(log) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(xy, axis=0), axis=1).sum())


def compute_report(log: NavLog, cfg: MetricsConfig = MetricsConfig()) -> MetricsReport:
    """All metrics for one trial.  Metrics whose minimum record count is not
    met by a degenerate/partial log fall back to zero."""
    n = len(log)
    return MetricsReport(
        min_obstacle_distance=safety_min_distance(log),
        exposure_percent=safety_exposure(log, cfg) if n >= 2 else 0.0,
        travel_time=efficiency_travel_time(log),
        compute_mean=efficiency_compute(log),
        path_smoothness=smoothness_path(log) if n >= 3 else 0.0,
        velocity_smoothness=smoothness_velocity(log) if n >= 2 else 0.0,
        path_length=path_length(log),
        outcome=log.outcome,
    )


def aggregate_reports(reports) -> MetricsReport | None:
    """Per-metric mean over the successful trials; None if there are none."""
    ok = [r for r in reports if r.outcome is Outcome.SUCCESS]
    if not ok:
        return None
    cols = np.array([r.as_tuple() for r in ok], dtype=np.float64)
    mean = cols.mean(axis=0)
    return MetricsReport(*mean, outcome=Outcome.SUCCESS)


# ---------------------------------------------------------------------------
# CSV log files

_CSV_HEADER = "t,x,y,theta,v,omega,d_obs,c_ms,d_true"


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        x = math.copysign(INF_SENTINEL_M, x)
    return f"{x:.10g}"


def write_log_csv(log: NavLog, path, metadata: dict | None = None) -> None:
    """One row per record, then a `# key: value` metadata block."""
    lines = [_CSV_HEADER]
    for r in log.records:
        d_true = r.d_true if r.d_true is not None else r.d
        lines.append(",".join(_fmt(v) for v in
                              (r.t, r.x, r.y, r.theta, r.v, r.omega, r.d, r.c, d_true)))
    meta = dict(metadata or {})
    meta.setdefault("outcome", log.outcome.value)
    for key in sorted(meta):
        lines.append(f"# {key}: {meta[key]}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def read_log_csv(path) -> tuple[NavLog, dict]:
    """Read a `write_log_csv` file; it must name a valid outcome and an integer pair, if any.
    A bad row raises ParseError at its line, a bad sequence of rows at the file."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("t,x,y"):
        raise ParseError("missing log header", path=path, line=1)
    records = []
    meta = {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                k, v = body.split(":", 1)
                meta[k.strip()] = v.strip()
            continue
        parts = line.split(",")
        if len(parts) not in (8, 9):
            raise ParseError(f"expected 8 or 9 columns, got {len(parts)}", path=path, line=ln)
        try:
            vals = [finite(p) for p in parts]
            records.append(LogRecord(*vals[:8], d_true=vals[8] if len(vals) == 9 else None))
        except (ValueError, ValidationError) as exc:
            raise ParseError(str(exc), path=path, line=ln)
    try:
        outcome, _ = Outcome(meta.get("outcome")), int(meta.get("pair", 0))
    except ValueError as exc:
        raise ParseError(f"bad or missing '# outcome:', or bad '# pair:': {exc}", path=path)
    try:
        return NavLog(tuple(records), outcome), meta
    except ValidationError as exc:
        raise ParseError(str(exc), path=path)
