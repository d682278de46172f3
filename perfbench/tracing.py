"""Spans around navbench's layer functions, installed from outside the package.

Every function is wrapped where it is called: the attribute that the calling
module looks up at run time is replaced, e.g. `navbench.harness.raycast` or
`navbench.local_planners.common.sample_field`.  Nothing under `src/` knows
about the wrappers.

A control tick is the interval from the harness's `raycast` call (the first
step of a tick) to the `LogRecord` built at its end.  A tick whose trial
raised before that record is not a completed tick and leaves no sample.

Each trial's spans are kept in memory by a `TrialRecorder` and written to a
spool directory when the trial ends, so that trials run by `run_suite`'s
process pool report back the same way as serial ones.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import pickle
import time
from array import array
from collections import defaultdict

import numpy as np

TICK = "harness.tick"
TRIAL = "harness.run_trial"
PLAN = "local_planners.plan"

# Counters taken after a call returns, outside its span's time.


def _changed_cells(rec, metric, args, result):
    rec.count(metric + ".changed", not np.array_equal(result.cells, args[0].cells))


def _points(rec, metric, args, result):
    rec.count(metric + ".points", np.size(args[1]))


def _plan_work(rec, metric, args, result):
    rec.count(metric + ".iterations", result.iterations)
    rec.count(metric + ".infeasible", result.status.value == "infeasible")
    if result.objective_trace is not None:
        rec.count("local_planners.teb.trace_len", len(result.objective_trace))
        rec.count("local_planners.teb.traced_plans", 1)


# (module whose global the caller looks up, attribute path, metric name,
# counter hook).  Traced mode wraps all of them; untraced mode only the ones
# in `TIMING`.  A name listed twice is one layer called from two places.
LAYERS = (
    ("navbench.harness", "run_trial", TRIAL, None),
    ("navbench.harness", "raycast", "gridmap.raycast", None),
    ("navbench.harness", "integrate_scan", "gridmap.integrate_scan", _changed_cells),
    ("navbench.harness", "distance_transform", "gridmap.distance_transform", None),
    ("navbench.global_planner", "distance_transform", "gridmap.distance_transform", None),
    ("navbench.local_planners.teb", "signed_distance_field",
     "gridmap.signed_distance_field", None),
    ("navbench.local_planners.common", "sample_field", "gridmap.sample_field", _points),
    ("navbench.local_planners.teb", "sample_field", "gridmap.sample_field", _points),
    ("navbench.global_planner", "sample_field", "gridmap.sample_field", _points),
    ("navbench.harness", "crop_local", "gridmap.crop_local", None),
    ("navbench.harness", "plan_global", "global_planner.plan_global", None),
    ("navbench.harness", "extract_local_reference",
     "global_planner.extract_local_reference", None),
    ("navbench.harness", "plan", PLAN, _plan_work),
    ("navbench.local_planners", "dwa_plan", "local_planners.dwa.dwa_plan", None),
    ("navbench.local_planners.dwa", "rollout_for_scoring",
     "local_planners.dwa.rollout_for_scoring", None),
    ("navbench.local_planners.dwa", "trajectory_min_clearance",
     "local_planners.dwa.trajectory_min_clearance", None),
    ("navbench.local_planners.common", "trajectory_min_clearance",
     "local_planners.dwa.trajectory_min_clearance", None),
    ("navbench.local_planners.dwa", "score_components",
     "local_planners.dwa.score_components", None),
    ("navbench.local_planners.common", "forward_simulate",
     "local_planners.common.forward_simulate", None),
    ("navbench.local_planners", "teb_plan", "local_planners.teb.teb_plan", None),
    ("navbench.local_planners.teb", "optimize_band", "local_planners.teb.optimize_band", None),
    ("navbench.local_planners.teb", "BandProblem.residuals_and_jacobian",
     "local_planners.teb.BandProblem.residuals_and_jacobian", None),
    ("navbench.local_planners.teb", "BandProblem.objective",
     "local_planners.teb.BandProblem.objective", None),
    ("navbench.harness", "stamp_agents", "world.stamp_agents", None),
    ("navbench.harness", "step_agents", "world.step_agents", None),
    ("navbench.harness", "step", "robot.step", None),
    ("navbench.harness", "clamp_command", "robot.clamp_command", None),
    ("navbench.harness", "compute_report", "metrics.compute_report", None),
    ("navbench.harness", "write_log_csv", "metrics.write_log_csv", None),
    ("navbench.report", "write_group_tables", "report.write_group_tables", None),
    ("navbench.harness", "load_scenario", "world.load_scenario", None),
    ("navbench.world", "load_scenario", "world.load_scenario", None),
    ("navbench.suitegen", "build_default_suite", "suitegen.build_default_suite", None),
)
TIMING = {TRIAL, PLAN}


class TrialRecorder:
    """Spans and counters of one trial, or of the set-up, in one process."""

    def __init__(self):
        self.stack = []                      # open spans: [child seconds]
        self.durations = defaultdict(lambda: array("d"))
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.tick_ms = array("d")
        self.plan_ms = array("d")
        self.tick_open = None                # (start, frame, plan ms of this tick)

    def count(self, key, value):
        self.counters[key] += float(value)

    def enter(self):
        frame = [0.0]
        self.stack.append(frame)
        return frame

    def leave(self, name, frame, seconds):
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += seconds
        self.durations[name].append(seconds)
        self.self_s[name] += seconds - frame[0]

    def open_tick(self):
        if self.tick_open is None:
            self.tick_open = (time.perf_counter(), self.enter(), [])

    def close_tick(self):
        if self.tick_open is None:
            return
        start, frame, plans = self.tick_open
        seconds = time.perf_counter() - start
        self.tick_open = None
        self.leave(TICK, frame, seconds)
        self.tick_ms.append(seconds * 1e3)
        self.plan_ms.extend(plans)

    def export(self) -> dict:
        return {"durations": dict(self.durations), "self_s": dict(self.self_s),
                "counters": dict(self.counters),
                "tick_ms": self.tick_ms, "plan_ms": self.plan_ms}


def _resolve(module_name, attr_path):
    """(owner, attribute name, current value), or None if anything is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Installs the wrappers and collects one record per trial.

    `traced=False` installs only what the end-to-end metrics need: the tick
    markers, the trial wrapper and the `plan` span.
    """

    def __init__(self, spool_dir, traced: bool):
        self.spool_dir = spool_dir
        self.traced = traced
        self.rec = TrialRecorder()          # set-up spans land here
        self.notes = []
        self._restore = []
        self._seq = itertools.count()

    # -- installation ------------------------------------------------------

    def install(self):
        for module_name, attr_path, metric, hook in LAYERS:
            if not self.traced and metric not in TIMING:
                continue
            found = _resolve(module_name, attr_path)
            if found is None:
                self.notes.append(f"absent: {module_name}.{attr_path} not found, "
                                  f"no {metric}.* metrics")
                continue
            owner, attr, fn = found
            wrapper = (self._trial_wrapper(fn) if metric == TRIAL
                       else self._span_wrapper(fn, metric, hook))
            self._patch(owner, attr, wrapper)
        self._install_tick_markers()
        return self

    def _install_tick_markers(self):
        found_start = _resolve("navbench.harness", "raycast")
        found_end = _resolve("navbench.harness", "LogRecord")
        if found_start is None or found_end is None:
            self.notes.append("absent: navbench.harness.raycast or LogRecord not found, "
                              "no tick metrics")
            return
        owner, attr, start_fn = found_start

        @functools.wraps(start_fn)
        def tick_start(*args, **kwargs):
            self.rec.open_tick()
            return start_fn(*args, **kwargs)

        owner_end, attr_end, end_cls = found_end

        def tick_end(*args, **kwargs):
            record = end_cls(*args, **kwargs)
            self.rec.close_tick()
            return record

        self._patch(owner, attr, tick_start)
        self._patch(owner_end, attr_end, tick_end)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, metric, hook):
        counting = self.traced

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.rec
            frame = rec.enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec.leave(metric, frame, time.perf_counter() - t0)
                rec.count(metric + ".raised", 1)
                raise
            seconds = time.perf_counter() - t0
            rec.leave(metric, frame, seconds)
            if metric == PLAN and rec.tick_open is not None:
                rec.tick_open[2].append(seconds * 1e3)
            if counting and hook is not None:
                hook(rec, metric, args, result)
            return result
        return wrapper

    def _trial_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(scenario, planner_name, pair_index, *args, **kwargs):
            outer, rec = self.rec, TrialRecorder()
            self.rec = rec
            frame = rec.enter()
            t0 = time.perf_counter()
            try:
                return fn(scenario, planner_name, pair_index, *args, **kwargs)
            finally:
                del rec.stack[1:]            # the tick a crash left open
                rec.tick_open = None
                rec.leave(TRIAL, frame, time.perf_counter() - t0)
                self._spool({"scenario": scenario.name, "pair": pair_index, **rec.export()})
                self.rec = outer
        return wrapper

    def take(self) -> dict:
        """The spans recorded outside trials so far; recording starts afresh."""
        record, self.rec = self.rec.export(), TrialRecorder()
        return record

    def _spool(self, record):
        path = os.path.join(self.spool_dir, f"{os.getpid()}-{next(self._seq)}.pkl")
        with open(path, "wb") as f:
            pickle.dump(record, f)

    def drain(self) -> list:
        """Trial records spooled since the last drain, in a stable order."""
        out = []
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path, "rb") as f:
                out.append(pickle.load(f))
            os.remove(path)
        out.sort(key=lambda r: (r["scenario"], r["pair"]))
        return out


# ---------------------------------------------------------------------------
# per-layer table


SETUP_LAYERS = ("suitegen.build_default_suite", "world.load_scenario")


def setup_only(record: dict) -> dict:
    """The set-up layers' spans of a set-up record; spans nested inside them
    (the suite generator's own planning and sampling) are left out."""
    return {"durations": {k: v for k, v in record["durations"].items() if k in SETUP_LAYERS},
            "self_s": {k: v for k, v in record["self_s"].items() if k in SETUP_LAYERS},
            "counters": {}}


def merge(records) -> dict:
    """Sum the spans and counters of many trial (or set-up) records."""
    total = {"durations": defaultdict(list), "self_s": defaultdict(float),
             "counters": defaultdict(float)}
    for r in records:
        for name, values in r["durations"].items():
            total["durations"][name].append(np.asarray(values, dtype=np.float64))
        for name, value in r["self_s"].items():
            total["self_s"][name] += value
        for name, value in r["counters"].items():
            total["counters"][name] += value
    total["durations"] = {k: np.concatenate(v) for k, v in total["durations"].items()}
    return total


def layer_table(merged: dict) -> dict:
    """`<module>.<function>.<stat>` -> value.

    calls: calls per completed tick; us_p50: median µs per call; self_share:
    span time minus its child spans, over total tick time.  Counters become
    ratios or means over the calls they were counted on.
    """
    durations, self_s, counters = merged["durations"], merged["self_s"], merged["counters"]
    ticks = durations.get(TICK, np.empty(0))
    n_ticks, tick_s = len(ticks), float(ticks.sum())
    out = {}
    for name in sorted(durations):
        d = durations[name]
        out[f"{name}.us_p50"] = float(np.median(d)) * 1e6
        if n_ticks:  # without a completed tick there is nothing to divide by
            out[f"{name}.calls"] = len(d) / n_ticks
            out[f"{name}.self_share"] = self_s[name] / tick_s
    def ratio(key, counter, span, over_returned=True):
        calls = len(durations.get(span, ()))
        if over_returned:
            calls -= counters.get(span + ".raised", 0.0)
        if calls:
            out[key] = counters.get(counter, 0.0) / calls

    ratio("gridmap.integrate_scan.changed_ratio", "gridmap.integrate_scan.changed",
          "gridmap.integrate_scan")
    ratio("gridmap.sample_field.points", "gridmap.sample_field.points", "gridmap.sample_field")
    ratio("global_planner.plan_global.fail_ratio", "global_planner.plan_global.raised",
          "global_planner.plan_global", over_returned=False)
    ratio("local_planners.plan.iterations", "local_planners.plan.iterations", PLAN)
    ratio("local_planners.plan.infeasible_ratio", "local_planners.plan.infeasible", PLAN)
    with_trace = counters.get("local_planners.teb.traced_plans")
    if with_trace:
        out["local_planners.teb.trace_len"] = counters["local_planners.teb.trace_len"] / with_trace
    return out
