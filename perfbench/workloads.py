"""The benchmark's workloads, their set-up, output checks and end-to-end metrics.

Every workload is a closed loop: `run_suite` runs one trial after another
(or two at a time on a two-worker pool), and a trial's next control tick
starts only when the previous one has ended.  Trials run in iterations mode
with a fixed tick budget, so their CSV rows are deterministic and a
repetition must reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

from navbench import harness, metrics, report, suitegen, world

@dataclass(frozen=True)
class Workload:
    name: str
    scenes: tuple          # scene names in the generated suite
    planner: str
    jobs: int              # run_suite's process pool size; 1 runs serially
    ticks: int             # tick budget per trial


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("static_dwa", ("office", "house", "maze", "corridor_u", "corridor_acute"),
             "dwa", 1, 22),
    Workload("replan_dwa", ("office_masked", "office_dynamic", "crowd"), "dwa", 1, 18),
    Workload("teb_jobs2", ("office", "house", "maze", "corridor_u", "corridor_acute",
                           "office_masked", "office_dynamic", "crowd"), "teb", 2, 18),
)}

END_TO_END = (  # name, unit, better
    ("setup_s", "s", "lower"),
    ("sim_rate", "sim_s/s", "higher"),
    ("tick_ms_p50", "ms", "lower"),
    ("tick_ms_p90", "ms", "lower"),
    ("plan_ms_p50", "ms", "lower"),
    ("plan_ms_p90", "ms", "lower"),
    ("goal_ratio", "1", "higher"),
    ("error_ratio", "1", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def trial_config(w: Workload, ticks: int | None = None) -> harness.TrialConfig:
    """Iterations mode, default periods, and a timeout of `ticks` ticks."""
    period = harness.TrialConfig.control_period
    return harness.TrialConfig(compute_cost_mode="iterations",
                               timeout=(ticks or w.ticks) * period)


# ---------------------------------------------------------------------------
# set-up


def setup(w: Workload, seed: int, work_dir: str, repeats: int):
    """Build the suite and load the workload's scenes `repeats` times, at
    seeds seed, seed + 1, ...; the time a build takes depends on its seed,
    so the median over several seeds is steadier than any one.  The workload
    runs on the suite of `seed`.  Returns (manifest of the workload's scenes,
    {scene: Scenario}, set-up seconds of each repeat)."""
    times = []
    for i in reversed(range(repeats)):
        root = os.path.join(work_dir, f"suite{i}")
        t0 = time.perf_counter()
        manifest = suitegen.build_default_suite(root, seed=seed + i, pairs_per_scene=1)
        entries = [(g, p) for g, p in harness.parse_suite(manifest)
                   if os.path.basename(p)[:-len(".scene")] in w.scenes]
        scenes = {}
        for _, path in entries:
            scn = world.load_scenario(path)
            scenes[scn.name] = scn
        times.append(time.perf_counter() - t0)
        if i:
            shutil.rmtree(root)
    missing = set(w.scenes) - set(scenes)
    if missing:
        raise RuntimeError(f"suite has no scene {sorted(missing)}")
    sub_manifest = os.path.join(root, f"{w.name}.suite")
    lines = []
    for group, path in entries:
        if f"group {group}" not in lines:
            lines.append(f"group {group}")
        lines.append(f"scene {os.path.basename(path)}")
    with open(sub_manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return sub_manifest, scenes, times


# ---------------------------------------------------------------------------
# measured passes


@dataclass
class Pass:
    wall_s: float
    sim_s: float           # simulated seconds; a crashed trial adds none
    attempted: int
    successes: int
    crashed: list          # exception text of each crashed trial
    out_dir: str
    trials: list           # span records from the tracer's spool


def run_passes(w: Workload, manifest, cfg, work_dir, tracer, seconds: float):
    """Run the workload's whole suite again and again until about `seconds`
    have passed, and at least twice, so every pass has the same trials."""
    passes = []
    started = time.perf_counter()
    while True:
        out_dir = os.path.join(work_dir, f"pass{len(passes)}")
        t0 = time.perf_counter()
        result = harness.run_suite(manifest, [w.planner], cfg, out_dir, jobs=w.jobs)
        wall = time.perf_counter() - t0
        passes.append(Pass(
            wall_s=wall,
            sim_s=sum(r.log.records[-1].t for r in result.results if r.log.records),
            attempted=len(result.results) + len(result.crashed),
            successes=sum(r.outcome is metrics.Outcome.SUCCESS for r in result.results),
            crashed=[text for _, text in result.crashed],
            out_dir=out_dir, trials=tracer.drain()))
        elapsed = time.perf_counter() - started
        if len(passes) >= 2 and elapsed + wall / 2 >= seconds:
            return passes


# ---------------------------------------------------------------------------
# output checks


def _csv_rows(path):
    with open(path, encoding="utf-8") as f:
        return [ln for ln in f.read().splitlines() if not ln.startswith("#")]


def _tables(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith("table_"):
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                out[name] = f.read()
    return out


def check_outputs(passes, scenes, cfg, work_dir):
    """Apply the three output checks to the trials that wrote a CSV.  Returns
    (failures, failed trial keys, SHA-1 of the first pass's rows), where a
    key is (pass index, scenario, pair).  The digest lets a change that only
    speeds the program up show that it simulates exactly what its parent did."""
    failures = []
    failed = set()
    first_rows = {}
    for i, p in enumerate(passes):
        written = set()
        for name in sorted(os.listdir(p.out_dir)):
            if not name.endswith(".csv") or name.startswith("table_"):
                continue
            path = os.path.join(p.out_dir, name)
            log, meta = metrics.read_log_csv(path)
            key = (i, meta["scenario"], int(meta["pair"]))
            written.add(key)
            rows = _csv_rows(path)
            if first_rows.setdefault(name, rows) != rows:
                failures.append(f"repeat: {name} rows in pass {i} differ from pass 0")
                failed.add(key)
            if log.outcome is metrics.Outcome.SUCCESS:
                goal = scenes[key[1]].start_goal_pairs[key[2]][1]
                last = log.records[-1]
                miss = math.hypot(last.x - goal[0], last.y - goal[1])
                if miss > cfg.goal_pos_tol:
                    failures.append(f"goal: {name} pass {i} ends {miss:.3f} m from its "
                                    f"goal, tolerance {cfg.goal_pos_tol}")
                    failed.add(key)
        # run_suite's tables must be what write_group_tables rebuilds from the CSVs
        redo = os.path.join(work_dir, f"tables{i}")
        os.makedirs(redo)
        report.write_group_tables(p.out_dir, redo)
        if _tables(redo) != _tables(p.out_dir):
            failures.append(f"tables: pass {i} tables differ from write_group_tables "
                            f"re-run on its CSVs")
            failed.update(written)
    digest = hashlib.sha1()
    for name in sorted(first_rows):
        digest.update("\n".join([name] + first_rows[name]).encode())
    return failures, failed, digest.hexdigest()


# ---------------------------------------------------------------------------
# end-to-end metrics


def percentile_with_tail(values, q: float, tail: int = 10):
    """(value, percentile used): the q-th percentile, lowered until at least
    `tail` samples lie beyond it."""
    n = len(values)
    if n == 0:
        return None, q
    used = min(q, max(0.5, 1.0 - tail / n)) if q > 0.5 else q
    return float(np.percentile(values, used * 100.0)), used


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus, for a pool, the largest worker's peak
    once per worker (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * workers) / 1024.0


def end_to_end(w: Workload, setup_times, passes, failed_keys):
    """{name: (value or None, sample count, note)} for every END_TO_END metric."""
    attempted = sum(p.attempted for p in passes)
    crashes = sum(len(p.crashed) for p in passes)
    failed = crashes + len(failed_keys)   # a crashed trial writes no CSV to check
    sim = sum(p.sim_s for p in passes)
    wall = sum(p.wall_s for p in passes)
    tick_ms = np.concatenate([t["tick_ms"] for p in passes for t in p.trials] or [[]])
    plan_ms = np.concatenate([t["plan_ms"] for p in passes for t in p.trials] or [[]])
    goals = sum(p.successes for p in passes)
    out = {"setup_s": (statistics.median(setup_times), len(setup_times), "median")}
    out["sim_rate"] = (sim / wall, attempted, f"{sim:.1f} sim s over {wall:.2f} wall s")
    for label, samples in (("tick_ms", tick_ms), ("plan_ms", plan_ms)):
        for q in (0.5, 0.9):
            value, used = percentile_with_tail(samples, q)
            note = "no samples" if value is None else f"p{used * 100:g}"
            out[f"{label}_p{round(q * 100)}"] = (value, len(samples), note)
    out["goal_ratio"] = (goals / attempted if attempted else None, attempted, "")
    out["error_ratio"] = (failed / attempted if attempted else None, attempted,
                          f"{crashes} crashed")
    out["peak_rss_mb"] = (peak_rss_mb(w.jobs), 1, "")
    return out, attempted, failed
