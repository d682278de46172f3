"""Run every workload at one seed, untraced and traced, and print one report.

    python3 perfbench/report.py --seed 0 [--seconds 36] [--out perfbench/results/seed0.json]

Each workload runs twice through `run.py` in its own process: once without
tracing, for the end-to-end metrics, and once traced, for the per-layer
table.  The report adds the tracing overhead (traced minus untraced median
tick time) and checks each workload's stated reason against the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

WORKLOAD_NAMES = ("static_dwa", "replan_dwa", "teb_jobs2")


def run_one(workload, seed, seconds, trace, work_dir) -> dict:
    detail = os.path.join(work_dir, f"{workload}-{trace}.json")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--detail", detail]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(detail, encoding="utf-8") as f:
        return json.load(f)


def confirmations(results) -> list:
    """(claim, measured, holds) for each workload's stated reason."""
    out = []
    s0, s1 = results["static_dwa"]
    r1 = results["replan_dwa"][1]
    plan = s0["end_to_end"]["plan_ms_p50"][0]
    tick = s0["end_to_end"]["tick_ms_p50"][0]
    if plan is not None and tick is not None:
        out.append(("static_dwa: DWA planning holds most of the tick",
                    f"plan_ms_p50 / tick_ms_p50 = {plan / tick:.2f}", plan / tick > 0.5))
    for name, res in (("static_dwa", s1), ("replan_dwa", r1)):
        calls = res["layers"].get("global_planner.plan_global.calls")
        if calls is not None:
            per_trial = calls * res["ticks_per_trial"]
            want_once = name == "static_dwa"
            out.append((f"{name}: plan_global runs once per "
                        f"{'trial' if want_once else 'tick'}",
                        f"{calls:.3f} calls per tick, {per_trial:.2f} per trial",
                        per_trial < 1.5 if want_once else calls > 0.9))
    key = "gridmap.integrate_scan.changed_ratio"
    a, b = s1["layers"].get(key), r1["layers"].get(key)
    if a is not None and b is not None:
        out.append(("integrate_scan.changed_ratio is higher on replan_dwa",
                    f"static_dwa {a:.3f}, replan_dwa {b:.3f}", b > a))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--out", default=None, help="write the whole report as JSON here")
    args = ap.parse_args(argv)
    import run
    import workloads as wl
    if args.seconds is None:
        args.seconds = run.benchmark_spec()["run_seconds"]

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_work")) as tmp:
        results = {w: (run_one(w, args.seed, args.seconds, 0, tmp),
                       run_one(w, args.seed, args.seconds, 1, tmp))
                   for w in WORKLOAD_NAMES}

    print(f"seed {args.seed}, {args.seconds:g} s per run")
    print(f"{'metric':14s} {'unit':8s}" + "".join(f" {w:>22s}" for w in WORKLOAD_NAMES))
    for name, unit, _ in wl.END_TO_END:
        cells = []
        for w in WORKLOAD_NAMES:
            value, n, _ = results[w][0]["end_to_end"][name]
            cells.append(f"{'-' if value is None else f'{value:.4g}'} (n={n})")
        print(f"{name:14s} {unit:8s}" + "".join(f" {c:>22s}" for c in cells))
    for w in WORKLOAD_NAMES:
        untraced, traced = results[w]
        a = untraced["end_to_end"]["tick_ms_p50"][0]
        b = traced["end_to_end"]["tick_ms_p50"][0]
        if a is not None and b is not None:
            print(f"tracing overhead {w}: tick_ms_p50 {b:.2f} ms traced - {a:.2f} ms "
                  f"untraced = {b - a:+.2f} ms")
        for text, n in untraced["crashes"].items():
            print(f"crashed {w} x{n}: {text}")
        for failure in untraced["checks_failed"] + traced["checks_failed"]:
            print(f"check failed {w}: {failure}")
        for note in traced["notes"]:
            print(f"note {w}: {note}")

    names = sorted(set().union(*(results[w][1]["layers"] for w in WORKLOAD_NAMES)))
    print(f"\n{'layer metric':58s}" + "".join(f" {w:>12s}" for w in WORKLOAD_NAMES))
    for name in names:
        cells = [results[w][1]["layers"].get(name) for w in WORKLOAD_NAMES]
        print(f"{name:58s}" + "".join(f" {'-' if c is None else f'{c:.4g}':>12s}"
                                      for c in cells))
    print()
    checks = confirmations(results)
    for claim, measured, holds in checks:
        print(f"{'holds' if holds else 'FAILS'}: {claim} ({measured})")
    print("environment: " + " ".join(
        f"{k}={v}" for k, v in results["static_dwa"][0]["environment"].items()))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "confirmations": checks,
                       "workloads": {w: {"untraced": u, "traced": t}
                                     for w, (u, t) in results.items()}},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if all(holds for _, _, holds in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
