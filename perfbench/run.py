"""Closed-loop navbench benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload static_dwa --seed 0 --seconds 36 --trace 0

Run from the repository root.  The benchmark builds the generated suite at
the seed, runs the workload's trials through `navbench.harness.run_suite` for
about `--seconds` seconds (at least two whole passes), checks the outputs and
prints a table.  With `--trace 0` the table holds the end-to-end metrics;
with `--trace 1` every layer function is wrapped and the table holds the
per-layer metrics.  The last line of standard output is one JSON object:
`correct`, `attempted` (trials run), `failed` (trials that raised or failed a
check) and `metrics` (the metrics named in BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_navbench():
    """Import navbench from this checkout's `src/` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "navbench", "__init__.py")):
        raise SystemExit(f"run.py: no navbench package under {SRC}")
    sys.path.insert(0, SRC)
    import navbench
    if os.path.dirname(os.path.dirname(os.path.abspath(navbench.__file__))) != SRC:
        raise SystemExit(f"run.py: navbench imported from {navbench.__file__}, not {SRC}")


def environment() -> dict:
    """What the run found, recorded as found: the benchmark sets none of it."""
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload: str, seed: int, seconds: float, traced: bool,
        ticks: int | None = None, setups: int = 5) -> dict:
    """Run one workload and return the full result (see `main` for the
    printed form).  `ticks` and `setups` shrink a run for quick checks."""
    import tracing
    import workloads as wl

    w = wl.WORKLOADS[workload]
    cfg = wl.trial_config(w, ticks)
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    try:
        spool = os.path.join(work_dir, "spool")
        os.makedirs(spool)
        with tracing.Tracer(spool, traced) as tracer:
            manifest, scenes, setup_times = wl.setup(w, seed, work_dir, setups)
            setup_rec = tracer.take()
            passes = wl.run_passes(w, manifest, cfg, work_dir, tracer, seconds)
            between_trials = tracer.take()
        failures, failed_keys, digest = wl.check_outputs(passes, scenes, cfg, work_dir)
        e2e, attempted, failed = wl.end_to_end(w, setup_times, passes, failed_keys)
        trials = [t for p in passes for t in p.trials]
        crashes = {}
        for p in passes:
            for text in p.crashed:
                crashes[text] = crashes.get(text, 0) + 1
        layers = {}
        if traced:
            records = trials + [between_trials, tracing.setup_only(setup_rec)]
            layers = tracing.layer_table(tracing.merge(records))
            if not any(t["tick_ms"] for t in trials):
                tracer.notes.append("no completed tick: per-layer calls and "
                                    "self_share are absent")
        return {"workload": workload, "seed": seed, "traced": traced,
                "passes": len(passes), "trials_per_pass": len(passes[0].trials),
                "ticks_per_trial": ticks or w.ticks, "attempted": attempted,
                "failed": failed, "checks_failed": failures, "crashes": crashes,
                "rows_sha1": digest,
                "notes": tracer.notes, "end_to_end": e2e, "layers": layers,
                "environment": environment()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def final_line(result: dict, spec: dict) -> dict:
    """The final JSON line: exactly the metrics BENCHMARK.json names."""
    if result["traced"]:
        wanted = spec["per_layer"]
        values = result["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {k: v[0] for k, v in result["end_to_end"].items()}
    return {"correct": not result["checks_failed"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                        for m in wanted}}


def print_table(result: dict) -> None:
    import workloads as wl
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {'on' if result['traced'] else 'off'}  passes {result['passes']} x "
          f"{result['trials_per_pass']} trials x {result['ticks_per_trial']} ticks")
    if result["traced"]:
        print(f"{'layer metric':58s} {'value':>14s}")
        for name, value in sorted(result["layers"].items()):
            print(f"{name:58s} {value:14.6g}")
    else:
        print(f"{'metric':14s} {'value':>12s} {'unit':8s} {'samples':>7s}  note")
        for name, unit, _ in wl.END_TO_END:
            value, n, note = result["end_to_end"][name]
            shown = "-" if value is None else f"{value:.6g}"
            print(f"{name:14s} {shown:>12s} {unit:8s} {n:7d}  {note}")
    print(f"trial rows sha1: {result['rows_sha1']}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in result["environment"].items()))
    for note in result["notes"]:
        print("note: " + note)
    for text, n in sorted(result["crashes"].items()):
        print(f"crashed x{n}: {text}")
    for failure in result["checks_failed"]:
        print("check failed: " + failure)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ticks", type=int, default=None,
                    help="tick budget per trial (default: the workload's)")
    ap.add_argument("--setups", type=int, default=5,
                    help="suite builds timed for setup_s, at seed, seed + 1, ... "
                         "(default 5)")
    ap.add_argument("--detail", default=None,
                    help="also write the full result as JSON to this file")
    args = ap.parse_args(argv)

    _import_navbench()
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    spec = benchmark_spec()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.ticks, args.setups)
    print_table(result)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1, sort_keys=True)
    print(json.dumps(final_line(result, spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
