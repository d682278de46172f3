"""Command-line entry point: run suites, run single trials, validate scenes,
and (re)build aggregate tables from trial CSVs."""

from __future__ import annotations

import argparse
import os
import sys

from .errors import BenchError
from .harness import TrialConfig, run_suite, run_trial, trial_filename
from .local_planners import PLANNERS, load_planner_config
from .metrics import write_log_csv
from .report import write_group_tables
from .suitegen import build_default_suite
from .svgplot import emit_trajectory_svg
from .world import load_scenario


def _add_trial_opts(p):
    p.add_argument("--cost-mode", choices=("wallclock", "iterations"),
                   default=TrialConfig.compute_cost_mode)
    p.add_argument("--control-period", type=float, default=TrialConfig.control_period)
    p.add_argument("--timeout", type=float, default=TrialConfig.timeout)
    p.add_argument("--svg", action="store_true", help="emit one SVG per trial")
    p.add_argument("--dwa-config", help=".cfg file overriding DWA defaults")
    p.add_argument("--teb-config", help=".cfg file overriding TEB defaults")


def _trial_cfg(args) -> TrialConfig:
    return TrialConfig(control_period=args.control_period,
                       compute_cost_mode=args.cost_mode, timeout=args.timeout)


def _planner_cfgs(args) -> dict:
    paths = {"dwa": args.dwa_config, "teb": args.teb_config}
    return {name: load_planner_config(path, name) for name, path in paths.items() if path}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bench",
                                 description="2D local-planner benchmark toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every trial in a suite manifest")
    p_run.add_argument("--suite", required=True)
    p_run.add_argument("--planner", default="dwa,teb",
                       help="comma-separated planner list")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--jobs", type=int, default=1)
    _add_trial_opts(p_run)

    p_trial = sub.add_parser("trial", help="run one scenario/pair/planner trial")
    p_trial.add_argument("--scene", required=True)
    p_trial.add_argument("--pair", type=int, default=0)
    p_trial.add_argument("--planner", choices=PLANNERS, required=True)
    p_trial.add_argument("--out", required=True)
    _add_trial_opts(p_trial)

    p_val = sub.add_parser("validate", help="check a scene file's invariants")
    p_val.add_argument("--scene", required=True)

    p_rep = sub.add_parser("report", help="re-aggregate tables from trial CSVs")
    p_rep.add_argument("--in", dest="in_dir", required=True)

    p_gen = sub.add_parser("make-suite", help="generate the default benchmark suite")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--pairs", type=int, default=3)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            planners = [p.strip() for p in args.planner.split(",") if p.strip()]
            for p in planners:
                if p not in PLANNERS:
                    raise BenchError(f"unknown planner {p!r}")
            if not planners or len(set(planners)) != len(planners):
                raise BenchError(f"--planner {args.planner!r} must list planners, each once")
            suite = run_suite(args.suite, planners, _trial_cfg(args), args.out,
                              jobs=args.jobs, svg=args.svg,
                              planner_cfgs=_planner_cfgs(args))
            for result in suite.results:
                print(f"{result.metadata['group']:18s} {result.scenario.name:16s} "
                      f"pair {result.pair_index} {result.planner:4s} "
                      f"-> {result.outcome.value}")
            for desc, err in suite.crashed:
                print(f"CRASH {desc}: {err}", file=sys.stderr)
            print(f"wrote {len(suite.results)} trial logs and "
                  f"{len(suite.table_paths)} tables to {suite.out_dir}")
            return 1 if suite.crashed else 0

        if args.command == "trial":
            scn = load_scenario(args.scene)
            result = run_trial(scn, args.planner, args.pair, _trial_cfg(args),
                               _planner_cfgs(args).get(args.planner))
            os.makedirs(args.out, exist_ok=True)
            csv_path = os.path.join(args.out, trial_filename(
                "trial", scn.name, args.pair, args.planner))
            write_log_csv(result.log, csv_path, result.metadata)
            if args.svg:
                emit_trajectory_svg(result, csv_path[:-4] + ".svg")
            rep = result.report
            print(f"outcome: {result.outcome.value}")
            for label, val in zip(rep.columns(args.cost_mode), rep.as_tuple()):
                print(f"  {label:14s} {val:.6g}")
            print(f"log: {csv_path}")
            return 0

        if args.command == "validate":
            load_scenario(args.scene)  # load runs the full validation
            print(f"{args.scene}: OK")
            return 0

        if args.command == "report":
            paths = write_group_tables(args.in_dir)
            for p in paths:
                print(p)
            return 0

        if args.command == "make-suite":
            manifest = build_default_suite(args.out, seed=args.seed,
                                           pairs_per_scene=args.pairs)
            print(manifest)
            return 0
    except (BenchError, OSError) as exc:  # OSError: an input file is missing or unreadable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
