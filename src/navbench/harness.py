"""Closed-loop trial runner and suite orchestration.

Each control tick: sense (one raycast, whose beams are marched only when
fusing the scan can change the sensed map: while it has Unknown cells or lacks
an obstacle of the truth), stamp the agents at the tick's start time, refresh
the sensed field (rebuilt only when the tick map changed; it is also the
ground-truth field while the sensed map equals the truth), refresh the global
reference (a replan is handed the last path, whose search it reuses while the
tick map and its field are unchanged, and which bounds its search otherwise),
plan locally toward one local goal (the reference end with its last segment's
heading, or the trial goal at the path end) on a crop of the tick map, clamp
the command, integrate the robot's physics in sub-steps, and log one record
(one clearance sample while the two fields are one).  Then the tick is judged
once, the first match deciding: sensed clearance below the radius is
COLLISION, an infeasible streak past the recovery budget PLANNER_FAILURE, a
robot off the truth map COLLISION, the goal pose within tolerance SUCCESS, and
the timeout TIMEOUT.

The local field is the window of the sensed field over the crop, unless the
crop holds Unknown cells; then it is the crop's own transform with Unknown as
Occupied.  A window differs from the crop's transform only where the nearest
obstacle lies outside the crop, and there both exceed the distance to the
crop's edge: over 1.6 m wherever DWA's rollouts (under 0.9 m from the robot)
and their stencils read, above the default d_safe cap (0.34 m) and the radius
checks of both planners, so the plans are the same.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from numpy import array_equal

from .errors import NoPathError, ParseError, PlanInputError, ValidationError, keyed_lines
# Call-site contract: run_trial calls these names as module globals (raycast
# first in each tick, LogRecord last), so wrapping a global here sees each call.
from .global_planner import extract_local_reference, plan_global
from .gridmap import (UNKNOWN, UnknownAs, crop_local, distance_at_clamped,
                      distance_transform, integrate_scan, raycast)
from .local_planners import CONFIGS, LocalPlanRequest, PlannerStatus, plan, turn_toward
from .metrics import (LogRecord, MetricsConfig, MetricsReport, NavLog, Outcome,
                      compute_report, write_log_csv)
from .robot import KinematicLimits, RobotState, VelocityCommand, clamp_command, step, wrap_angle
from .world import Scenario, load_scenario, stamp_agents

SUITE_GROUPS = ("static", "partially_unknown", "dynamic")


@dataclass(frozen=True)
class TrialConfig:
    control_period: float = 0.2
    physics_dt: float = 0.05
    goal_pos_tol: float = 0.1
    goal_yaw_tol: float = 0.25
    timeout: float = 300.0
    compute_cost_mode: str = "wallclock"  # or "iterations"
    recovery_budget: int = 25             # consecutive infeasible ticks allowed
    local_map_side: float = 5.5
    d_safe: float = 0.34

    def __post_init__(self):
        for name in ("control_period", "physics_dt", "goal_pos_tol", "goal_yaw_tol",
                     "timeout", "local_map_side", "d_safe"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails both
                raise ValidationError(f"{name} must be positive and finite")
        k = round(self.control_period / self.physics_dt)
        if k < 1 or abs(k * self.physics_dt - self.control_period) > 1e-9:
            raise ValidationError("physics_dt must divide control_period")
        if self.compute_cost_mode not in ("wallclock", "iterations"):
            raise ValidationError("compute_cost_mode must be wallclock or iterations")


@dataclass
class TrialResult:
    scenario: Scenario
    planner: str
    pair_index: int
    log: NavLog
    report: MetricsReport
    metadata: dict

    @property
    def outcome(self) -> Outcome:
        return self.log.outcome


def _config_hash(*cfgs) -> str:
    text = "|".join(repr(dataclasses.asdict(c)) for c in cfgs)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def _goal_reached(robot: RobotState, goal, cfg: TrialConfig) -> bool:
    if math.hypot(goal[0] - robot.x, goal[1] - robot.y) > cfg.goal_pos_tol:
        return False
    return abs(wrap_angle(goal[2] - robot.theta)) <= cfg.goal_yaw_tol


def run_trial(scenario: Scenario, planner_name: str, pair_index: int,
              cfg: TrialConfig = TrialConfig(), planner_cfg=None) -> TrialResult:
    if not 0 <= pair_index < len(scenario.start_goal_pairs):
        raise ValidationError(f"pair index {pair_index} invalid for {scenario.name!r}")
    planner_cfg = planner_cfg or CONFIGS[planner_name]()

    wall_start = time.perf_counter()
    limits = KinematicLimits()
    start, goal = scenario.start_goal_pairs[pair_index]
    robot = RobotState(*start)
    agents = scenario.agents
    truth = scenario.map
    sensed = scenario.prior_map
    static_truth_field = distance_transform(truth, UnknownAs.FREE)
    replan_every_tick = scenario.has_unknown_prior or bool(agents)

    records = []
    t = 0.0
    infeasible_streak = 0
    global_path = None
    field_map = None  # the tick map sensed_field was built from
    outcome = None
    substeps = round(cfg.control_period / cfg.physics_dt)

    while outcome is None:
        # sense: map-building scans are cast against the static truth, in the
        # prior's frame; agents enter the planning grids through stamping only.
        scan = raycast(truth, robot.pose(), scenario.scan_spec)
        sensed = integrate_scan(sensed, scan)
        tick_map = stamp_agents(sensed, agents, t)
        if field_map is None or not array_equal(tick_map.cells, field_map.cells):
            sensed_field = distance_transform(tick_map, UnknownAs.FREE)
            field_map = tick_map
        if array_equal(sensed.cells, truth.cells):
            truth_field = sensed_field  # stamped truth == tick_map, its source
        elif agents:
            truth_field = distance_transform(stamp_agents(truth, agents, t), UnknownAs.FREE)
        else:
            truth_field = static_truth_field

        if global_path is None or replan_every_tick:
            try:
                global_path = plan_global(tick_map, (robot.x, robot.y),
                                          (goal[0], goal[1]), limits.radius,
                                          field=sensed_field, previous=global_path)
            except (NoPathError, PlanInputError):
                pass  # keep the previous reference, if any

        if global_path is None:
            bearing = math.atan2(goal[1] - robot.y, goal[0] - robot.x)
            desired = VelocityCommand(0.0, turn_toward(bearing, robot, limits))
            c_val = 0.0
            infeasible = True
        else:
            local_map = crop_local(tick_map, (robot.x, robot.y), cfg.local_map_side)
            if (local_map.cells == UNKNOWN).any():
                local_field = distance_transform(local_map, UnknownAs.OCCUPIED)
            else:
                local_field = crop_local(sensed_field, (robot.x, robot.y), cfg.local_map_side)
            ref = extract_local_reference(global_path, (robot.x, robot.y),
                                          cfg.local_map_side / 2.0)
            ref_end = ref.points[-1]
            path_end = global_path.points[-1]
            if math.hypot(ref_end[0] - path_end[0], ref_end[1] - path_end[1]) <= 1e-9:
                req_goal = tuple(goal)
            else:  # a one-point reference starts at the path end
                a = ref.points[-2]
                req_goal = (*ref_end, math.atan2(ref_end[1] - a[1], ref_end[0] - a[0]))
            req = LocalPlanRequest(local_map, local_field, robot, ref, req_goal,
                                   limits, cfg.control_period,
                                   d_safe=cfg.d_safe, goal_tol=cfg.goal_pos_tol)
            out = plan(planner_name, req, planner_cfg)
            desired = out.cmd
            c_val = out.compute_cost(cfg.compute_cost_mode)
            infeasible = out.status is PlannerStatus.INFEASIBLE
        cmd = clamp_command(desired, VelocityCommand(robot.v, robot.omega),
                            limits, cfg.control_period)

        for _ in range(substeps):
            robot = step(robot, cmd, cfg.physics_dt)
        t += cfg.control_period

        d = distance_at_clamped(sensed_field, robot.x, robot.y)
        d_true = (d if truth_field is sensed_field
                  else distance_at_clamped(truth_field, robot.x, robot.y))
        records.append(LogRecord(t, robot.x, robot.y, robot.theta,
                                 robot.v, robot.omega, d, c_val, d_true=d_true))

        infeasible_streak = infeasible_streak + 1 if infeasible else 0
        if d < limits.radius:
            outcome = Outcome.COLLISION
        elif infeasible and infeasible_streak > cfg.recovery_budget:
            outcome = Outcome.PLANNER_FAILURE
        elif not truth.contains(robot.x, robot.y):
            outcome = Outcome.COLLISION
        elif _goal_reached(robot, goal, cfg):
            outcome = Outcome.SUCCESS
        elif t >= cfg.timeout - 1e-9:
            outcome = Outcome.TIMEOUT

    log = NavLog(tuple(records), outcome)
    report = compute_report(log, MetricsConfig(d_safe=cfg.d_safe))
    wall_ms = (time.perf_counter() - wall_start) * 1e3
    metadata = {
        "scenario": scenario.name,
        "planner": planner_name,
        "pair": pair_index,
        "cost_mode": cfg.compute_cost_mode,
        "control_period": cfg.control_period,
        "physics_dt": cfg.physics_dt,
        "d_safe": cfg.d_safe,
        "config_hash": _config_hash(cfg, planner_cfg),
        "outcome": outcome.value,
        "wall_ms": f"{wall_ms:.3f}",
    }
    return TrialResult(scenario, planner_name, pair_index, log, report, metadata)


# ---------------------------------------------------------------------------
# suites


def parse_suite(path) -> list[tuple[str, str]]:
    """Manifest lines: `group <static|partially_unknown|dynamic>` followed by
    `scene <relative path>` entries.  Returns (group, scene_path) pairs."""
    entries = []
    group = None
    directory = os.path.dirname(os.path.abspath(path))
    for ln, key, rest in keyed_lines(path):
        if key == "group":
            if rest not in SUITE_GROUPS:
                raise ParseError(f"unknown group {rest!r}", path=path, line=ln)
            group = rest
        elif key == "scene":
            if group is None:
                raise ParseError("scene before any group line", path=path, line=ln)
            entries.append((group, os.path.join(directory, rest)))
        else:
            raise ParseError(f"unknown suite key {key!r}", path=path, line=ln)
    if not entries:
        raise ParseError("suite manifest lists no scenes", path=path)
    return entries


def trial_filename(group: str, scenario: str, pair: int, planner: str) -> str:
    return f"{group}__{scenario}__pair{pair}__{planner}.csv"


def _run_one(args):
    """run_trial on one work item; a trial that raises returns its exception."""
    scenario, planner, pair, cfg, planner_cfg = args
    try:
        return run_trial(scenario, planner, pair, cfg, planner_cfg)
    except Exception as exc:
        return exc


@dataclass
class SuiteResult:
    results: list
    crashed: list          # (trial description, exception text)
    out_dir: str
    table_paths: list


def run_suite(manifest_path, planners, cfg: TrialConfig, out_dir,
              jobs: int = 1, svg: bool = False,
              planner_cfgs: dict | None = None) -> SuiteResult:
    """Run every pair of every scene with every planner; `planner_cfgs` maps
    a planner name to its config (default config where absent)."""
    from .report import write_group_tables
    from .svgplot import emit_trajectory_svg

    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    entries = parse_suite(manifest_path)
    os.makedirs(out_dir, exist_ok=True)
    scenarios = [(group, load_scenario(path)) for group, path in entries]

    jobs_spec = []
    for group, scn in scenarios:
        for pair in range(len(scn.start_goal_pairs)):
            for planner in planners:
                jobs_spec.append((group, scn, planner, pair))

    results = []
    crashed = []
    planner_cfgs = planner_cfgs or {}
    work = [(scn, planner, pair, cfg, planner_cfgs.get(planner))
            for _, scn, planner, pair in jobs_spec]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_one, w) for w in work]
            # a worker that dies fails its future: that trial crashed, the suite goes on
            outputs = [fut.exception() or fut.result() for fut in futures]
    else:
        outputs = [_run_one(w) for w in work]

    for (group, scn, planner, pair), out in zip(jobs_spec, outputs):
        if isinstance(out, Exception):
            crashed.append((f"{group}/{scn.name}/pair{pair}/{planner}", repr(out)))
            continue
        out.metadata["group"] = group
        results.append(out)
        csv_path = os.path.join(out_dir, trial_filename(group, scn.name, pair, planner))
        write_log_csv(out.log, csv_path, out.metadata)
        if svg:
            emit_trajectory_svg(out, csv_path[:-4] + ".svg")

    table_paths = write_group_tables(out_dir)
    return SuiteResult(results, crashed, out_dir, table_paths)
