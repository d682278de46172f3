"""navbench: a self-contained 2D benchmark for mobile-robot local planners.

Simulates a differential-drive robot with a planar lidar in static,
partially-unknown, and dynamic grid worlds, runs the two built-in local
planners (sampling-based DWA and optimization-based TEB), logs every control
cycle, and reduces the logs to safety / efficiency / smoothness metrics.
"""

from .errors import (BenchError, NoPathError, OutOfBoundsError, ParseError,
                     PlanInputError, ValidationError)
from .global_planner import GlobalPath, extract_local_reference, plan_global
from .gridmap import (CellState, DistanceField, LaserScan, OccupancyGrid,
                      ScanSpec, UnknownAs, crop_local, distance_at,
                      distance_transform, integrate_scan, load_grid,
                      mask_unknown_region, raycast, save_grid)
from .harness import TrialConfig, TrialResult, run_suite, run_trial
from .local_planners import (DwaConfig, LocalPlanRequest, PlannerOutput,
                             PlannerStatus, TebConfig, dwa_plan, teb_plan)
from .metrics import (LogRecord, MetricsConfig, MetricsReport, NavLog, Outcome,
                      compute_report, efficiency_compute, efficiency_travel_time,
                      path_length, safety_exposure, safety_min_distance,
                      smoothness_path, smoothness_velocity)
from .robot import (KinematicLimits, RobotState, VelocityCommand,
                    clamp_command, step, wrap_angle)
from .suitegen import build_default_suite
from .world import DynamicAgent, Scenario, load_scenario, save_scenario, \
    stamp_agents
from .worldgen import WorldParams, generate_world

__version__ = "0.1.0"
