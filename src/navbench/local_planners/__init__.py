"""The two benchmarked local planners behind one interface."""

from __future__ import annotations

import typing

from ..errors import ParseError, ValidationError, finite, keyed_lines
from .common import (LocalPlanRequest, PlannerOutput, PlannerStatus,
                     forward_simulate, recovery_output, score_components,
                     terminal_output, trajectory_min_clearance, turn_toward)
from .dwa import DwaConfig, dwa_plan, dynamic_window
from .teb import BandProblem, TebConfig, optimize_band, teb_plan

CONFIGS = {"dwa": DwaConfig, "teb": TebConfig}
PLANNERS = tuple(CONFIGS)


def plan(name: str, req: LocalPlanRequest, cfg=None) -> PlannerOutput:
    """Run planner `name` with `cfg`, or with its default config.  The plan
    function is the module global `<name>_plan`, looked up at call time."""
    if name not in CONFIGS:
        raise ValueError(f"unknown planner {name!r}; expected one of {PLANNERS}")
    return globals()[f"{name}_plan"](req, cfg or CONFIGS[name]())


def load_planner_config(path, name: str):
    """Parse a `.cfg` file of `key value` lines into a planner config; each
    value is parsed as its field's declared type and must be finite.  Unknown
    and repeated keys, and values that break the config's invariants, raise
    `ParseError`."""
    cls = CONFIGS.get(name)
    if cls is None:
        raise ValueError(f"unknown planner {name!r}")
    types = typing.get_type_hints(cls)
    values = {}
    for ln, key, raw in keyed_lines(path, once=types):
        if len(raw.split()) != 1:
            raise ParseError("expected 'key value'", path=path, line=ln)
        if key not in types:
            raise ParseError(f"unknown {name} config key {key!r}", path=path, line=ln)
        try:
            values[key] = finite(raw, types[key])
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=ln)
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ParseError(str(exc), path=path)
