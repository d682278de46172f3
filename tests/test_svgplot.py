import re

import numpy as np

from navbench import harness
from navbench.gridmap import OccupancyGrid
from navbench.svgplot import emit_trajectory_svg
from navbench.world import DynamicAgent, Scenario


def test_a_loop_agent_is_drawn_along_its_closed_route(tmp_path):
    """The dashed route is the polyline the agent drives: a 3-waypoint loop
    returns to its first waypoint, so it is drawn with 4 points."""
    grid = OccupancyGrid(40, 30, 0.1, (0.0, 0.0), np.zeros((30, 40), dtype=np.uint8))
    agent = DynamicAgent(0.25, 0.6, ((2.5, 0.8), (3.5, 0.8), (3.0, 2.2)), "loop")
    scn = Scenario(name="loop", map=grid, agents=(agent,),
                   start_goal_pairs=(((0.8, 1.5, 0.0), (1.8, 1.5, 0.0)),))
    cfg = harness.TrialConfig(compute_cost_mode="iterations", timeout=0.2)
    path = tmp_path / "trial.svg"
    emit_trajectory_svg(harness.run_trial(scn, "dwa", 0, cfg), path)
    dashed = re.findall(r'<polyline points="([^"]*)"[^>]*stroke-dasharray', path.read_text())
    assert len(dashed) == 1
    points = dashed[0].split()
    assert len(points) == 4 and points[0] == points[-1]
