import numpy as np
import pytest

from navbench import harness
from navbench.gridmap import CellState, OccupancyGrid
from navbench.suitegen import build_default_suite
from navbench.world import load_scenario


def random_grid(rng, width, height, resolution=0.1, p_occ=0.1, origin=(0.0, 0.0)):
    cells = np.where(rng.random((height, width)) < p_occ,
                     np.uint8(CellState.OCCUPIED), np.uint8(CellState.FREE))
    return OccupancyGrid(width, height, resolution, origin, cells)


def brute_force_distance(grid, unknown_as_occupied=False):
    """O(n^2) oracle: per-cell min Euclidean distance to occupied centers."""
    occ = grid.cells == CellState.OCCUPIED
    if unknown_as_occupied:
        occ |= grid.cells == CellState.UNKNOWN
    oy, ox = np.nonzero(occ)
    out = np.full((grid.height, grid.width), np.inf)
    if len(ox) == 0:
        return out
    for iy in range(grid.height):
        for ix in range(grid.width):
            d2 = (ox - ix) ** 2 + (oy - iy) ** 2
            out[iy, ix] = np.sqrt(d2.min()) * grid.resolution
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def scenes(tmp_path_factory):
    """The seed-0 `--pairs 1` suite as {name: Scenario}, in manifest order.
    Its grids are read-only, so the tests share one build."""
    manifest = build_default_suite(str(tmp_path_factory.mktemp("suite0")), seed=0,
                                   pairs_per_scene=1)
    return {scn.name: scn for scn in
            (load_scenario(path) for _, path in harness.parse_suite(manifest))}
