"""Bundled benchmark environments.

Two hand-designed floor plans ship with the package: a 7 m x 15 m
three-room cabin used for estimator benchmarks, and an 8 m x 8 m
single-room apartment with a central island, used for navigation runs.
Both are built here from box lists so the shipped grid files can be
regenerated and checked byte-for-byte.

The box layouts are frozen: estimator accuracy thresholds in the test
suite were calibrated against exactly these floor plans, so editing a
box silently invalidates those numbers. Add new environments instead of
changing these.
"""

from importlib import resources

import numpy as np

from .pose import Pose2D
from .world import EnvironmentSpec, OccupancyGrid, SensorConfig

CELL = 0.05

# Interior walls first, then furniture. The cabin is deliberately
# asymmetric so range signatures differ between the three rooms.
CABIN_BOXES = (
    (0.0, 4.95, 4.5, 5.05),   # south/middle wall, doorway on the east side
    (2.5, 9.95, 7.0, 10.05),  # middle/north wall, doorway on the west side
    (2.95, 0.0, 3.05, 2.0),   # partial partition in the south room
    (5.2, 2.0, 6.4, 3.2),
    (1.0, 1.0, 1.8, 1.6),
    (0.8, 7.2, 1.6, 8.8),
    (4.0, 12.0, 5.5, 12.8),
)
CABIN_SENSOR = SensorConfig(fov=360.0, ray_count=96, max_range=16.0)

APARTMENT_BOXES = (
    (3.0, 3.0, 5.0, 5.0),     # central island
    (5.0, 3.4, 5.6, 4.2),     # notch breaking the island's symmetry
    (0.0, 5.3, 0.5, 5.6),     # wall stubs, west and east
    (7.5, 5.8, 8.0, 6.1),
)
APARTMENT_SENSOR = SensorConfig(fov=360.0, ray_count=96, max_range=12.0)

# Counter-clockwise tour around the island; the last waypoint closes the
# loop at the start pose.
APARTMENT_LOOP = (
    (4.0, 1.3),
    (6.5, 1.5),
    (6.7, 4.0),
    (6.5, 6.5),
    (4.0, 6.7),
    (1.5, 6.5),
    (1.3, 4.0),
    (1.5, 1.5),
)
APARTMENT_START = Pose2D(1.5, 1.5, 0.0)


def _build(width_m, height_m, boxes):
    nx = int(round(width_m / CELL))
    ny = int(round(height_m / CELL))
    grid = OccupancyGrid(nx, ny, CELL, 0.0, 0.0, np.zeros((ny, nx), dtype=bool))
    for box in boxes:
        grid = grid.with_metric_box(*box)
    return grid


def cabin() -> EnvironmentSpec:
    return EnvironmentSpec("cabin", _build(7.0, 15.0, CABIN_BOXES), CABIN_SENSOR)


def apartment() -> EnvironmentSpec:
    return EnvironmentSpec("apartment", _build(8.0, 8.0, APARTMENT_BOXES), APARTMENT_SENSOR)


BUILDERS = {"cabin": cabin, "apartment": apartment}


def bundled_environment(name: str) -> EnvironmentSpec:
    """Look up a bundled environment by name ('cabin' or 'apartment')."""
    try:
        return BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown bundled environment {name!r}; have {sorted(BUILDERS)}"
        ) from None


def data_path(filename: str):
    """Path to a shipped data file (grid or waypoint list)."""
    return resources.files("neuromap").joinpath("data", filename)
