"""Shared helpers: the box layouts and route the bundled world files were
generated from, the grid file writer, random worlds and free poses for
property tests, and comparisons of datasets and sample positions."""

import math
from pathlib import Path

import numpy as np

from neuromap.pose import Pose2D, ang_diff
from neuromap.world import FREE_CHAR, OCCUPIED_CHAR, EnvironmentSpec, OccupancyGrid
from neuromap.worlds import APARTMENT_SENSOR, CABIN_SENSOR

# --- the bundled worlds' sources ---------------------------------------------------
# The shipped grid and waypoint files are pinned to these byte for byte.

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

APARTMENT_BOXES = (
    (3.0, 3.0, 5.0, 5.0),     # central island
    (5.0, 3.4, 5.6, 4.2),     # notch breaking the island's symmetry
    (0.0, 5.3, 0.5, 5.6),     # wall stubs, west and east
    (7.5, 5.8, 8.0, 6.1),
)

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


def with_metric_box(grid, x0: float, y0: float, x1: float, y1: float) -> OccupancyGrid:
    """A copy of ``grid`` with every cell overlapping the box interior marked
    occupied."""
    if not (x0 < x1 and y0 < y1):
        raise ValueError(f"degenerate box ({x0}, {y0}) .. ({x1}, {y1})")
    res = grid.resolution
    ix0 = max(0, math.floor((x0 - grid.origin_x) / res))
    ix1 = min(grid.width, math.ceil((x1 - grid.origin_x) / res))
    iy0 = max(0, math.floor((y0 - grid.origin_y) / res))
    iy1 = min(grid.height, math.ceil((y1 - grid.origin_y) / res))
    cells = grid.cells.copy()
    cells[iy0:iy1, ix0:ix1] = True
    return OccupancyGrid(grid.width, grid.height, res, grid.origin_x, grid.origin_y, cells)


def _build(width_m, height_m, boxes):
    nx = int(round(width_m / CELL))
    ny = int(round(height_m / CELL))
    grid = OccupancyGrid(nx, ny, CELL, 0.0, 0.0, np.zeros((ny, nx), dtype=bool))
    for box in boxes:
        grid = with_metric_box(grid, *box)
    return grid


def cabin() -> EnvironmentSpec:
    return EnvironmentSpec("cabin", _build(7.0, 15.0, CABIN_BOXES), CABIN_SENSOR)


def apartment() -> EnvironmentSpec:
    return EnvironmentSpec("apartment", _build(8.0, 8.0, APARTMENT_BOXES), APARTMENT_SENSOR)


# --- grid files ---------------------------------------------------------------------


def grid_text(grid: OccupancyGrid) -> str:
    """The grid file that ``load_environment`` reads back as ``grid``."""
    header = f"{grid.width} {grid.height} {grid.resolution!r} {grid.origin_x!r} {grid.origin_y!r}"
    rows = [
        "".join(OCCUPIED_CHAR if c else FREE_CHAR for c in grid.cells[iy])
        for iy in range(grid.height - 1, -1, -1)  # the top row (maximum y) first
    ]
    return "\n".join([header] + rows) + "\n"


def save_environment(env: EnvironmentSpec, path) -> None:
    Path(path).write_text(grid_text(env.grid), encoding="ascii")


# --- property-test worlds and comparisons ------------------------------------------


def random_world(rng, min_size=4.0, max_size=9.0, max_boxes=6):
    """A small random world: empty rectangle plus a few box obstacles."""
    res = float(rng.choice([0.1, 0.2, 0.25]))
    width = int(rng.integers(round(min_size / res), round(max_size / res) + 1))
    height = int(rng.integers(round(min_size / res), round(max_size / res) + 1))
    ox = float(rng.uniform(-3.0, 3.0))
    oy = float(rng.uniform(-3.0, 3.0))
    grid = OccupancyGrid(width, height, res, ox, oy, np.zeros((height, width), dtype=bool))
    b = grid.bounds()
    for _ in range(int(rng.integers(0, max_boxes + 1))):
        bw = float(rng.uniform(0.2, 1.5))
        bh = float(rng.uniform(0.2, 1.5))
        x0 = float(rng.uniform(b.x_min, b.x_max - bw))
        y0 = float(rng.uniform(b.y_min, b.y_max - bh))
        grid = with_metric_box(grid, x0, y0, x0 + bw, y0 + bh)
    return grid


def random_free_pose(rng, grid, radius=0.0, attempts=1000):
    b = grid.bounds()
    for _ in range(attempts):
        x = float(rng.uniform(b.x_min, b.x_max))
        y = float(rng.uniform(b.y_min, b.y_max))
        if grid.footprint_free(x, y, radius):
            return Pose2D(x, y, float(rng.uniform(-180.0, 180.0)))
    raise RuntimeError("could not place a free pose; world too cluttered")


def marching_ray(grid, x, y, bearing_deg, max_range, step=1e-4):
    """Brute-force fine-step ray marching; the reference for grid traversal.

    Returns the distance of the first sample point that is not free,
    or max_range if every sample up to max_range is free.
    """
    n = int(np.ceil(max_range / step))
    ts = np.arange(1, n + 1, dtype=np.float64) * step
    rad = np.radians(bearing_deg)
    px = x + ts * np.cos(rad)
    py = y + ts * np.sin(rad)
    ix = np.floor((px - grid.origin_x) / grid.resolution).astype(np.int64)
    iy = np.floor((py - grid.origin_y) / grid.resolution).astype(np.int64)
    outside = (ix < 0) | (ix >= grid.width) | (iy < 0) | (iy >= grid.height)
    occ = np.zeros(n, dtype=bool)
    inside = ~outside
    occ[inside] = grid.cells[iy[inside], ix[inside]]
    blocked = outside | occ
    if not blocked.any():
        return float(max_range)
    return float(min(ts[int(np.argmax(blocked))], max_range))


def datasets_close(a, b, tol: float = 1e-7) -> bool:
    """Equality of two datasets up to serialisation rounding.

    Ranges and positions compare absolutely at ``tol``; yaw compares on its
    normalised scale (wrap-aware difference / 180), since nine significant
    decimal digits of an angle near 180 carry ~5e-7 degrees of rounding.
    """
    if (a.env_name, a.seed, len(a)) != (b.env_name, b.seed, len(b)):
        return False
    if a.sensor != b.sensor:
        return False
    if len(a) == 0:
        return True
    if not np.allclose(a.ranges_matrix(), b.ranges_matrix(), atol=tol, rtol=0.0):
        return False
    pa, pb = a.poses_matrix(), b.poses_matrix()
    if not np.allclose(pa[:, :2], pb[:, :2], atol=tol, rtol=0.0):
        return False
    dtheta = np.abs([ang_diff(x, y) for x, y in zip(pa[:, 2], pb[:, 2])])
    return bool(np.all(dtheta / 180.0 <= tol))


def near_obstacle_fraction(env, positions, clearance_m: float = 0.3) -> float:
    """Fraction of sample positions (an (n, >= 2) array of x, y first)
    closer than ``clearance_m`` to any obstacle or the boundary; lets
    capture strategies be compared."""
    if len(positions) == 0:
        raise ValueError("no poses")
    xy = positions[:, :2].tolist()
    near = sum(1 for x, y in xy if not env.grid.footprint_free(x, y, clearance_m))
    return near / len(xy)
