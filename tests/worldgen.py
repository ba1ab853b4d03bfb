"""Shared helpers: random worlds and free poses for property tests, and
comparisons of datasets and sample positions."""

import numpy as np

from neuromap.pose import Pose2D, ang_diff
from neuromap.world import OccupancyGrid


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
        grid = grid.with_metric_box(x0, y0, x0 + bw, y0 + bh)
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
