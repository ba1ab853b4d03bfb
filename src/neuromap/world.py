"""Occupancy-grid environments: collision queries and raycast observations.

A world is a rectangular grid of square cells, each free or occupied, with
metric bounds fixed by an origin and a resolution. The outer boundary counts
as an obstacle: these are enclosed interiors, so rays stop at the walls and
footprints may not poke outside.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .inputs import FormatError, InputError, check_finite, read_lines
from .pose import EnvBounds, Pose2D

FREE_CHAR = "."
OCCUPIED_CHAR = "#"

# Depth of the ring of occupied cells around the raycaster's copy of a grid,
# and the number of traversal steps between compactions of its ray state.
RAY_RING = 8


class InvalidPoseError(ValueError):
    """An operation needing a collision-free pose was given an occupied one."""


@dataclass(frozen=True)
class SensorConfig:
    """Forward-facing range sensor: a fan of rays spread across ``fov``.

    Ray i is cast at bearing theta - fov/2 + i*fov/(ray_count-1); a full
    360-degree fan divides by ray_count instead and drops the duplicate
    endpoint. Reported ranges are hit distances divided by ``max_range``,
    so 1.0 means nothing was hit within range.
    """

    fov: float = 120.0
    ray_count: int = 96
    max_range: float = 20.0

    def __post_init__(self) -> None:
        check_finite(self)
        if not 0.0 < self.fov <= 360.0:
            raise InputError(f"fov must be in (0, 360], got {self.fov!r}")
        min_rays = 1 if self.fov == 360.0 else 2
        if self.ray_count < min_rays:
            raise InputError(f"ray_count must be >= {min_rays} for fov {self.fov}")
        if not self.max_range > 0.0:
            raise InputError(f"max_range must be positive, got {self.max_range!r}")

    def bearing_offsets(self) -> np.ndarray:
        """Ray bearings relative to the heading, in degrees, ray 0 first."""
        if self.fov == 360.0:
            return -180.0 + np.arange(self.ray_count) * (360.0 / self.ray_count)
        return np.linspace(-0.5 * self.fov, 0.5 * self.fov, self.ray_count)


DEFAULT_SENSOR = SensorConfig()


@dataclass(frozen=True, eq=False)
class Observation:
    """One sensor sweep: ``ranges[i]`` is ray i's hit distance / max_range."""

    ranges: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.ranges, dtype=np.float64)
        if r.ndim != 1 or r.size == 0:
            raise ValueError(f"ranges must be a non-empty vector, got shape {r.shape}")
        if not ((r >= 0.0) & (r <= 1.0)).all():  # also false for nan and +-inf
            raise ValueError("ranges must all lie in [0, 1]")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "ranges", r)

    def __len__(self) -> int:
        return self.ranges.size


class OccupancyGrid:
    """Row-major boolean occupancy over a metric rectangle.

    ``cells[iy, ix]`` is True when the cell is an obstacle; row 0 is the
    BOTTOM row (minimum y). Instances are immutable after construction.
    """

    __slots__ = ("width", "height", "resolution", "origin_x", "origin_y", "cells", "_padded")

    def __init__(
        self,
        width: int,
        height: int,
        resolution: float,
        origin_x: float,
        origin_y: float,
        cells: np.ndarray,
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"grid must be at least 1x1, got {width}x{height}")
        if not (math.isfinite(resolution) and resolution > 0.0):
            raise ValueError(f"resolution must be positive, got {resolution!r}")
        x_max, y_max = origin_x + width * resolution, origin_y + height * resolution
        # false for a non-finite origin too, and for bounds that overflow or round away
        if not (origin_x < x_max < math.inf and origin_y < y_max < math.inf):
            raise ValueError(
                f"bounds x [{origin_x}, {x_max}], y [{origin_y}, {y_max}] must be finite and non-empty"
            )
        arr = np.asarray(cells, dtype=bool)
        if arr.shape != (height, width):
            raise ValueError(f"cells shape {arr.shape} does not match {height}x{width}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "resolution", float(resolution))
        object.__setattr__(self, "origin_x", float(origin_x))
        object.__setattr__(self, "origin_y", float(origin_y))
        object.__setattr__(self, "cells", arr)
        padded = np.pad(arr, RAY_RING, constant_values=True)
        object.__setattr__(self, "_padded", padded.ravel())

    def __setattr__(self, name, value):
        raise AttributeError("OccupancyGrid is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, OccupancyGrid):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.resolution == other.resolution
            and self.origin_x == other.origin_x
            and self.origin_y == other.origin_y
            and bool(np.array_equal(self.cells, other.cells))
        )

    def __repr__(self) -> str:
        return (
            f"OccupancyGrid({self.width}x{self.height} @ {self.resolution} m/cell, "
            f"origin ({self.origin_x}, {self.origin_y}), "
            f"{int(self.cells.sum())} occupied)"
        )

    def bounds(self) -> EnvBounds:
        return EnvBounds(
            self.origin_x,
            self.origin_x + self.width * self.resolution,
            self.origin_y,
            self.origin_y + self.height * self.resolution,
        )

    def cell_index(self, x: float, y: float) -> tuple[int, int]:
        """Cell containing a point: floor convention, so a point exactly on
        a shared edge belongs to the higher-index cell. May be out of range.
        """
        ix = math.floor((x - self.origin_x) / self.resolution)
        iy = math.floor((y - self.origin_y) / self.resolution)
        return ix, iy

    def is_free(self, x: float, y: float) -> bool:
        """True when the point falls in a free cell inside the grid."""
        ix, iy = self.cell_index(x, y)
        if ix < 0 or ix >= self.width or iy < 0 or iy >= self.height:
            return False
        return not self.cells[iy, ix]

    def footprint_free(self, x: float, y: float, radius: float) -> bool:
        """True when a disc of ``radius`` centred at (x, y) fits in free space.

        Touching an obstacle cell or the boundary exactly is tolerated;
        any penetration blocks. Radius 0 degenerates to is_free.
        """
        if radius < 0.0:
            raise ValueError(f"radius must be >= 0, got {radius!r}")
        if not self.is_free(x, y):
            return False
        if radius == 0.0:
            return True
        b = self.bounds()
        if x - radius < b.x_min or x + radius > b.x_max:
            return False
        if y - radius < b.y_min or y + radius > b.y_max:
            return False
        res = self.resolution
        ix0 = max(0, math.floor((x - radius - self.origin_x) / res))
        ix1 = min(self.width - 1, math.floor((x + radius - self.origin_x) / res))
        iy0 = max(0, math.floor((y - radius - self.origin_y) / res))
        iy1 = min(self.height - 1, math.floor((y + radius - self.origin_y) / res))
        patch = self.cells[iy0 : iy1 + 1, ix0 : ix1 + 1]
        if not patch.any():
            return True
        iys, ixs = np.nonzero(patch)
        lo_x = self.origin_x + (ixs + ix0) * res
        lo_y = self.origin_y + (iys + iy0) * res
        # distance from the centre to each occupied cell rectangle
        dx = np.clip(x, lo_x, lo_x + res) - x
        dy = np.clip(y, lo_y, lo_y + res) - y
        return not bool(np.any(dx * dx + dy * dy < radius * radius))

    def with_metric_box(self, x0: float, y0: float, x1: float, y1: float) -> "OccupancyGrid":
        """A copy with every cell overlapping the box interior marked occupied."""
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"degenerate box ({x0}, {y0}) .. ({x1}, {y1})")
        res = self.resolution
        ix0 = max(0, math.floor((x0 - self.origin_x) / res))
        ix1 = min(self.width, math.ceil((x1 - self.origin_x) / res))
        iy0 = max(0, math.floor((y0 - self.origin_y) / res))
        iy1 = min(self.height, math.ceil((y1 - self.origin_y) / res))
        cells = self.cells.copy()
        cells[iy0:iy1, ix0:ix1] = True
        return OccupancyGrid(
            self.width, self.height, self.resolution, self.origin_x, self.origin_y, cells
        )

    # --- text format -------------------------------------------------------

    @classmethod
    def from_lines(cls, lines: list, path) -> "OccupancyGrid":
        """Parse the lines of a grid file; errors name ``path``.

        Line 1: ``width height resolution origin_x origin_y``. Then exactly
        ``height`` rows of ``width`` characters from {'.', '#'}, the first
        row being the TOP of the world (maximum y).
        """
        if not lines:
            raise FormatError(path, None, "empty grid file")
        tokens = lines[0].split()
        if len(tokens) != 5:
            raise FormatError(
                path, 1, f"header needs 5 fields (width height resolution origin_x origin_y), got {len(tokens)}"
            )
        try:
            width, height = int(tokens[0]), int(tokens[1])
            resolution, origin_x, origin_y = (float(t) for t in tokens[2:])
        except ValueError as exc:
            raise FormatError(path, 1, f"bad header field: {exc}") from None
        if width < 1 or height < 1:
            raise FormatError(path, 1, f"grid must be at least 1x1, got {width}x{height}")
        body = lines[1:]
        if len(body) != height:
            raise FormatError(path, None, f"expected {height} grid rows, found {len(body)}")
        for line_no, row in enumerate(body, start=2):
            if len(row) != width:
                raise FormatError(path, line_no, f"row has {len(row)} characters, expected {width}")
            unknown = row.lstrip(FREE_CHAR + OCCUPIED_CHAR)
            if unknown:
                raise FormatError(path, line_no, f"unknown cell character {unknown[0]!r}")
        text = "".join(reversed(body)).encode("ascii")  # the first body row is the top
        cells = np.frombuffer(text, dtype=np.uint8).reshape(height, width) == ord(OCCUPIED_CHAR)
        try:
            return cls(width, height, resolution, origin_x, origin_y, cells)
        except ValueError as exc:
            raise FormatError(path, 1, str(exc)) from None

    def to_text(self) -> str:
        header = f"{self.width} {self.height} {self.resolution!r} {self.origin_x!r} {self.origin_y!r}"
        rows = [
            "".join(OCCUPIED_CHAR if c else FREE_CHAR for c in self.cells[iy])
            for iy in range(self.height - 1, -1, -1)
        ]
        return "\n".join([header] + rows) + "\n"


@dataclass(frozen=True)
class EnvironmentSpec:
    """A named world plus the sensor used to observe it."""

    name: str
    bounds: EnvBounds
    grid: OccupancyGrid
    sensor: SensorConfig = DEFAULT_SENSOR

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("environment name must be non-empty")
        gb = self.grid.bounds()
        if any(
            abs(a - b) > 1e-9
            for a, b in (
                (gb.x_min, self.bounds.x_min),
                (gb.x_max, self.bounds.x_max),
                (gb.y_min, self.bounds.y_min),
                (gb.y_max, self.bounds.y_max),
            )
        ):
            raise ValueError(f"bounds {self.bounds} inconsistent with grid bounds {gb}")


def environment_from_grid(grid: OccupancyGrid, name: str, sensor: SensorConfig = DEFAULT_SENSOR) -> EnvironmentSpec:
    return EnvironmentSpec(name=name, bounds=grid.bounds(), grid=grid, sensor=sensor)


def load_environment(path, sensor: SensorConfig = DEFAULT_SENSOR) -> EnvironmentSpec:
    """Load a grid file; the environment takes its name from the file stem."""
    grid = OccupancyGrid.from_lines(read_lines(path), path)
    return environment_from_grid(grid, name=Path(path).stem, sensor=sensor)


def save_environment(env: EnvironmentSpec, path) -> None:
    Path(path).write_text(env.grid.to_text(), encoding="ascii")


# --- raycasting -------------------------------------------------------------


def ray_distances(
    grid: OccupancyGrid,
    xs: np.ndarray,
    ys: np.ndarray,
    bearings_deg: np.ndarray,
    max_range: float,
) -> np.ndarray:
    """Exact grid-traversal distances, in metres, for a batch of rays.

    Rays start at (xs[i], ys[i]) (which must be free cells) and travel along
    bearings_deg[i]. Each result is the distance to the first occupied cell
    or to the world boundary, capped at max_range. The traversal steps from
    cell edge to cell edge (Amanatides & Woo 1987), so there is no marching
    step size to tune.

    Raises:
        ValueError: when the inputs differ in length, an origin or bearing
            is not finite, or max_range is not positive.
        InvalidPoseError: when a ray starts outside the world or in an
            obstacle cell.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    bearings_deg = np.asarray(bearings_deg, dtype=np.float64)
    n = xs.size
    if ys.size != n or bearings_deg.size != n:
        raise ValueError("xs, ys and bearings_deg must have equal length")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all() and np.isfinite(bearings_deg).all()):
        raise ValueError("ray origins and bearings must be finite")
    if not max_range > 0.0:
        raise ValueError(f"max_range must be positive, got {max_range!r}")
    bearings = np.radians(bearings_deg)

    res = grid.resolution
    w, h = grid.width, grid.height
    # The grid sits inside a ring of occupied cells, so leaving the world is
    # an ordinary hit and every ray stops by the time it enters the ring. A
    # start outside the world is clipped onto the ring, where it is blocked.
    padded = grid._padded
    stride = w + 2 * RAY_RING
    ix = np.clip(np.floor((xs - grid.origin_x) / res), -1, w).astype(np.int64)
    iy = np.clip(np.floor((ys - grid.origin_y) / res), -1, h).astype(np.int64)
    cell = (iy + RAY_RING) * stride + (ix + RAY_RING)
    blocked = padded[cell]
    if np.any(blocked):
        k = int(np.flatnonzero(blocked)[0])
        raise InvalidPoseError(f"ray origin ({xs[k]}, {ys[k]}) is not in free space")

    ux = np.cos(bearings)
    uy = np.sin(bearings)
    step_x = np.sign(ux).astype(np.int64)
    step_y = np.sign(uy).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        tdx = np.where(ux != 0.0, res / np.abs(ux), np.inf)
        tdy = np.where(uy != 0.0, res / np.abs(uy), np.inf)
        # distance to the first vertical / horizontal cell edge ahead
        edge_x = grid.origin_x + (ix + (step_x > 0)) * res
        edge_y = grid.origin_y + (iy + (step_y > 0)) * res
        tx = np.where(ux != 0.0, (edge_x - xs) / ux, np.inf)
        ty = np.where(uy != 0.0, (edge_y - ys) / uy, np.inf)
    # A start on a cell edge gives t = -0.0 on that axis. Stored ranges carry
    # -0.0 only from a ray's first crossing and +0.0 from any later one, so
    # the axis not crossed first gets x + 0.0, which changes no other value;
    # the masked adds below never touch an axis that is not crossed.
    first_x = tx <= ty
    tx[~first_x] += 0.0
    ty[first_x] += 0.0

    # Ray state is updated in place and compacted every RAY_RING steps, not
    # on every step where a ray stops: compaction costs as much as a step.
    # A stopped ray coasts on until then, at most RAY_RING - 1 cells past
    # the cell it stopped in, which the ring's depth keeps inside the padded
    # grid; only its first stop is recorded.
    d_y = step_y * stride  # flat-index step across a horizontal edge
    d_xy = step_x - d_y  # ... added on top of d_y for a vertical edge
    ray = np.arange(n)
    stopped = np.zeros(n, dtype=bool)
    out = np.full(n, float(max_range))
    step = 0
    while ray.size:
        take_x = tx <= ty  # ties step in x
        # np.minimum returns its second argument on a tie, so a signed-zero
        # tie reports tx, as the <= rule does
        t_cross = np.minimum(ty, tx)
        cell += d_y + d_xy * take_x
        np.add(tx, tdx, out=tx, where=take_x)
        np.add(ty, tdy, out=ty, where=~take_x)
        stop = (padded[cell] | (t_cross >= max_range)) > stopped  # newly stopped
        if stop.any():
            out[ray[stop]] = np.minimum(t_cross[stop], max_range)
            stopped |= stop
        step += 1
        if step % RAY_RING == 0 and stopped.any():
            live = np.flatnonzero(~stopped)
            ray, cell, tx, ty, tdx, tdy, d_y, d_xy = (
                a[live] for a in (ray, cell, tx, ty, tdx, tdy, d_y, d_xy)
            )
            stopped = np.zeros(live.size, dtype=bool)
    return out


def raycast(grid: OccupancyGrid, pose: Pose2D, sensor: SensorConfig = DEFAULT_SENSOR) -> Observation:
    """Observe the world from a pose: normalised ranges, ray 0 at -fov/2.

    Raises:
        InvalidPoseError: when the pose is outside the world or inside an
            obstacle cell.
    """
    if not grid.is_free(pose.x, pose.y):
        raise InvalidPoseError(f"pose ({pose.x}, {pose.y}) is not in free space")
    bearings = pose.theta + sensor.bearing_offsets()
    n = bearings.size
    dists = ray_distances(
        grid,
        np.full(n, pose.x),
        np.full(n, pose.y),
        bearings,
        sensor.max_range,
    )
    return Observation(dists / sensor.max_range)
