"""Occupancy-grid environments: collision queries and the ray traversal.

A world is a rectangular grid of square cells, each free or occupied, with
metric bounds fixed by an origin and a resolution. The outer boundary counts
as an obstacle: these are enclosed interiors, so rays stop at the walls and
footprints may not poke outside.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .inputs import FormatError, InputError, check_finite, check_size, read_lines
from .pose import EnvBounds

FREE_CHAR = "."
OCCUPIED_CHAR = "#"

# Depth of the ring of occupied cells around the raycaster's copy of a grid,
# and the number of one-cell steps between compactions of its ray state in
# the bulk phase. Once a compaction leaves TAIL_RAYS rays or fewer, the tail
# phase steps each of them TAIL_CELLS // rays cells per numpy pass (8 to 64);
# ray_distances says why both phases give the same bits.
RAY_RING = 8
TAIL_RAYS = 1024
TAIL_CELLS = 8192


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
        if self.ray_count > np.iinfo(np.intp).max:  # numpy could size no array of rays
            raise InputError(f"ray_count must be <= {np.iinfo(np.intp).max}, got {self.ray_count}")
        if not self.max_range > 0.0:
            raise InputError(f"max_range must be positive, got {self.max_range!r}")

    def header(self) -> dict:
        """The sensor as dataset and model file headers state it."""
        return {"fov": self.fov, "ray_count": self.ray_count, "max_range": self.max_range}

    @classmethod
    def from_header(cls, h) -> "SensorConfig":
        """The sensor a file header ``h`` states; a missing key raises
        ``KeyError``, a value of the wrong type ``TypeError`` or ``ValueError``."""
        if not isinstance(h, dict):
            raise TypeError(f"sensor must be an object, got {h!r}")
        return cls(fov=float(h["fov"]), ray_count=int(h["ray_count"]), max_range=float(h["max_range"]))

    def bearing_offsets(self) -> np.ndarray:
        """Ray bearings relative to the heading, in degrees, ray 0 first."""
        if self.fov == 360.0:
            return -180.0 + np.arange(self.ray_count) * (360.0 / self.ray_count)
        return np.linspace(-0.5 * self.fov, 0.5 * self.fov, self.ray_count)


DEFAULT_SENSOR = SensorConfig()


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

    def is_free(self, x: float, y: float) -> bool:
        """True when the point falls in a free cell inside the grid.

        Cells follow the floor convention, so a point exactly on a shared
        edge belongs to the higher-index cell. The cell coordinates are
        range-checked before they become indices: a point outside the grid,
        however far, or a NaN is not free.
        """
        fx = (x - self.origin_x) / self.resolution
        fy = (y - self.origin_y) / self.resolution
        if not (0.0 <= fx < self.width and 0.0 <= fy < self.height):
            return False
        return not self.cells[int(fy), int(fx)]  # int is floor for values >= 0

    def free_mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``is_free`` over float64 arrays of points, with the same floor
        rule and the same arithmetic, so each entry equals ``is_free(x, y)``."""
        with np.errstate(over="ignore"):  # a far point's inf is outside, as in is_free
            fx = (xs - self.origin_x) / self.resolution
            fy = (ys - self.origin_y) / self.resolution
        inside = (0.0 <= fx) & (fx < self.width) & (0.0 <= fy) & (fy < self.height)
        free = np.zeros(inside.shape, bool)
        # astype truncates, which is floor for values >= 0
        free[inside] = ~self.cells[fy[inside].astype(np.intp), fx[inside].astype(np.intp)]
        return free

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


@dataclass(frozen=True)
class EnvironmentSpec:
    """A named world plus the sensor used to observe it; ``bounds`` are the
    grid's, computed once."""

    name: str
    grid: OccupancyGrid
    sensor: SensorConfig = DEFAULT_SENSOR
    bounds: EnvBounds = field(init=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("environment name must be non-empty")
        check_size("ray_count", self.sensor.ray_count)  # a scan's ranges, before any raycast
        object.__setattr__(self, "bounds", self.grid.bounds())

    def check_world(self, what: str, env_name: str, sensor: SensorConfig, poses=None) -> None:
        """Refuse an artefact (dataset, model, estimator) named for another
        world or observed with another sensor, or whose ``poses`` (n, 3), when
        given, do not all lie within the world's bounds: poses are normalised
        against one world's bounds and ranges come from one sensor."""
        if env_name != self.name:
            raise InputError(f"{what} belongs to world {env_name!r}, not {self.name!r}")
        if sensor != self.sensor:
            raise InputError(f"{what} sensor {sensor} does not match {self.sensor}")
        if poses is None:
            return
        b = self.bounds
        x, y = poses[:, 0], poses[:, 1]
        outside = ~((b.x_min <= x) & (x <= b.x_max) & (b.y_min <= y) & (y <= b.y_max))
        if outside.any():
            i = int(np.argmax(outside))
            raise InputError(
                f"{what} row {i} at ({x[i].item()!r}, {y[i].item()!r}) lies outside world "
                f"{self.name!r}: x [{b.x_min}, {b.x_max}], y [{b.y_min}, {b.y_max}]"
            )


def load_environment(path, sensor: SensorConfig = DEFAULT_SENSOR) -> EnvironmentSpec:
    """Load a grid file; the environment takes its name from the file stem."""
    grid = OccupancyGrid.from_lines(list(read_lines(path)), path)
    return EnvironmentSpec(Path(path).stem, grid, sensor)


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

    The traversal runs in two phases. While more than TAIL_RAYS rays are
    live, each numpy pass steps every ray one cell, where the per-call cost
    of numpy is small beside the work. The last TAIL_RAYS or fewer, and so
    every ray of a call that small (a single-pose scan), take 8 to 64 cells
    per pass. Both phases give the same bits: a tail pass adds each axis's
    crossings in order with np.add.accumulate, as the one-cell loop's +=
    does; merges the two runs with a stable sort, which puts an x crossing
    before an equal y one, as tx <= ty does; and records each ray's first
    stop, found by argmax.

    Only the traversal state lives through the bulk loop: per ray in flight,
    a flat cell index, four crossing distances and two flat steps, plus the
    ray's id, its result and its stop flag. The set-up arrays are freed
    before the first step, and a call peaks at ~106 bytes per ray. A tail
    pass holds a few arrays of rays x (2b + 2) values: a 96-ray call peaks at
    ~0.4 MB, and one of TAIL_RAYS at ~0.7 MB.

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
    cell, tx, ty, tdx, tdy, d_y, d_xy = _traversal_start(grid, xs, ys, bearings_deg)

    # Bulk phase: ray state is updated in place and compacted every RAY_RING
    # steps, not on every step where a ray stops: compaction costs as much as
    # a step. A stopped ray coasts on until then, at most RAY_RING - 1 cells
    # past the cell it stopped in, which the ring's depth keeps inside the
    # padded grid; only its first stop is recorded.
    padded = grid._padded
    ray = np.arange(n)
    stopped = np.zeros(n, dtype=bool)
    out = np.full(n, float(max_range))
    step = 0
    while ray.size > TAIL_RAYS:
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
            # one array at a time, so one old/new pair is held at once
            live = np.flatnonzero(~stopped)
            ray = ray[live]
            cell = cell[live]
            tx = tx[live]
            ty = ty[live]
            tdx = tdx[live]
            tdy = tdy[live]
            d_y = d_y[live]
            d_xy = d_xy[live]
            stopped = np.zeros(live.size, dtype=bool)

    # Tail phase: b steps per ray per pass.
    while ray.size:
        n_live = ray.size
        b = min(max(TAIL_CELLS // n_live, 8), 64)
        # the next b + 1 crossings on each axis, a row per ray and axis
        both = np.empty((n_live, 2, b + 1))
        both[:, 0, 0] = tx
        both[:, 0, 1:] = tdx[:, None]
        both[:, 1, 0] = ty
        both[:, 1, 1:] = tdy[:, None]
        np.add.accumulate(both, axis=2, out=both)
        both = both.reshape(n_live, 2 * b + 2)
        # The next b steps. -0.0 sorts equal to +0.0, so a signed-zero tie
        # reports the x crossing, as np.minimum(ty, tx) does. A run's last
        # crossing sorts after its other b, so it is never among the first b.
        order = np.argsort(both, axis=1, kind="stable")[:, :b]
        t_cross = both.take(order + (2 * b + 2) * np.arange(n_live)[:, None])
        take_x = order <= b
        cells = np.cumsum(np.where(take_x, (d_y + d_xy)[:, None], d_y[:, None]), axis=1)
        cells += cell[:, None]
        # Cells past a ray's first stop may run beyond the ring; they are
        # clipped into the array, and argmax reads only the first stop.
        stop = padded.take(cells, mode="clip") | (t_cross >= max_range)
        hit = stop.any(axis=1)
        first = stop[hit].argmax(axis=1)
        out[ray[hit]] = np.minimum(t_cross[hit, first], max_range)
        keep = np.flatnonzero(~hit)
        nx = np.count_nonzero(take_x[keep], axis=1)  # x steps taken
        ray = ray[keep]
        cell = cells[keep, -1]
        tx = both[keep, nx]
        ty = both[keep, 2 * b + 1 - nx]
        tdx = tdx[keep]
        tdy = tdy[keep]
        d_y = d_y[keep]
        d_xy = d_xy[keep]
    return out


def _traversal_start(grid: OccupancyGrid, xs, ys, bearings_deg) -> tuple:
    """The state ray_distances steps, for rays from free (xs, ys) along
    bearings_deg: each ray's flat cell index in the padded grid, the
    distances to its first vertical and horizontal edge crossings (tx, ty)
    and between crossings (tdx, tdy), and its flat-index steps across a
    horizontal edge (d_y) and, added on top, a vertical one (d_xy).

    Only this state is returned, so every set-up array is freed before the
    first step.
    """
    res = grid.resolution
    w, h = grid.width, grid.height
    # The grid sits inside a ring of occupied cells, so leaving the world is
    # an ordinary hit and every ray stops by the time it enters the ring. A
    # start outside the world is clipped onto the ring, where it is blocked.
    stride = w + 2 * RAY_RING
    ix = np.clip(np.floor((xs - grid.origin_x) / res), -1, w).astype(np.int64)
    iy = np.clip(np.floor((ys - grid.origin_y) / res), -1, h).astype(np.int64)
    cell = (iy + RAY_RING) * stride + (ix + RAY_RING)
    blocked = grid._padded[cell]
    if np.any(blocked):
        k = int(np.flatnonzero(blocked)[0])
        raise InvalidPoseError(f"ray origin ({xs[k]}, {ys[k]}) is not in free space")

    bearings = np.radians(bearings_deg)
    tx, tdx, step_x = _axis_start(grid.origin_x, xs, ix, np.cos(bearings), res)
    ty, tdy, step_y = _axis_start(grid.origin_y, ys, iy, np.sin(bearings), res)
    # A start on a cell edge gives t = -0.0 on that axis. Stored ranges carry
    # -0.0 only from a ray's first crossing and +0.0 from any later one, so
    # the axis not crossed first gets x + 0.0, which changes no other value;
    # the masked adds in ray_distances never touch an axis that is not crossed.
    first_x = tx <= ty
    tx[~first_x] += 0.0
    ty[first_x] += 0.0
    d_y = step_y * stride  # flat-index step across a horizontal edge
    d_xy = step_x - d_y  # ... added on top of d_y for a vertical edge
    return cell, tx, ty, tdx, tdy, d_y, d_xy


def _axis_start(origin: float, start, index, u, res: float) -> tuple:
    """One axis of the start state, for rays from coordinate ``start`` in
    cell ``index`` with direction component ``u``: the distance to the first
    cell edge crossed on this axis, the distance between crossings, and the
    cell step (-1, 0 or 1). Computing one axis at a time holds one axis's
    temporaries at once."""
    step = np.sign(u).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_delta = np.where(u != 0.0, res / np.abs(u), np.inf)
        edge = origin + (index + (step > 0)) * res  # the first cell edge ahead
        t = np.where(u != 0.0, (edge - start) / u, np.inf)
    return t, t_delta, step
