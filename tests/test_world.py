"""Occupancy grids: parsing, collision queries, exact raycasting."""

import math

import numpy as np
import pytest

from neuromap.capture import STREAM_GEN, derived_rng, sample_random_pose
from neuromap.inputs import FormatError
from neuromap.pose import Pose2D
from neuromap.world import (
    DEFAULT_SENSOR,
    EnvironmentSpec,
    InvalidPoseError,
    Observation,
    OccupancyGrid,
    SensorConfig,
    environment_from_grid,
    load_environment,
    ray_distances,
    raycast,
    save_environment,
)
from neuromap.worlds import cabin
from worldgen import marching_ray, random_free_pose, random_world


def empty_grid(width, height, resolution, ox=0.0, oy=0.0):
    return OccupancyGrid(width, height, resolution, ox, oy, np.zeros((height, width), bool))


def grid_from_text(text):
    """Parse grid-file text as load_environment parses the file's lines."""
    return OccupancyGrid.from_lines(text.splitlines(), "grid.txt")


# sensor config ---------------------------------------------------------------


def test_sensor_defaults():
    assert DEFAULT_SENSOR.fov == 120.0
    assert DEFAULT_SENSOR.ray_count == 96
    assert DEFAULT_SENSOR.max_range == 20.0


def test_bearing_offsets_span_fov_inclusive():
    s = SensorConfig(fov=120.0, ray_count=96)
    off = s.bearing_offsets()
    assert off.shape == (96,)
    assert off[0] == -60.0
    assert off[-1] == 60.0
    expected = -60.0 + np.arange(96) * (120.0 / 95.0)
    assert np.allclose(off, expected, atol=1e-12)


def test_bearing_offsets_full_circle_drops_duplicate():
    s = SensorConfig(fov=360.0, ray_count=4)
    assert np.array_equal(s.bearing_offsets(), [-180.0, -90.0, 0.0, 90.0])
    assert SensorConfig(fov=360.0, ray_count=1).bearing_offsets().tolist() == [-180.0]


def test_sensor_validation():
    with pytest.raises(ValueError):
        SensorConfig(fov=0.0)
    with pytest.raises(ValueError):
        SensorConfig(fov=361.0)
    with pytest.raises(ValueError):
        SensorConfig(fov=120.0, ray_count=1)  # a fan needs both endpoints
    with pytest.raises(ValueError):
        SensorConfig(max_range=0.0)
    SensorConfig(fov=360.0, ray_count=1)  # a full circle may be a single ray


def test_observation_validation():
    Observation(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        Observation(np.array([0.0, 1.0001]))
    with pytest.raises(ValueError):
        Observation(np.array([-0.001]))
    with pytest.raises(ValueError):
        Observation(np.array([np.nan]))
    with pytest.raises(ValueError):
        Observation(np.array([0.5, np.inf]))
    with pytest.raises(ValueError):
        Observation(np.array([-np.inf, 0.5]))
    with pytest.raises(ValueError):
        Observation(np.zeros((2, 2)))


def test_observation_is_read_only():
    obs = Observation(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        obs.ranges[0] = 0.0
    assert len(obs) == 2


# grid text format -------------------------------------------------------------


def test_parse_empty_world():
    grid = grid_from_text("3 2 0.5 0.0 0.0\n...\n...\n")
    assert grid.width == 3 and grid.height == 2
    assert int(grid.cells.sum()) == 0


def test_parse_orientation_first_row_is_top():
    # '#' in the first body row, leftmost column = cell at minimum x, MAXIMUM y
    grid = grid_from_text("2 2 1.0 0.0 0.0\n#.\n..\n")
    assert bool(grid.cells[1, 0]) is True
    assert int(grid.cells.sum()) == 1
    assert not grid.is_free(0.5, 1.5)
    assert grid.is_free(0.5, 0.5)


def test_parse_row_length_mismatch_names_line():
    with pytest.raises(FormatError, match="line 3"):
        grid_from_text("3 2 0.5 0.0 0.0\n...\n....\n")


def test_parse_errors():
    with pytest.raises(FormatError):
        grid_from_text("")
    with pytest.raises(FormatError):
        grid_from_text("3 2 0.5 0.0\n...\n...\n")  # 4 header fields
    with pytest.raises(FormatError):
        grid_from_text("x 2 0.5 0.0 0.0\n...\n...\n")
    with pytest.raises(FormatError):
        grid_from_text("3 2 -0.5 0.0 0.0\n...\n...\n")
    with pytest.raises(FormatError):
        grid_from_text("3 2 0.5 0.0 0.0\n...\n")  # missing row
    with pytest.raises(FormatError, match="line 2"):
        grid_from_text("3 2 0.5 0.0 0.0\n..x\n...\n")


def test_cabin_scale_dimension_arithmetic():
    # a 7m x 15m interior at 0.05 m/cell is a 140 x 300 grid
    header = "140 300 0.05 0.0 0.0"
    body = "\n".join(["." * 140] * 300)
    grid = grid_from_text(header + "\n" + body + "\n")
    assert (grid.width, grid.height) == (140, 300)
    b = grid.bounds()
    assert abs(b.width - 7.0) < 1e-12
    assert abs(b.height - 15.0) < 1e-12


def test_text_round_trip_is_stable():
    rng = np.random.default_rng(21)
    for _ in range(20):
        grid = random_world(rng)
        text = grid.to_text()
        again = grid_from_text(text)
        assert again == grid
        assert again.to_text() == text  # second serialisation is byte-identical


def test_load_and_save_environment(tmp_path):
    grid = empty_grid(4, 4, 0.5).with_metric_box(1.0, 1.0, 1.5, 1.5)
    env = environment_from_grid(grid, "toy")
    path = tmp_path / "toy.grid"
    save_environment(env, path)
    loaded = load_environment(path)
    assert loaded.name == "toy"
    assert loaded.grid == grid
    assert loaded.sensor == DEFAULT_SENSOR
    with pytest.raises(FileNotFoundError):
        load_environment(tmp_path / "missing.grid")
    bad = tmp_path / "bad.grid"
    bad.write_text("1 1\n.\n")
    with pytest.raises(FormatError, match="bad.grid"):
        load_environment(bad)


def test_environment_spec_rejects_inconsistent_bounds():
    grid = empty_grid(4, 4, 0.5)
    with pytest.raises(ValueError):
        EnvironmentSpec(name="x", bounds=grid.bounds(), grid=grid, sensor=DEFAULT_SENSOR).__class__(
            name="x",
            bounds=type(grid.bounds())(0.0, 3.0, 0.0, 2.0),
            grid=grid,
            sensor=DEFAULT_SENSOR,
        )
    with pytest.raises(ValueError):
        environment_from_grid(grid, "")


# collision queries -------------------------------------------------------------


def test_is_free_basics():
    grid = grid_from_text("2 1 1.0 0.0 0.0\n#.\n")
    assert not grid.is_free(0.5, 0.5)
    assert grid.is_free(1.5, 0.5)
    assert not grid.is_free(-0.1, 0.5)
    assert not grid.is_free(2.1, 0.5)


def test_edge_point_resolves_to_higher_cell():
    left_occupied = grid_from_text("2 1 1.0 0.0 0.0\n#.\n")
    right_occupied = grid_from_text("2 1 1.0 0.0 0.0\n.#\n")
    # x = 1.0 is the shared edge; floor((1.0 - 0)/1.0) = 1, the right cell
    assert left_occupied.is_free(1.0, 0.5)
    assert not right_occupied.is_free(1.0, 0.5)
    # the far edge x = 2.0 floors to cell index 2, outside: not free
    assert not left_occupied.is_free(2.0, 0.5)


def test_footprint_zero_radius_equals_is_free():
    rng = np.random.default_rng(22)
    grid = random_world(rng, max_boxes=8)
    b = grid.bounds()
    for _ in range(10_000):
        x = float(rng.uniform(b.x_min - 0.5, b.x_max + 0.5))
        y = float(rng.uniform(b.y_min - 0.5, b.y_max + 0.5))
        assert grid.footprint_free(x, y, 0.0) == grid.is_free(x, y)


def test_footprint_blocked_by_nearby_wall():
    # wall cells occupy x in [3.0, 3.5]; a 0.5 m disc centred 0.4 m away
    # (x = 2.6) penetrates, one centred 0.6 m away does not
    grid = empty_grid(12, 12, 0.5).with_metric_box(3.0, 0.0, 3.5, 6.0)
    assert not grid.footprint_free(2.6, 3.0, 0.5)
    assert grid.footprint_free(2.4, 3.0, 0.5)
    # touching exactly (distance 0.5) is tolerated
    assert grid.footprint_free(2.5, 3.0, 0.5)


def test_footprint_respects_world_boundary():
    grid = empty_grid(10, 10, 1.0)
    assert grid.footprint_free(5.0, 5.0, 4.9)
    assert not grid.footprint_free(5.0, 5.0, 5.1)
    assert not grid.footprint_free(0.4, 5.0, 0.5)
    assert grid.footprint_free(0.5, 5.0, 0.5)  # tangent to the boundary
    with pytest.raises(ValueError):
        grid.footprint_free(5.0, 5.0, -0.1)


def footprint_oracle(grid, x, y, radius):
    """Exhaustive disc test: every cell rectangle vs the disc, plus bounds."""
    if not grid.is_free(x, y):
        return False
    if radius == 0.0:
        return True
    b = grid.bounds()
    if x - radius < b.x_min or x + radius > b.x_max:
        return False
    if y - radius < b.y_min or y + radius > b.y_max:
        return False
    for iy in range(grid.height):
        for ix in range(grid.width):
            if not grid.cells[iy, ix]:
                continue
            lx = grid.origin_x + ix * grid.resolution
            ly = grid.origin_y + iy * grid.resolution
            cx = min(max(x, lx), lx + grid.resolution)
            cy = min(max(y, ly), ly + grid.resolution)
            if (cx - x) ** 2 + (cy - y) ** 2 < radius * radius:
                return False
    return True


def test_footprint_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(25):
        grid = random_world(rng, min_size=3.0, max_size=5.0, max_boxes=5)
        b = grid.bounds()
        for _ in range(40):
            x = float(rng.uniform(b.x_min, b.x_max))
            y = float(rng.uniform(b.y_min, b.y_max))
            r = float(rng.uniform(0.0, 1.0))
            assert grid.footprint_free(x, y, r) == footprint_oracle(grid, x, y, r)


def test_with_metric_box_cell_coverage():
    grid = empty_grid(4, 4, 0.5)
    boxed = grid.with_metric_box(0.5, 0.5, 1.0, 1.0)
    # only the cell [0.5, 1.0) x [0.5, 1.0) overlaps the box interior
    assert int(boxed.cells.sum()) == 1
    assert bool(boxed.cells[1, 1])
    partial = grid.with_metric_box(0.6, 0.6, 0.9, 0.9)
    assert int(partial.cells.sum()) == 1  # strictly interior box still fills its cell
    spanning = grid.with_metric_box(0.4, 0.4, 1.1, 1.1)
    assert int(spanning.cells.sum()) == 9


def test_grid_is_immutable():
    grid = empty_grid(2, 2, 1.0)
    with pytest.raises(AttributeError):
        grid.width = 5
    with pytest.raises(ValueError):
        grid.cells[0, 0] = True


# raycasting --------------------------------------------------------------------


def test_boundary_hit_analytic():
    # empty 10x10 m world, robot at the centre facing +x: the centre ray
    # crosses 5 m of free space and stops at the wall; 5/20 = 0.25
    grid = empty_grid(10, 10, 1.0)
    sensor = SensorConfig(fov=120.0, ray_count=97, max_range=20.0)
    obs = raycast(grid, Pose2D(5.0, 5.0, 0.0), sensor)
    assert obs.ranges[48] == 0.25
    # facing the far corner: distance 5*sqrt(2)
    obs = raycast(grid, Pose2D(5.0, 5.0, 45.0), sensor)
    assert abs(obs.ranges[48] - 5.0 * math.sqrt(2.0) / 20.0) < 1e-12


def test_wall_hit_analytic():
    # wall at x in [7.0, 7.5), robot at x = 5: 2 m to the wall face
    grid = empty_grid(20, 6, 0.5).with_metric_box(7.0, 0.0, 7.5, 3.0)
    d = ray_distances(grid, np.array([5.0]), np.array([1.5]), np.array([0.0]), 10.0)
    assert d[0] == 2.0
    obs = raycast(grid, Pose2D(5.0, 1.5, 0.0), SensorConfig(fov=360.0, ray_count=4, max_range=10.0))
    assert obs.ranges[2] == 0.2  # offsets -180,-90,0,90: index 2 faces +x


def test_no_hit_within_range_reports_one():
    grid = empty_grid(100, 100, 0.5)
    obs = raycast(grid, Pose2D(25.0, 25.0, 13.0), SensorConfig(fov=120.0, ray_count=8, max_range=2.0))
    assert np.all(obs.ranges == 1.0)


def test_raycast_rejects_bad_poses():
    grid = empty_grid(4, 4, 1.0).with_metric_box(1.0, 1.0, 2.0, 2.0)
    with pytest.raises(InvalidPoseError):
        raycast(grid, Pose2D(1.5, 1.5, 0.0))
    with pytest.raises(InvalidPoseError):
        raycast(grid, Pose2D(-1.0, 1.5, 0.0))
    with pytest.raises(InvalidPoseError):
        ray_distances(grid, np.array([1.5]), np.array([1.5]), np.array([0.0]), 5.0)


def test_raycast_deterministic():
    rng = np.random.default_rng(24)
    grid = random_world(rng)
    pose = random_free_pose(rng, grid)
    a = raycast(grid, pose)
    b = raycast(grid, pose)
    assert a.ranges.tobytes() == b.ranges.tobytes()


def test_obstacle_insertion_never_increases_range():
    rng = np.random.default_rng(25)
    checked = 0
    while checked < 60:
        grid = random_world(rng, max_boxes=3)
        pose = random_free_pose(rng, grid)
        b = grid.bounds()
        bw, bh = rng.uniform(0.2, 1.2, size=2)
        x0 = float(rng.uniform(b.x_min, b.x_max - bw))
        y0 = float(rng.uniform(b.y_min, b.y_max - bh))
        denser = grid.with_metric_box(x0, y0, x0 + float(bw), y0 + float(bh))
        if not denser.is_free(pose.x, pose.y):
            continue
        r_before = raycast(grid, pose).ranges
        r_after = raycast(denser, pose).ranges
        assert np.all(r_after <= r_before + 1e-12)
        checked += 1


def test_traversal_agrees_with_marching_oracle():
    # exact edge-stepping vs brute-force 0.1 mm marching: within one step
    rng = np.random.default_rng(26)
    step = 1e-4
    for _ in range(1000):
        grid = random_world(rng, min_size=3.0, max_size=6.0)
        pose = random_free_pose(rng, grid)
        bearing = float(rng.uniform(-180.0, 180.0))
        max_range = float(rng.uniform(1.0, 6.0))
        dda = ray_distances(
            grid, np.array([pose.x]), np.array([pose.y]), np.array([bearing]), max_range
        )[0]
        march = marching_ray(grid, pose.x, pose.y, bearing, max_range, step)
        assert abs(dda - march) <= step + 1e-9, (
            f"dda {dda} vs march {march} at {pose} bearing {bearing}"
        )


def test_axis_aligned_rays_on_cell_edges():
    # a ray running exactly along a cell edge stays in the higher-index row
    grid = empty_grid(6, 2, 1.0).with_metric_box(3.0, 0.0, 4.0, 1.0)
    # y = 1.0 is the edge between the occupied row (below) and free row (above)
    d = ray_distances(grid, np.array([0.5]), np.array([1.0]), np.array([0.0]), 10.0)
    assert d[0] == 5.5  # passes over the box, hits the east wall
    d = ray_distances(grid, np.array([0.5]), np.array([0.5]), np.array([0.0]), 10.0)
    assert d[0] == 2.5  # inside the lower row, hits the box


def test_batch_matches_single_rays():
    rng = np.random.default_rng(27)
    grid = random_world(rng)
    poses = [random_free_pose(rng, grid) for _ in range(50)]
    bearings = rng.uniform(-180.0, 180.0, size=50)
    xs = np.array([p.x for p in poses])
    ys = np.array([p.y for p in poses])
    batch = ray_distances(grid, xs, ys, bearings, 12.0)
    for i in range(50):
        single = ray_distances(
            grid, xs[i : i + 1], ys[i : i + 1], bearings[i : i + 1], 12.0
        )[0]
        assert batch[i] == single


@pytest.mark.parametrize("arg", [1, 2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ray_distances_rejects_non_finite_input(arg, bad):
    grid = empty_grid(4, 4, 1.0)
    args = [np.array([1.5, 2.5]), np.array([1.5, 2.5]), np.array([0.0, 90.0])]
    args[arg - 1][1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        ray_distances(grid, *args, 5.0)


@pytest.mark.parametrize("max_range", [0.0, -1.0, math.nan])
def test_ray_distances_rejects_non_positive_max_range(max_range):
    grid = empty_grid(4, 4, 1.0)
    with pytest.raises(ValueError, match="max_range"):
        ray_distances(grid, np.array([1.5]), np.array([1.5]), np.array([0.0]), max_range)


# differential tests against the per-step gather/scatter traversal -------------


def ray_distances_reference(grid, xs, ys, bearings_deg, max_range):
    """The traversal ``ray_distances`` replaced: every step gathers and
    scatters the whole ray state through an index of live rays and checks
    the world box and the occupancy separately. The fast loop must return
    the same bytes."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    bearings = np.radians(np.asarray(bearings_deg, dtype=np.float64))
    n = xs.size
    res = grid.resolution
    w, h = grid.width, grid.height
    flat = grid.cells.ravel()

    ix = np.floor((xs - grid.origin_x) / res).astype(np.int64)
    iy = np.floor((ys - grid.origin_y) / res).astype(np.int64)
    outside_start = (ix < 0) | (ix >= w) | (iy < 0) | (iy >= h)
    clipped = np.clip(iy, 0, h - 1) * w + np.clip(ix, 0, w - 1)
    assert not np.any(outside_start | flat[clipped])

    ux = np.cos(bearings)
    uy = np.sin(bearings)
    step_x = np.sign(ux).astype(np.int64)
    step_y = np.sign(uy).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_delta_x = np.where(ux != 0.0, res / np.abs(ux), np.inf)
        t_delta_y = np.where(uy != 0.0, res / np.abs(uy), np.inf)
        edge_x = grid.origin_x + (ix + (step_x > 0)) * res
        edge_y = grid.origin_y + (iy + (step_y > 0)) * res
        t_max_x = np.where(ux != 0.0, (edge_x - xs) / ux, np.inf)
        t_max_y = np.where(uy != 0.0, (edge_y - ys) / uy, np.inf)

    out = np.full(n, float(max_range), dtype=np.float64)
    alive = np.arange(n)
    max_iters = 2 * (w + h) + 4 * int(math.ceil(max_range / res)) + 16
    for _ in range(max_iters):
        if alive.size == 0:
            break
        take_x = t_max_x[alive] <= t_max_y[alive]
        t_cross = np.where(take_x, t_max_x[alive], t_max_y[alive])
        ix[alive] += np.where(take_x, step_x[alive], 0)
        iy[alive] += np.where(take_x, 0, step_y[alive])
        t_max_x[alive] += np.where(take_x, t_delta_x[alive], 0.0)
        t_max_y[alive] += np.where(take_x, 0.0, t_delta_y[alive])

        capped = t_cross >= max_range
        axs, ays = ix[alive], iy[alive]
        outside = (axs < 0) | (axs >= w) | (ays < 0) | (ays >= h)
        inside = ~outside
        hit = np.zeros(alive.size, dtype=bool)
        hit[inside] = flat[ays[inside] * w + axs[inside]]
        done = capped | outside | hit
        finished = alive[done]
        out[finished] = np.where(capped[done], float(max_range), t_cross[done])
        alive = alive[~done]
    assert alive.size == 0
    return out


def assert_same_bytes(grid, xs, ys, bearings, max_range):
    xs, ys, bearings = np.broadcast_arrays(*(np.asarray(a, np.float64) for a in (xs, ys, bearings)))
    xs, ys, bearings = xs.ravel(), ys.ravel(), bearings.ravel()
    fast = ray_distances(grid, xs, ys, bearings, max_range)
    ref = ray_distances_reference(grid, xs, ys, bearings, max_range)
    assert fast.tobytes() == ref.tobytes()
    return ref


def edge_coordinates(origin, res, count):
    """Every cell-edge coordinate as the grid computes it, and its two
    floating-point neighbours: the rounding there decides the start cell."""
    edges = origin + np.arange(count + 1) * res
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


AXIS_AND_DIAGONAL = np.array([0.0, 90.0, 180.0, 270.0, -90.0, 360.0, 45.0, 135.0, 225.0, 315.0])


def test_fast_traversal_matches_reference_on_random_worlds():
    rng = np.random.default_rng(31)
    for _ in range(60):
        grid = random_world(rng)
        poses = [random_free_pose(rng, grid) for _ in range(20)]
        xs = np.repeat([p.x for p in poses], 48)
        ys = np.repeat([p.y for p in poses], 48)
        bearings = rng.uniform(-180.0, 180.0, size=xs.size)
        assert_same_bytes(grid, xs, ys, bearings, float(rng.uniform(0.5, 12.0)))


def test_fast_traversal_matches_reference_from_edges_and_corners():
    # origins on (and one ulp either side of) cell edges and corners, at
    # axis-aligned and diagonal bearings; with origins and resolutions that
    # do not divide evenly, the first crossing can be +0.0, -0.0 or slightly
    # negative, and a ray can tie in x and y at its first step
    rng = np.random.default_rng(32)
    signed_zero = False
    for _ in range(40):
        grid = random_world(rng, min_size=2.0, max_size=4.0, max_boxes=8)
        ex = edge_coordinates(grid.origin_x, grid.resolution, grid.width)
        ey = edge_coordinates(grid.origin_y, grid.resolution, grid.height)
        gx, gy = (a.ravel() for a in np.meshgrid(ex, ey))
        centre_y = grid.origin_y + (rng.integers(0, grid.height, size=ex.size) + 0.5) * grid.resolution
        centre_x = grid.origin_x + (rng.integers(0, grid.width, size=ey.size) + 0.5) * grid.resolution
        xs = np.concatenate([gx, ex, centre_x])
        ys = np.concatenate([gy, centre_y, ey])
        free = np.array([grid.is_free(x, y) for x, y in zip(xs, ys)])
        xs, ys = xs[free], ys[free]
        bearings = np.concatenate([AXIS_AND_DIAGONAL, rng.uniform(-180.0, 180.0, size=6)])
        ref = assert_same_bytes(grid, xs[:, None], ys[:, None], bearings[None, :], 5.0)
        signed_zero |= bool(np.any((ref == 0.0) & np.signbit(ref)))
    assert signed_zero  # the sign rule was exercised


def test_fast_traversal_matches_reference_on_unit_grid_corners():
    # 45-degree rays through cell corners of a unit grid with a checkerboard
    # of obstacles: whether a corner steps in x or y first decides the hit
    cells = (np.add.outer(np.arange(8), np.arange(8)) % 2 == 1) & (np.arange(8) % 3 == 0)[None, :]
    grid = OccupancyGrid(8, 8, 1.0, 0.0, 0.0, cells)
    pts = [(x, y) for x in range(8) for y in range(8) if grid.is_free(float(x), float(y))]
    xs = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.array([p[1] for p in pts], dtype=np.float64)
    assert_same_bytes(grid, xs[:, None], ys[:, None], AXIS_AND_DIAGONAL[None, :], 20.0)
    assert_same_bytes(grid, xs[:, None] + 0.5, ys[:, None] + 0.5, AXIS_AND_DIAGONAL[None, :], 20.0)


def test_fast_traversal_matches_reference_at_short_and_exact_max_range():
    rng = np.random.default_rng(33)
    grid = random_world(rng)
    poses = [random_free_pose(rng, grid) for _ in range(30)]
    xs = np.repeat([p.x for p in poses], 64)
    ys = np.repeat([p.y for p in poses], 64)
    bearings = rng.uniform(-180.0, 180.0, size=xs.size)
    full = assert_same_bytes(grid, xs, ys, bearings, 50.0)
    # shorter than every wall: all rays capped
    assert np.all(assert_same_bytes(grid, xs, ys, bearings, 0.5 * float(full.min())) < full)
    # exactly a hit distance, and exactly an edge crossing on an empty grid
    for max_range in full[:5]:
        assert_same_bytes(grid, xs, ys, bearings, float(max_range))
    empty = empty_grid(10, 10, 1.0)
    for max_range in (0.5, 1.5, 4.5):
        capped = assert_same_bytes(empty, 5.5, 5.5, AXIS_AND_DIAGONAL, max_range)
        assert capped[0] == max_range


def test_fast_traversal_matches_reference_in_one_cell_world():
    rng = np.random.default_rng(34)
    grid = OccupancyGrid(1, 1, 0.5, -0.25, 0.3, np.zeros((1, 1), bool))
    xs = rng.uniform(-0.25, 0.25, size=200)
    ys = rng.uniform(0.3, 0.8, size=200)
    bearings = np.concatenate([AXIS_AND_DIAGONAL, rng.uniform(-180.0, 180.0, size=190)])
    assert_same_bytes(grid, xs, ys, bearings, 1.0)
    assert_same_bytes(grid, -0.25, 0.3, AXIS_AND_DIAGONAL, 1.0)


def test_fast_traversal_matches_reference_on_cabin_dataset_poses():
    # the first 2000 poses of `generate_dataset` on the bundled cabin
    env = cabin()
    poses = [sample_random_pose(env, derived_rng(101, STREAM_GEN, i)) for i in range(2000)]
    offsets = env.sensor.bearing_offsets()
    xs = np.array([p.x for p in poses])[:, None]
    ys = np.array([p.y for p in poses])[:, None]
    bearings = np.array([p.theta for p in poses])[:, None] + offsets[None, :]
    assert_same_bytes(env.grid, xs, ys, bearings, env.sensor.max_range)
