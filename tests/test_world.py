"""Occupancy grids: parsing, collision queries, exact raycasting."""

import copy
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from neuromap.capture import STREAM_GEN, derived_rng, generate_dataset, raycast, sample_random_pose
from neuromap.inputs import FormatError, InputError
from neuromap.pose import EnvBounds, Pose2D
from neuromap.world import (
    DEFAULT_SENSOR,
    TAIL_RAYS,
    EnvironmentSpec,
    InvalidPoseError,
    OccupancyGrid,
    SensorConfig,
    load_environment,
    ray_distances,
)
from neuromap.worlds import bundled_environment
from worldgen import (
    grid_text,
    marching_ray,
    random_free_pose,
    random_world,
    save_environment,
    with_metric_box,
)


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
    # more rays than numpy can index: refused before any array is sized
    limit = int(np.iinfo(np.intp).max)
    assert SensorConfig(ray_count=limit).ray_count == limit
    for huge in (limit + 1, 10**30):
        with pytest.raises(InputError, match=f"ray_count must be <= {limit}, got {huge}"):
            SensorConfig(ray_count=huge)


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
    # a non-finite origin, and bounds that overflow or round away: EnvBounds refuses them
    for res, origin_x, x_max in (("0.5", "nan", "nan"), ("0.5", "-inf", "-inf"), ("1e308", "0.0", "inf"),
                                 ("0.5", "1e20", r"1e\+20")):
        with pytest.raises(FormatError, match=rf"line 1: bounds x \[.*, {x_max}\], .* must be finite and non-empty$"):
            grid_from_text(f"3 2 {res} {origin_x} 0.0\n...\n...\n")


def test_cabin_scale_dimension_arithmetic():
    # a 7m x 15m interior at 0.05 m/cell is a 140 x 300 grid
    header = "140 300 0.05 0.0 0.0"
    body = "\n".join(["." * 140] * 300)
    grid = grid_from_text(header + "\n" + body + "\n")
    assert (grid.width, grid.height) == (140, 300)
    b = grid.bounds
    assert abs(b.width - 7.0) < 1e-12
    assert abs(b.height - 15.0) < 1e-12


def test_text_round_trip_is_stable():
    rng = np.random.default_rng(21)
    for _ in range(20):
        grid = random_world(rng)
        text = grid_text(grid)
        again = grid_from_text(text)
        assert again == grid
        assert grid_text(again) == text  # second serialisation is byte-identical


def test_load_and_save_environment(tmp_path):
    grid = with_metric_box(empty_grid(4, 4, 0.5), 1.0, 1.0, 1.5, 1.5)
    env = EnvironmentSpec("toy", grid)
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


def test_environment_spec_takes_its_bounds_from_the_grid():
    grid = empty_grid(4, 6, 0.5, ox=1.0, oy=-2.0)
    env = EnvironmentSpec("x", grid)
    assert env.bounds == grid.bounds == EnvBounds(1.0, 3.0, -2.0, 1.0)
    narrow = replace(env, sensor=SensorConfig(fov=90.0, ray_count=4, max_range=5.0))
    assert narrow.bounds == env.bounds
    assert env.bounds is narrow.bounds is grid.bounds  # the grid's, not a copy
    with pytest.raises(TypeError):  # bounds are not passed
        EnvironmentSpec("x", grid, DEFAULT_SENSOR, grid.bounds)
    with pytest.raises(ValueError):
        EnvironmentSpec("", grid)


def test_check_world_refuses_another_world_or_sensor():
    env = EnvironmentSpec("x", empty_grid(4, 4, 0.5))
    env.check_world("dataset", "x", DEFAULT_SENSOR)
    with pytest.raises(InputError, match=r"^dataset belongs to world 'y', not 'x'$"):
        env.check_world("dataset", "y", DEFAULT_SENSOR)
    with pytest.raises(InputError, match="^model belongs to world '', not 'x'$"):
        env.check_world("model", "", DEFAULT_SENSOR)
    other = SensorConfig(fov=90.0, ray_count=4, max_range=5.0)
    for sensor in (other, None):
        with pytest.raises(InputError, match=r"^estimator sensor .* does not match SensorConfig"):
            env.check_world("estimator", "x", sensor)
    # poses on the 2 x 2 m bounds' edges pass; the first one outside is named
    edges = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 180.0], [0.0, 2.0, -90.0], [1.0, 1.0, 0.0]])
    env.check_world("dataset", "x", DEFAULT_SENSOR, edges)
    env.check_world("dataset", "x", DEFAULT_SENSOR, np.zeros((0, 3)))
    for row, x, y in ((3, -1000.0, 1.0), (1, 1.0, 1e6), (0, math.nextafter(2.0, 3.0), 1.0),
                      (2, 1.0, -1e-300), (3, math.nan, 1.0)):
        poses = edges.copy()
        poses[row, :2] = x, y
        poses[row + 1:, :2] = -5.0  # later rows outside too: the first is named
        why = f"^test set row {row} at \\({x!r}, {y!r}\\) lies outside world 'x': x \\[0.0, 2.0\\], y \\[0.0, 2.0\\]$"
        with pytest.raises(InputError, match=why):
            env.check_world("test set", "x", DEFAULT_SENSOR, poses)
    # the world and sensor are checked before the poses
    with pytest.raises(InputError, match="belongs to world"):
        env.check_world("dataset", "y", DEFAULT_SENSOR, poses)


# collision queries -------------------------------------------------------------


def test_is_free_basics():
    grid = grid_from_text("2 1 1.0 0.0 0.0\n#.\n")
    assert not grid.is_free(0.5, 0.5)
    assert grid.is_free(1.5, 0.5)
    assert not grid.is_free(-0.1, 0.5)
    assert not grid.is_free(2.1, 0.5)


def floor_is_free(grid, x, y):
    """The lookup ``is_free`` replaced: floor to a cell index, then range-check
    the index. Exact for any point whose cell coordinate is finite."""
    ix = math.floor((x - grid.origin_x) / grid.resolution)
    iy = math.floor((y - grid.origin_y) / grid.resolution)
    return 0 <= ix < grid.width and 0 <= iy < grid.height and not grid.cells[iy, ix]


def test_is_free_matches_the_floor_lookup():
    rng = np.random.default_rng(40)
    for _ in range(10):
        grid = random_world(rng, max_boxes=8)
        b = grid.bounds
        xs = list(rng.uniform(b.x_min - 1.0, b.x_max + 1.0, 400))
        ys = list(rng.uniform(b.y_min - 1.0, b.y_max + 1.0, 400))
        # every cell edge, the doubles either side of it, and far-out values
        ex = grid.origin_x + np.arange(-1, grid.width + 2) * grid.resolution
        ey = grid.origin_y + np.arange(-1, grid.height + 2) * grid.resolution
        ex = np.concatenate([ex, np.nextafter(ex, -np.inf), np.nextafter(ex, np.inf), [-1e300, 1e300]])
        ey = np.concatenate([ey, np.nextafter(ey, -np.inf), np.nextafter(ey, np.inf), [-1e300, 1e300]])
        points = list(zip(xs, ys)) + [(float(x), float(y)) for x in ex for y in ey[::7]]
        points += [(float(x), float(y)) for x in ex[::7] for y in ey]
        for x, y in points:
            assert grid.is_free(x, y) == floor_is_free(grid, x, y), (x, y)


def test_is_free_refuses_points_whose_cell_index_overflows():
    grid = grid_from_text("2 1 0.05 0.0 0.0\n..\n")
    far = [(1e308, 0.025), (-1e308, 0.025), (0.025, 1e308), (0.025, -1e308),
           (math.inf, 0.025), (0.025, -math.inf), (math.nan, 0.025), (0.025, math.nan)]
    for x, y in far:
        with pytest.raises((OverflowError, ValueError)):  # inf or NaN has no floor
            floor_is_free(grid, x, y)
        assert grid.is_free(x, y) is False, (x, y)


@pytest.mark.parametrize("origin, resolution", [((0.0, 0.0), 1.0), ((-1.7, 2.35), 0.3)])
def test_free_mask_equals_is_free(origin, resolution):
    rng = np.random.default_rng(41)
    cells = rng.random((6, 9)) < 0.4
    grid = OccupancyGrid(9, 6, resolution, *origin, cells)
    # every cell edge, the doubles either side of it (so just outside each
    # bound too), far-out values, inf and NaN
    ex = grid.origin_x + np.arange(-1, grid.width + 2) * grid.resolution
    ey = grid.origin_y + np.arange(-1, grid.height + 2) * grid.resolution
    far = [-1e308, 1e308, -math.inf, math.inf, math.nan]
    ex = np.concatenate([ex, np.nextafter(ex, -np.inf), np.nextafter(ex, np.inf), far])
    ey = np.concatenate([ey, np.nextafter(ey, -np.inf), np.nextafter(ey, np.inf), far])
    b = grid.bounds
    xs = np.concatenate([np.repeat(ex, len(ey)), rng.uniform(b.x_min - 1.0, b.x_max + 1.0, 2000)])
    ys = np.concatenate([np.tile(ey, len(ex)), rng.uniform(b.y_min - 1.0, b.y_max + 1.0, 2000)])
    want = [grid.is_free(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert grid.free_mask(xs, ys).tolist() == want
    assert any(want) and not all(want)


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
    b = grid.bounds
    for _ in range(10_000):
        x = float(rng.uniform(b.x_min - 0.5, b.x_max + 0.5))
        y = float(rng.uniform(b.y_min - 0.5, b.y_max + 0.5))
        assert grid.footprint_free(x, y, 0.0) == grid.is_free(x, y)


def test_footprint_blocked_by_nearby_wall():
    # wall cells occupy x in [3.0, 3.5]; a 0.5 m disc centred 0.4 m away
    # (x = 2.6) penetrates, one centred 0.6 m away does not
    grid = with_metric_box(empty_grid(12, 12, 0.5), 3.0, 0.0, 3.5, 6.0)
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
    for radius in (-0.1, math.nan):
        with pytest.raises(ValueError, match=f"^radius must be >= 0, got {radius!r}$"):
            grid.footprint_free(5.0, 5.0, radius)


def footprint_oracle(grid, x, y, radius):
    """Exhaustive disc test: every cell rectangle vs the disc, plus bounds."""
    if not grid.is_free(x, y):
        return False
    if radius == 0.0:
        return True
    b = grid.bounds
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
        b = grid.bounds
        for _ in range(40):
            x = float(rng.uniform(b.x_min, b.x_max))
            y = float(rng.uniform(b.y_min, b.y_max))
            r = float(rng.uniform(0.0, 1.0))
            assert grid.footprint_free(x, y, r) == footprint_oracle(grid, x, y, r)


def test_with_metric_box_cell_coverage():
    grid = empty_grid(4, 4, 0.5)
    boxed = with_metric_box(grid, 0.5, 0.5, 1.0, 1.0)
    # only the cell [0.5, 1.0) x [0.5, 1.0) overlaps the box interior
    assert int(boxed.cells.sum()) == 1
    assert bool(boxed.cells[1, 1])
    partial = with_metric_box(grid, 0.6, 0.6, 0.9, 0.9)
    assert int(partial.cells.sum()) == 1  # strictly interior box still fills its cell
    spanning = with_metric_box(grid, 0.4, 0.4, 1.1, 1.1)
    assert int(spanning.cells.sum()) == 9


def test_grid_is_immutable():
    grid = empty_grid(2, 2, 1.0)
    with pytest.raises(AttributeError):
        grid.width = 5
    with pytest.raises(ValueError):
        grid.cells[0, 0] = True
    for twin in (copy.copy(grid), copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
        assert twin == grid and twin.bounds == grid.bounds
        with pytest.raises(ValueError):
            twin.cells[0, 0] = True


# raycasting --------------------------------------------------------------------


def scan(grid, pose, sensor=DEFAULT_SENSOR):
    """The scan of one pose in ``grid`` through ``sensor``: a one-row
    ``raycast``, as navigate calls it."""
    return raycast(EnvironmentSpec("test", grid, sensor), np.array([[pose.x, pose.y, pose.theta]]))[0]


def test_boundary_hit_analytic():
    # empty 10x10 m world, robot at the centre facing +x: the centre ray
    # crosses 5 m of free space and stops at the wall; 5/20 = 0.25
    grid = empty_grid(10, 10, 1.0)
    sensor = SensorConfig(fov=120.0, ray_count=97, max_range=20.0)
    ranges = scan(grid, Pose2D(5.0, 5.0, 0.0), sensor)
    assert ranges.shape == (97,) and ranges[48] == 0.25
    # facing the far corner: distance 5*sqrt(2)
    ranges = scan(grid, Pose2D(5.0, 5.0, 45.0), sensor)
    assert abs(ranges[48] - 5.0 * math.sqrt(2.0) / 20.0) < 1e-12


def test_wall_hit_analytic():
    # wall at x in [7.0, 7.5), robot at x = 5: 2 m to the wall face
    grid = with_metric_box(empty_grid(20, 6, 0.5), 7.0, 0.0, 7.5, 3.0)
    d = ray_distances(grid, np.array([5.0]), np.array([1.5]), np.array([0.0]), 10.0)
    assert d[0] == 2.0
    ranges = scan(grid, Pose2D(5.0, 1.5, 0.0), SensorConfig(fov=360.0, ray_count=4, max_range=10.0))
    assert ranges[2] == 0.2  # offsets -180,-90,0,90: index 2 faces +x


def test_no_hit_within_range_reports_one():
    grid = empty_grid(100, 100, 0.5)
    ranges = scan(grid, Pose2D(25.0, 25.0, 13.0), SensorConfig(fov=120.0, ray_count=8, max_range=2.0))
    assert np.all(ranges == 1.0)


def test_raycast_rejects_bad_poses():
    grid = with_metric_box(empty_grid(4, 4, 1.0), 1.0, 1.0, 2.0, 2.0)
    with pytest.raises(InvalidPoseError):
        scan(grid, Pose2D(1.5, 1.5, 0.0))
    with pytest.raises(InvalidPoseError):
        scan(grid, Pose2D(-1.0, 1.5, 0.0))
    with pytest.raises(InvalidPoseError):
        ray_distances(grid, np.array([1.5]), np.array([1.5]), np.array([0.0]), 5.0)


def test_raycast_deterministic():
    rng = np.random.default_rng(24)
    grid = random_world(rng)
    pose = random_free_pose(rng, grid)
    a = scan(grid, pose)
    b = scan(grid, pose)
    assert a.tobytes() == b.tobytes()


def test_obstacle_insertion_never_increases_range():
    rng = np.random.default_rng(25)
    checked = 0
    while checked < 60:
        grid = random_world(rng, max_boxes=3)
        pose = random_free_pose(rng, grid)
        b = grid.bounds
        bw, bh = rng.uniform(0.2, 1.2, size=2)
        x0 = float(rng.uniform(b.x_min, b.x_max - bw))
        y0 = float(rng.uniform(b.y_min, b.y_max - bh))
        denser = with_metric_box(grid, x0, y0, x0 + float(bw), y0 + float(bh))
        if not denser.is_free(pose.x, pose.y):
            continue
        r_before = scan(grid, pose)
        r_after = scan(denser, pose)
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
    grid = with_metric_box(empty_grid(6, 2, 1.0), 3.0, 0.0, 4.0, 1.0)
    # y = 1.0 is the edge between the occupied row (below) and free row (above)
    d = ray_distances(grid, np.array([0.5]), np.array([1.0]), np.array([0.0]), 10.0)
    assert d[0] == 5.5  # passes over the box, hits the east wall
    d = ray_distances(grid, np.array([0.5]), np.array([0.5]), np.array([0.0]), 10.0)
    assert d[0] == 2.5  # inside the lower row, hits the box


def test_batch_matches_single_rays():
    # the batch starts in the bulk phase; each single ray runs in the tail
    rng = np.random.default_rng(27)
    grid = random_world(rng)
    n = TAIL_RAYS + 200
    poses = [random_free_pose(rng, grid) for _ in range(n)]
    bearings = rng.uniform(-180.0, 180.0, size=n)
    xs = np.array([p.x for p in poses])
    ys = np.array([p.y for p in poses])
    batch = ray_distances(grid, xs, ys, bearings, 12.0)
    for i in range(n):
        single = ray_distances(grid, xs[i : i + 1], ys[i : i + 1], bearings[i : i + 1], 12.0)
        assert single.tobytes() == batch[i : i + 1].tobytes()


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
    env = bundled_environment("cabin")
    poses = [sample_random_pose(env, derived_rng(101, STREAM_GEN, i)) for i in range(2000)]
    offsets = env.sensor.bearing_offsets()
    xs = np.array([p.x for p in poses])[:, None]
    ys = np.array([p.y for p in poses])[:, None]
    bearings = np.array([p.theta for p in poses])[:, None] + offsets[None, :]
    assert_same_bytes(env.grid, xs, ys, bearings, env.sensor.max_range)


def test_one_batched_call_holds_only_the_traversal_state():
    # One gen chunk: the first 512 cabin dataset poses x 96 rays. The set-up
    # arrays are freed before the first step, so the call peaks at ~106 bytes
    # per ray; with them alive through the loop it peaked at 223.
    env = bundled_environment("cabin")
    poses = generate_dataset(env, 512, 101).poses_matrix()
    k = env.sensor.ray_count
    xs, ys = np.repeat(poses[:, 0], k), np.repeat(poses[:, 1], k)
    bearings = (poses[:, 2, None] + env.sensor.bearing_offsets()[None, :]).ravel()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ray_distances(env.grid, xs, ys, bearings, env.sensor.max_range)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 128 * xs.size


def test_one_single_pose_call_stays_small():
    # a navigate estimate: one pose x 96 rays, all in the tail phase
    env = bundled_environment("apartment")
    pose = sample_random_pose(env, derived_rng(101, STREAM_GEN, 0))
    bearings = pose.theta + env.sensor.bearing_offsets()
    xs, ys = np.full(bearings.size, pose.x), np.full(bearings.size, pose.y)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ray_distances(env.grid, xs, ys, bearings, env.sensor.max_range)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# the two traversal phases: bulk (one cell per pass) and tail (many) -----------


@pytest.mark.parametrize("n", [1, TAIL_RAYS - 1, TAIL_RAYS, TAIL_RAYS + 1])
def test_fast_traversal_matches_reference_across_the_phase_hand_over(n):
    # up to TAIL_RAYS rays run in the tail from the first step; one more
    # starts in the bulk phase and hands over at its first compaction
    env = bundled_environment("cabin")
    poses = [sample_random_pose(env, derived_rng(11, STREAM_GEN, i)) for i in range(n // 96 + 1)]
    offsets = env.sensor.bearing_offsets()
    xs = np.repeat([p.x for p in poses], offsets.size)[:n]
    ys = np.repeat([p.y for p in poses], offsets.size)[:n]
    bearings = (np.array([p.theta for p in poses])[:, None] + offsets[None, :]).ravel()[:n]
    assert_same_bytes(env.grid, xs, ys, bearings, env.sensor.max_range)


@pytest.mark.parametrize("rays", [1, 96, TAIL_RAYS])
def test_fast_traversal_matches_reference_on_long_rays_across_passes(rays):
    # A ray along a one-row empty grid of width w stops at step w, entering
    # the ring. Every width up to 140 puts the stop on every step of the
    # first passes, so on the last step of one pass and the first of the
    # next whatever cells a pass takes; off-axis rays step both axes.
    bearings = np.resize(np.array([0.0, 180.0, 0.25, 179.75, -0.4]), rays)
    for w in range(1, 141):
        grid = empty_grid(w, 1, 1.0)
        xs = np.where(np.cos(np.radians(bearings)) > 0, 0.5, w - 0.5)
        assert_same_bytes(grid, xs, 0.5, bearings, 1000.0)
    # a wide open grid: long diagonal-ish rays, many passes each
    grid = empty_grid(300, 200, 0.05)
    rng = np.random.default_rng(35)
    xs, ys = rng.uniform(0.0, 15.0, rays), rng.uniform(0.0, 10.0, rays)
    assert_same_bytes(grid, xs, ys, rng.uniform(-180.0, 180.0, rays), 100.0)


def test_fast_traversal_matches_reference_on_axis_rays_at_exact_max_range():
    # axis-aligned rays (an infinite crossing step on one axis) capped
    # exactly at a crossing, in the tail: crossings from a cell centre fall
    # at 0.5, 1.5, ... m, on both sides of a pass boundary
    grid = empty_grid(200, 200, 1.0)
    xs = np.array([100.5, 100.5, 100.0, 100.5])
    ys = np.array([100.5, 100.0, 100.5, 100.5])
    for max_range in (0.5, 7.5, 8.5, 31.5, 63.5, 64.5, 65.5, 99.5):
        for bearing in (0.0, 90.0, 180.0, 270.0, -90.0):
            capped = assert_same_bytes(grid, xs, ys, np.full(4, bearing), max_range)
            assert capped[0] == max_range


def test_fast_traversal_matches_reference_from_the_world_corners():
    # Rays from the corner cells heading outward stop within a step or two,
    # and the rest of a tail pass's cells run off either end of _padded.
    for w, h in ((1, 1), (3, 2), (40, 30)):
        grid = empty_grid(w, h, 0.5, ox=-1.0, oy=2.0)
        corners = [(0, 0, 225.0), (w - 1, 0, 315.0), (0, h - 1, 135.0), (w - 1, h - 1, 45.0)]
        for ix, iy, heading in corners:
            x = grid.origin_x + (ix + 0.5) * grid.resolution
            y = grid.origin_y + (iy + 0.5) * grid.resolution
            bearings = heading + np.linspace(-44.0, 44.0, 9)
            assert_same_bytes(grid, x, y, bearings, 100.0)
            # from the cell's lower-left corner, on two cell edges at once
            x0, y0 = grid.origin_x + ix * grid.resolution, grid.origin_y + iy * grid.resolution
            assert_same_bytes(grid, x0, y0, bearings, 100.0)


@pytest.mark.parametrize("world", ["apartment", "cabin"])
def test_fast_traversal_matches_reference_one_pose_at_a_time(world):
    # the navigate regime: one pose x 96 rays per call
    env = bundled_environment(world)
    offsets = env.sensor.bearing_offsets()
    for i in range(300):
        pose = sample_random_pose(env, derived_rng(17, STREAM_GEN, i))
        bearings = pose.theta + offsets
        assert_same_bytes(env.grid, pose.x, pose.y, bearings, env.sensor.max_range)
