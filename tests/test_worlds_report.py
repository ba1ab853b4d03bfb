"""Bundled environments and the report renderers."""

import json
import math
import os
import tomllib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import neuromap
from neuromap.navigate import RouteTrace, TraceTick, load_waypoints
from neuromap.pose import Pose2D
from neuromap.report import (
    DOT_ROWS,
    MARKER_COLOR,
    SCALE,
    CoverageSummary,
    _fmt,
    _grid_rects,
    _to_px,
    coverage_summary,
    metrics_table,
    save_json,
    svg_coverage,
    svg_route,
)
from neuromap.training import Metrics
from neuromap.world import (
    DEFAULT_SENSOR,
    EnvironmentSpec,
    OccupancyGrid,
    SensorConfig,
)
from neuromap.worlds import (
    ROUTES,
    SENSORS,
    bundled_environment,
    data_path,
    route_file,
    world_file,
    world_sensor,
)
from worldgen import (
    APARTMENT_LOOP,
    APARTMENT_START,
    apartment,
    cabin,
    near_obstacle_fraction,
    save_environment,
    with_metric_box,
)

# --- bundled worlds ----------------------------------------------------------------


def test_cabin_dimensions_and_sensor():
    env = bundled_environment("cabin")
    b = env.bounds
    assert (b.x_max - b.x_min, b.y_max - b.y_min) == (7.0, 15.0)
    assert env.sensor == SensorConfig(fov=360.0, ray_count=96, max_range=16.0)
    assert env.name == "cabin"


def test_apartment_dimensions():
    env = bundled_environment("apartment")
    b = env.bounds
    assert (b.x_max - b.x_min, b.y_max - b.y_min) == (8.0, 8.0)
    assert env.name == "apartment"


def test_bundled_lookup_and_unknown_name():
    assert bundled_environment("cabin").name == "cabin"
    with pytest.raises(KeyError, match="unknown bundled"):
        bundled_environment("castle")


def test_shipped_grid_files_match_builders(tmp_path):
    # the shipped files are generated from the builders; a drifted copy
    # would silently invalidate every calibrated threshold
    for name, env in (("cabin", cabin()), ("apartment", apartment())):
        save_environment(env, tmp_path / f"{name}.grid")
        rebuilt = (tmp_path / f"{name}.grid").read_bytes()
        assert rebuilt == data_path(f"{name}.grid").read_bytes()


def test_shipped_waypoints_match_constant():
    assert tuple(load_waypoints(str(data_path("apartment_loop.waypoints")))) == APARTMENT_LOOP


def test_bundled_worlds_load_as_built():
    # grid, bounds, name and sensor: loading the file is the builder's world
    assert bundled_environment("cabin") == cabin()
    assert bundled_environment("apartment") == apartment()


def test_world_sensor_is_the_shipped_files_own(tmp_path):
    assert world_sensor(world_file("cabin")) == SENSORS["cabin"]
    assert world_sensor(world_file("apartment")) == SENSORS["apartment"]
    assert world_sensor(os.path.relpath(world_file("cabin"))) == SENSORS["cabin"]
    # a file of the same name elsewhere is a user's world, with the default sensor
    save_environment(bundled_environment("cabin"), tmp_path / "cabin.grid")
    assert world_sensor(tmp_path / "cabin.grid") == DEFAULT_SENSOR
    assert world_file("cabin.grid") == "cabin.grid" and route_file("cabin") == "cabin"


def test_every_bundled_name_is_a_packaged_file():
    # production reads neuromap/data; a file no package-data glob matches
    # would be missing from an installed package
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    globs = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]["neuromap"]
    package = Path(neuromap.__file__).parent
    files = [world_file(name) for name in SENSORS] + [route_file(name) for name in ROUTES]
    for file in map(Path, files):
        assert file.is_file(), file
        assert any(file.relative_to(package).match(glob) for glob in globs), (file, globs)


def test_apartment_loop_is_drivable():
    # every waypoint and the start pose leave room for the 0.5 m footprint
    env = bundled_environment("apartment")
    assert env.grid.footprint_free(APARTMENT_START.x, APARTMENT_START.y, 0.5)
    for wx, wy in load_waypoints(route_file("apartment_loop")):
        assert env.grid.footprint_free(wx, wy, 0.5), (wx, wy)


def test_loop_closes_at_start():
    route = load_waypoints(route_file("apartment_loop"))
    assert route[-1] == (APARTMENT_START.x, APARTMENT_START.y)


# --- SVG renderers -----------------------------------------------------------------


NO_POSITIONS = np.zeros((0, 3))


def tiny_env():
    cells = np.zeros((6, 8), dtype=bool)
    grid = OccupancyGrid(8, 6, 0.5, 0.0, 0.0, cells)
    grid = with_metric_box(grid, 1.0, 1.0, 2.0, 2.0)
    return EnvironmentSpec("tiny", grid, SensorConfig(fov=90.0, ray_count=4, max_range=5.0))


def test_coverage_svg_marker_per_sample():
    env = tiny_env()
    poses = np.array([(0.5, 0.5, 0.0), (3.0, 2.0, 10.0), (2.5, 0.8, -90.0)])
    text = svg_coverage(env, poses)
    assert text.count('class="sample"') == 3
    assert text.count('fill="red"') == 3
    assert '<svg xmlns="http://www.w3.org/2000/svg"' in text


def test_coverage_svg_empty_is_grid_only():
    text = svg_coverage(tiny_env(), NO_POSITIONS)
    assert 'class="sample"' not in text
    assert 'class="cell"' in text  # the map itself is still drawn


def test_origin_maps_to_bottom_left():
    # world (x_min, y_min) must land at the bottom-left of the viewport:
    # x at the left margin, y at height - margin (SVG y axis points down)
    env = tiny_env()
    text = svg_coverage(env, np.array([(0.0, 0.0, 0.0)]))
    height = 6 * 0.5 * 50.0 + 20.0
    assert f'cx="10.00" cy="{height - 10.0:.2f}"' in text


def test_grid_rects_merge_runs():
    # the 1 m box covers a 2x2 cell block: one merged rect per row
    text = svg_coverage(tiny_env(), NO_POSITIONS)
    assert text.count('class="cell"') == 2


def grid_rects_loop(env):
    """Reference rects: walks every cell of each row in turn, as the renderer
    once did; _grid_rects must give the same rects in the same order."""
    grid = env.grid
    res = grid.resolution
    rects = []
    for iy in range(grid.height):
        occ_row = grid.cells[iy]
        ix = 0
        while ix < grid.width:
            if not occ_row[ix]:
                ix += 1
                continue
            run = ix
            while run < grid.width and occ_row[run]:
                run += 1
            x0 = grid.origin_x + ix * res
            y1 = grid.origin_y + (iy + 1) * res
            px, py = _to_px(env.bounds, x0, y1)
            rects.append(
                f'<rect class="cell" x="{_fmt(px)}" y="{_fmt(py)}" '
                f'width="{_fmt((run - ix) * res * SCALE)}" '
                f'height="{_fmt(res * SCALE)}" fill="#444444"/>'
            )
            ix = run
    return rects


def _grid_env(cells, res=0.5, origin=(0.0, 0.0)):
    h, w = cells.shape
    grid = OccupancyGrid(w, h, res, *origin, cells)
    return EnvironmentSpec("g", grid, SensorConfig(fov=90, ray_count=4, max_range=5))


@pytest.mark.parametrize("cells", [
    np.zeros((5, 7), dtype=bool),
    np.ones((5, 7), dtype=bool),
    np.zeros((1, 1), dtype=bool),
    np.ones((1, 1), dtype=bool),
    np.array([[1, 0, 0, 1], [1, 1, 1, 1], [0, 1, 1, 0], [1, 0, 1, 0]], dtype=bool),
], ids=["all-free", "all-occupied", "1x1-free", "1x1-occupied", "runs-at-both-edges"])
def test_grid_rects_match_the_cell_loop(cells):
    env = _grid_env(cells)
    assert _grid_rects(env) == grid_rects_loop(env)


def test_grid_rects_match_the_cell_loop_on_random_and_bundled_grids():
    rng = np.random.default_rng(29)
    envs = [bundled_environment("cabin"), bundled_environment("apartment")]
    for _ in range(40):
        h, w = (int(v) for v in rng.integers(1, 30, 2))
        res = float(rng.choice([0.05, 0.1, 0.25, 0.3, 1.0]))
        cells = rng.random((h, w)) < rng.uniform(0.0, 1.0)
        envs.append(_grid_env(cells, res, tuple(rng.uniform(-5.0, 5.0, 2))))
    for env in envs:
        assert _grid_rects(env) == grid_rects_loop(env), env.grid


def test_route_svg_colours_and_counts():
    env = tiny_env()
    ticks = []
    for i in range(4):
        true = Pose2D(0.5 + 0.5 * i, 0.5, 0.0)
        est = Pose2D(0.5 + 0.5 * i, 0.6, 0.0)
        ticks.append(TraceTick(i, 0.1 * i, true, est, 0, "move"))
    trace = RouteTrace(tuple(ticks))
    text = svg_route(env, trace, [(3.0, 2.0), (0.5, 2.5)])
    assert text.count('class="truth"') == 1 and 'stroke="green"' in text
    assert text.count('class="estimate"') == 1 and 'stroke="blue"' in text
    assert text.count('class="waypoint"') == 2
    assert text.count('fill="red"') == 2


def test_route_svg_skips_missing_estimates():
    env = tiny_env()
    t0 = TraceTick(0, 0.0, Pose2D(0.5, 0.5, 0.0), None, 0, "abort")
    text = svg_route(env, RouteTrace((t0,)), [])
    assert 'class="estimate"' not in text
    assert 'class="truth"' not in text  # a single point draws no polyline


@pytest.mark.parametrize("n", [0, 1, DOT_ROWS, DOT_ROWS + 1])
def test_coverage_svg_file_is_its_text_with_a_dot_per_position(tmp_path, n):
    env = bundled_environment("cabin")
    b = env.bounds
    rng = np.random.default_rng(n)
    positions = np.column_stack([rng.uniform(b.x_min, b.x_max, n), rng.uniform(b.y_min, b.y_max, n)])
    positions[:1] = (b.x_min, -0.0)  # a corner, and a signed zero
    text = svg_coverage(env, positions, comments=("seed: 1",))
    assert svg_coverage(env, positions, tmp_path / "c.svg", comments=("seed: 1",)) is None
    assert (tmp_path / "c.svg").read_text() == text
    dots = []  # one f-string per dot, as the writer once formatted them
    for x, y in positions.tolist():
        px, py = _to_px(b, x, y)
        dots.append(f'<circle class="sample" cx="{_fmt(px)}" cy="{_fmt(py)}" r="1.5" '
                    f'fill="{MARKER_COLOR}"/>\n')
    assert text.endswith("".join(dots) + "</svg>\n")
    assert text.count("<circle") == n


def test_svg_comments_embedded(tmp_path):
    env = tiny_env()
    out = tmp_path / "cov.svg"
    svg_coverage(env, NO_POSITIONS, out, comments=("invocation: neuromap gen", "seed: 3"))
    text = out.read_text()
    assert "<!-- invocation: neuromap gen -->" in text
    assert "<!-- seed: 3 -->" in text


# --- coverage statistics -----------------------------------------------------------


def test_coverage_summary_counts_hand_case():
    # 4x3 m empty room, 1 m coarse cells: 12 free cells; 3 samples in 2
    # distinct cells
    cells = np.zeros((6, 8), dtype=bool)
    grid = OccupancyGrid(8, 6, 0.5, 0.0, 0.0, cells)
    env = EnvironmentSpec("room", grid, SensorConfig(fov=90, ray_count=4, max_range=5))
    poses = np.array([(0.2, 0.2, 0.0), (0.8, 0.3, 0.0), (3.5, 2.5, 0.0)])
    cov = coverage_summary(env, poses, cell_m=1.0)
    assert cov.free_cells == 12
    assert cov.covered_cells == 2
    assert cov.fraction == pytest.approx(2 / 12)


def test_coverage_summary_excludes_fully_occupied_cells():
    env = tiny_env()  # 4x3 m with a 1 m box occupying one 1 m coarse cell
    cov = coverage_summary(env, NO_POSITIONS, cell_m=1.0)
    assert cov.free_cells == 11
    assert cov.covered_cells == 0 and cov.fraction == 0.0


def coverage_summary_loop(env, positions, cell_m=0.5):
    """Reference coverage: bins every free fine cell and every position one
    at a time with int(); coverage_summary must give the same summary."""
    b, grid = env.bounds, env.grid
    nx = max(1, math.ceil((b.x_max - b.x_min) / cell_m))
    ny = max(1, math.ceil((b.y_max - b.y_min) / cell_m))

    def bin_of(x, y):
        ix = min(int((x - b.x_min) / cell_m), nx - 1)
        iy = min(int((y - b.y_min) / cell_m), ny - 1)
        return iy * nx + ix

    free = np.zeros(nx * ny, dtype=bool)
    for iy in range(grid.height):
        ys = grid.origin_y + (iy + 0.5) * grid.resolution
        for ix in np.flatnonzero(~grid.cells[iy]):
            free[bin_of(grid.origin_x + (ix + 0.5) * grid.resolution, ys)] = True
    covered = np.zeros(nx * ny, dtype=bool)
    for x, y in positions[:, :2].tolist():
        covered[bin_of(x, y)] = True
    covered &= free
    return CoverageSummary(cell_m, int(free.sum()), int(covered.sum()))


def _positions(env, rng, n):
    """Uniform positions plus the bounds' corners and coarse-cell edges."""
    b = env.bounds
    xy = rng.uniform((b.x_min, b.y_min), (b.x_max, b.y_max), (n, 2))
    edges = [(b.x_min, b.y_min), (b.x_max, b.y_max), (b.x_min, b.y_max), (b.x_max, b.y_min)]
    edges += [(b.x_min + k * 0.5, b.y_min + k * 0.7) for k in range(8)]
    inside = [(x, y) for x, y in edges if b.x_min <= x <= b.x_max and b.y_min <= y <= b.y_max]
    xy = np.vstack([xy, inside])
    return np.column_stack([xy, np.zeros(len(xy))])


@pytest.mark.parametrize("cell_m", [0.3, 0.37, 0.5, 0.7, 1.0, 2.3])
def test_coverage_summary_matches_the_loop_on_bundled_worlds(cell_m):
    rng = np.random.default_rng(int(cell_m * 100))
    for env in (bundled_environment("cabin"), bundled_environment("apartment")):
        for positions in (NO_POSITIONS, _positions(env, rng, 3000)):
            want = coverage_summary_loop(env, positions, cell_m)
            assert coverage_summary(env, positions, cell_m) == want


def test_coverage_summary_matches_the_loop_on_random_grids():
    rng = np.random.default_rng(23)
    for trial in range(30):
        w, h = rng.integers(1, 40, 2)
        res = float(rng.choice([0.05, 0.1, 0.25, 0.3, 1.0]))
        cells = rng.random((h, w)) < rng.uniform(0.0, 1.0)
        origin = rng.uniform(-5.0, 5.0, 2)
        grid = OccupancyGrid(int(w), int(h), res, float(origin[0]), float(origin[1]), cells)
        env = EnvironmentSpec("r", grid, SensorConfig(fov=90, ray_count=4, max_range=5))
        cell_m = float(rng.uniform(0.05, 3.0))
        positions = _positions(env, rng, 200)
        want = coverage_summary_loop(env, positions, cell_m)
        assert coverage_summary(env, positions, cell_m) == want, trial


def test_coverage_summary_validation():
    with pytest.raises(ValueError):
        CoverageSummary(0.0, 10, 5)
    with pytest.raises(ValueError):
        CoverageSummary(0.5, 10, 11)


def test_near_obstacle_fraction():
    env = tiny_env()
    center = (3.0, 2.0, 0.0)       # > 0.3 m from the box and walls
    hugging = (2.2, 1.5, 0.0)      # 0.2 m from the box face
    assert near_obstacle_fraction(env, np.array([center, hugging]), clearance_m=0.3) == 0.5
    with pytest.raises(ValueError):
        near_obstacle_fraction(env, NO_POSITIONS)


# --- metrics serialisation ---------------------------------------------------------


def sample_metrics():
    errs = np.array([[0.1, 1.0], [0.3, 2.0], [0.2, 6.0]])
    return Metrics(
        mean_pos_err=0.2, mean_theta_err=3.0, median_pos_err=0.2,
        median_theta_err=2.0, per_sample_errors=errs,
    )


def test_metrics_dict_round_trip(tmp_path):
    m = sample_metrics()
    save_json(tmp_path / "metrics.json", {"knn": asdict(m)}, provenance={})
    back = Metrics(**json.loads((tmp_path / "metrics.json").read_text())["knn"])
    assert back.mean_pos_err == m.mean_pos_err
    assert back.median_theta_err == m.median_theta_err
    assert np.array_equal(back.per_sample_errors, m.per_sample_errors)


def test_metrics_file_round_trip(tmp_path):
    path = tmp_path / "metrics.json"
    save_json(path, {"metrics": {"knn": asdict(sample_metrics())}}, provenance={"seed": 1})
    doc = json.loads(path.read_text())
    assert set(doc["metrics"]) == {"knn"}
    assert doc["metrics"]["knn"] == {
        "mean_pos_err": 0.2, "mean_theta_err": 3.0, "median_pos_err": 0.2,
        "median_theta_err": 2.0, "per_sample_errors": [[0.1, 1.0], [0.3, 2.0], [0.2, 6.0]],
    }
    assert doc["provenance"] == {"seed": 1}
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_report_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "report.json"
    save_json(path, {"d": (math.inf, -math.inf, math.nan, 1.5)}, provenance={"seed": 2})
    assert json.loads(path.read_text()) == {"d": [None, None, None, 1.5], "provenance": {"seed": 2}}


def test_metrics_table_renders_one_row_per_estimator():
    m = sample_metrics()
    table = metrics_table({"knn": m, "oracle": m}, comments=("run 1",))
    assert "# run 1" in table
    assert "knn" in table and "oracle" in table
    assert "0.2000" in table and "3.000" in table
    lines = [ln for ln in table.splitlines() if ln and not ln.startswith("#")]
    assert len(lines) == 4  # header, rule, two rows


def test_metrics_table_zero_case():
    errs = np.zeros((5, 2))
    m = Metrics(0.0, 0.0, 0.0, 0.0, errs)
    table = metrics_table({"oracle": m})
    assert "0.0000" in table
