"""Bundled benchmark environments: files that ship with the package.

Two hand-designed floor plans ship as grid files under ``neuromap/data``: a
7 m x 15 m three-room cabin used for estimator benchmarks, and an 8 m x 8 m
single-room apartment with a central island, used for navigation runs. The
cabin is deliberately asymmetric so that range signatures differ between its
rooms: the wall between the south and middle rooms has its doorway on the
east side, the wall between the middle and north rooms has its doorway on
the west side, and a partial partition and furniture boxes differ per room.
A notch on the island's east side breaks the apartment's symmetry. The
apartment's route ``apartment_loop`` ships as a waypoint file: a
counter-clockwise tour around the island whose last waypoint closes the loop
at the start pose (1.5, 1.5).

A bundled name is just a shipped file, and this module is the only one that
maps a name to its file and a bundled world to its sensor.

The files are frozen: estimator accuracy thresholds in the test suite were
calibrated against exactly these floor plans, so editing a file silently
invalidates those numbers. The tests pin each file to the box layout and
route it was generated from. Add new environments instead of changing these.
"""

from importlib import resources
from pathlib import Path

from .world import DEFAULT_SENSOR, EnvironmentSpec, SensorConfig, load_environment

CABIN_SENSOR = SensorConfig(fov=360.0, ray_count=96, max_range=16.0)
APARTMENT_SENSOR = SensorConfig(fov=360.0, ray_count=96, max_range=12.0)

# bundled worlds (shipped as NAME.grid) with their sensors, and bundled
# routes (shipped as NAME.waypoints)
SENSORS = {"cabin": CABIN_SENSOR, "apartment": APARTMENT_SENSOR}
ROUTES = ("apartment_loop",)


def data_path(filename: str):
    """Path to a shipped data file (grid or waypoint list)."""
    return resources.files("neuromap").joinpath("data", filename)


def world_file(name: str) -> str:
    """The shipped grid file of bundled world ``name``; any other name is a
    path and comes back unchanged."""
    return str(data_path(f"{name}.grid")) if name in SENSORS else name


def route_file(name: str) -> str:
    """The shipped waypoint file of bundled route ``name``; any other name is
    a path and comes back unchanged."""
    return str(data_path(f"{name}.waypoints")) if name in ROUTES else name


def world_sensor(path) -> SensorConfig:
    """The sensor of the world in grid file ``path``: a shipped world's own,
    however the path to it is spelled; DEFAULT_SENSOR for any other file."""
    name = Path(path).stem
    if name in SENSORS and Path(path).resolve() == Path(world_file(name)).resolve():
        return SENSORS[name]
    return DEFAULT_SENSOR


def bundled_environment(name: str) -> EnvironmentSpec:
    """Load a bundled environment by name ('cabin' or 'apartment')."""
    if name not in SENSORS:
        raise KeyError(f"unknown bundled environment {name!r}; have {sorted(SENSORS)}")
    return load_environment(data_path(f"{name}.grid"), SENSORS[name])
