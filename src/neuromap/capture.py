"""Dataset capture: uniform rejection sampling and random-walk traversal.

Two protocols produce pose-labelled observation datasets. The first draws
poses uniformly over the environment bounds and rejects collisions, giving
even coverage of free space. The second walks a simulated robot through the
world and captures a sample whenever it has moved or turned enough since the
last capture, giving trajectory-shaped coverage that thins out near
obstacles (the walk keeps a clearance radius).

All randomness flows through numpy's PCG64 seeded from explicit
(seed, stream, index) tuples, so any sample index can be regenerated in
isolation and sharded generation equals serial generation bit for bit.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pose import Pose2D, ang_diff, wrap_angle
from .world import EnvironmentSpec, Observation, SensorConfig, ray_distances

REJECTION_BUDGET = 1_000_000

# Random-walk policy knobs. At each step the walker keeps a target heading,
# redrawn with probability TURN_PROB, turns toward it by at most MAX_TURN_DEG
# and then tries to advance; WEDGE_LIMIT consecutive blocked advances end the
# walk early.
TURN_PROB = 0.2
MAX_TURN_DEG = 15.0
WEDGE_LIMIT = 100

# stream tags for per-purpose RNG derivation
STREAM_GEN = 0
STREAM_WALK = 1
STREAM_SPLIT = 2

DATASET_MAGIC = "#neuromap-dataset v1"


class InfeasibleEnvironmentError(RuntimeError):
    """The environment has no room for the requested sampling."""


class DatasetFormatError(ValueError):
    """A dataset file violates the documented format."""


def derived_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """An independent PCG64 generator for (seed, stream, index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream, index))))


@dataclass(frozen=True)
class Sample:
    """One captured observation with its ground-truth pose."""

    id: int
    observation: Observation
    pose: Pose2D

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"sample id must be >= 0, got {self.id}")


class Dataset:
    """An ordered set of samples from one environment and sensor.

    Sample ids are dense 0..n-1 (so a sample's id is its row index) and
    every observation has the sensor's ray count. ``ranges_matrix`` and
    ``poses_matrix`` expose the data as arrays for estimators, and
    ``range_norms_sq`` the squared Euclidean norm of each range row for the
    k-NN screen; all three are cached after the first call.
    """

    def __init__(self, env_name: str, sensor: SensorConfig, seed: int, samples) -> None:
        if not env_name:
            raise ValueError("env_name must be non-empty")
        samples = tuple(samples)
        for i, s in enumerate(samples):
            if s.id != i:
                raise ValueError(f"sample ids must be dense 0..n-1; index {i} has id {s.id}")
            if len(s.observation) != sensor.ray_count:
                raise ValueError(
                    f"sample {i} has {len(s.observation)} ranges, sensor expects {sensor.ray_count}"
                )
        self.env_name = env_name
        self.sensor = sensor
        self.seed = int(seed)
        self.samples = samples
        self._ranges = None
        self._poses = None
        self._norms_sq = None

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i: int) -> Sample:
        return self.samples[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.env_name == other.env_name
            and self.sensor == other.sensor
            and self.seed == other.seed
            and len(self) == len(other)
            and all(
                a.pose == b.pose and np.array_equal(a.observation.ranges, b.observation.ranges)
                for a, b in zip(self.samples, other.samples)
            )
        )

    def ranges_matrix(self) -> np.ndarray:
        """(n, ray_count) float64, row i = sample i's normalised ranges."""
        if self._ranges is None:
            if len(self.samples) == 0:
                self._ranges = np.zeros((0, self.sensor.ray_count))
            else:
                self._ranges = np.stack([s.observation.ranges for s in self.samples])
            self._ranges.flags.writeable = False
        return self._ranges

    def range_norms_sq(self) -> np.ndarray:
        """(n,) float64, entry i = ||ranges_matrix()[i]||^2."""
        if self._norms_sq is None:
            R = self.ranges_matrix()
            self._norms_sq = np.einsum("ij,ij->i", R, R)
            self._norms_sq.flags.writeable = False
        return self._norms_sq

    def poses_matrix(self) -> np.ndarray:
        """(n, 3) float64 of (x, y, theta degrees)."""
        if self._poses is None:
            self._poses = np.array([(s.pose.x, s.pose.y, s.pose.theta) for s in self.samples])
            self._poses = self._poses.reshape(len(self.samples), 3)
            self._poses.flags.writeable = False
        return self._poses


def datasets_close(a: Dataset, b: Dataset, tol: float = 1e-7) -> bool:
    """Equality up to serialisation rounding.

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


@dataclass(frozen=True)
class WalkConfig:
    """Random-walk parameters; capture fires on EITHER threshold."""

    capture_dist: float = 0.10
    capture_rot: float = 10.0
    step_len: float = 0.1
    clearance_radius: float = 0.5
    max_steps: int = 1000

    def __post_init__(self) -> None:
        for name in ("capture_dist", "capture_rot", "step_len", "clearance_radius"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive, got {v!r}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")


class CaptureGate:
    """Accumulates path length and turned angle since the last capture.

    Both thresholds are strict: moving exactly capture_dist is not enough.
    """

    def __init__(self, capture_dist: float, capture_rot: float) -> None:
        self.capture_dist = capture_dist
        self.capture_rot = capture_rot
        self.dist = 0.0
        self.rot = 0.0

    def add(self, moved: float, rotated: float) -> None:
        self.dist += abs(moved)
        self.rot += abs(rotated)

    def should_capture(self) -> bool:
        return self.dist > self.capture_dist or self.rot > self.capture_rot

    def reset(self) -> None:
        self.dist = 0.0
        self.rot = 0.0


@dataclass(frozen=True)
class StepRecord:
    """What one walk step did; kept so capture spacing can be audited."""

    moved: float
    rotated: float
    captured: bool


@dataclass(frozen=True)
class WalkResult:
    dataset: Dataset
    wedged: bool
    steps: int
    log: tuple


def sample_random_pose(env: EnvironmentSpec, rng: np.random.Generator) -> Pose2D:
    """A uniform collision-free pose: positions over the bounds rectangle,
    headings over the full circle, resampled until the position is free.

    Each attempt draws x, y, theta in that order, so the draw sequence is
    part of the reproducibility contract.

    Raises:
        InfeasibleEnvironmentError: after 10^6 rejected attempts.
    """
    b = env.bounds
    grid = env.grid
    for _ in range(REJECTION_BUDGET):
        x = rng.uniform(b.x_min, b.x_max)
        y = rng.uniform(b.y_min, b.y_max)
        theta = rng.uniform(-180.0, 180.0)
        if grid.is_free(x, y):
            return Pose2D(x, y, theta)
    raise InfeasibleEnvironmentError(
        f"no free pose found in {env.name!r} after {REJECTION_BUDGET} attempts"
    )


def _observe_poses(env: EnvironmentSpec, poses, chunk: int = 256) -> np.ndarray:
    """Raycast many poses at once; returns (n, ray_count) normalised ranges."""
    sensor = env.sensor
    offsets = sensor.bearing_offsets()
    k = offsets.size
    out = np.empty((len(poses), k))
    for lo in range(0, len(poses), chunk):
        batch = poses[lo : lo + chunk]
        xs = np.repeat([p.x for p in batch], k)
        ys = np.repeat([p.y for p in batch], k)
        bearings = (np.array([p.theta for p in batch])[:, None] + offsets[None, :]).ravel()
        d = ray_distances(env.grid, xs, ys, bearings, sensor.max_range)
        out[lo : lo + len(batch)] = d.reshape(len(batch), k) / sensor.max_range
    return out


def generate_dataset(env: EnvironmentSpec, n: int, seed: int) -> Dataset:
    """n uniform collision-free samples; a pure function of (env, n, seed).

    Sample i's pose comes from its own RNG stream (seed, STREAM_GEN, i), so
    generation can shard by index range and still match a serial run.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    poses = [sample_random_pose(env, derived_rng(seed, STREAM_GEN, i)) for i in range(n)]
    ranges = _observe_poses(env, poses)
    samples = [Sample(i, Observation(ranges[i]), poses[i]) for i in range(n)]
    return Dataset(env.name, env.sensor, seed, samples)


def _free_start_pose(env: EnvironmentSpec, cfg: WalkConfig, rng: np.random.Generator) -> Pose2D:
    b = env.bounds
    for _ in range(REJECTION_BUDGET):
        x = rng.uniform(b.x_min, b.x_max)
        y = rng.uniform(b.y_min, b.y_max)
        theta = rng.uniform(-180.0, 180.0)
        if env.grid.footprint_free(x, y, cfg.clearance_radius):
            return Pose2D(x, y, theta)
    raise InfeasibleEnvironmentError(
        f"no start pose with clearance {cfg.clearance_radius} in {env.name!r}"
    )


def random_walk_capture(
    env: EnvironmentSpec,
    cfg: WalkConfig,
    seed: int,
    start: Pose2D | None = None,
) -> WalkResult:
    """Walk the environment, capturing a sample at the start pose and then
    whenever cumulative movement exceeds capture_dist or cumulative rotation
    exceeds capture_rot (strictly) since the last capture.

    Each step draws a redraw gate (probability TURN_PROB of picking a new
    uniform target heading), turns toward the target by at most MAX_TURN_DEG,
    then advances step_len if the footprint stays clear. WEDGE_LIMIT
    consecutive blocked advances end the walk with ``wedged`` set.
    """
    rng = derived_rng(seed, STREAM_WALK)
    if start is None:
        pose = _free_start_pose(env, cfg, rng)
    else:
        if not env.grid.footprint_free(start.x, start.y, cfg.clearance_radius):
            raise InfeasibleEnvironmentError(f"start pose {start} lacks clearance")
        pose = start

    captured_poses = [pose]
    gate = CaptureGate(cfg.capture_dist, cfg.capture_rot)
    log = []
    wedged = False
    blocked_streak = 0
    target = pose.theta
    steps = 0

    while steps < cfg.max_steps:
        steps += 1
        if rng.uniform() < TURN_PROB:
            target = rng.uniform(-180.0, 180.0)
        turn = ang_diff(target, pose.theta)
        turn = min(MAX_TURN_DEG, max(-MAX_TURN_DEG, turn))
        moved = 0.0
        new_theta = wrap_angle(pose.theta + turn)
        rad = math.radians(new_theta)
        nx = pose.x + cfg.step_len * math.cos(rad)
        ny = pose.y + cfg.step_len * math.sin(rad)
        if env.grid.footprint_free(nx, ny, cfg.clearance_radius):
            pose = Pose2D(nx, ny, new_theta)
            moved = cfg.step_len
            blocked_streak = 0
        else:
            pose = Pose2D(pose.x, pose.y, new_theta)
            blocked_streak += 1
        gate.add(moved, turn)
        captured = gate.should_capture()
        if captured:
            captured_poses.append(pose)
            gate.reset()
        log.append(StepRecord(moved=moved, rotated=turn, captured=captured))
        if blocked_streak >= WEDGE_LIMIT:
            wedged = True
            break

    ranges = _observe_poses(env, captured_poses)
    samples = [Sample(i, Observation(ranges[i]), p) for i, p in enumerate(captured_poses)]
    dataset = Dataset(env.name, env.sensor, seed, samples)
    return WalkResult(dataset=dataset, wedged=wedged, steps=steps, log=tuple(log))


def split_dataset(d: Dataset, test_n: int, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint uniform train/test split; both halves keep the input order
    of their samples and are renumbered densely from 0.
    """
    n = len(d)
    if not 0 <= test_n < n:
        raise ValueError(f"test_n must be in [0, {n}), got {test_n}")
    rng = derived_rng(seed, STREAM_SPLIT)
    perm = rng.permutation(n)
    test_ids = set(int(i) for i in perm[:test_n])
    train, test = [], []
    for s in d.samples:
        (test if s.id in test_ids else train).append(s)
    def renum(rows):
        return [Sample(i, s.observation, s.pose) for i, s in enumerate(rows)]

    return (
        Dataset(d.env_name, d.sensor, seed, renum(train)),
        Dataset(d.env_name, d.sensor, seed, renum(test)),
    )


# --- file format -------------------------------------------------------------


def _fmt(v: float) -> str:
    return "%.9g" % v


def save_dataset(d: Dataset, path, extra_header: dict | None = None) -> None:
    """Write the dataset file: magic line, one-line JSON header, CSV rows
    of ``id,x,y,theta,r0..`` at 9 significant digits.
    """
    header = {
        "env_name": d.env_name,
        "seed": d.seed,
        "fov": d.sensor.fov,
        "ray_count": d.sensor.ray_count,
        "max_range": d.sensor.max_range,
        "n": len(d),
    }
    if extra_header:
        for k, v in extra_header.items():
            if k in header:
                raise ValueError(f"extra header key {k!r} collides with a core field")
            header[k] = v
    lines = [DATASET_MAGIC, json.dumps(header, sort_keys=True)]
    for s in d.samples:
        fields = [str(s.id), _fmt(s.pose.x), _fmt(s.pose.y), _fmt(s.pose.theta)]
        fields.extend(_fmt(r) for r in s.observation.ranges)
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_dataset(path) -> Dataset:
    """Parse a dataset file; unknown JSON header keys are ignored."""
    text = Path(path).read_text(encoding="ascii")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != DATASET_MAGIC:
        raise DatasetFormatError(f"{path}: not a '{DATASET_MAGIC}' file")
    if len(lines) < 2:
        raise DatasetFormatError(f"{path}: missing JSON header line")
    try:
        header = json.loads(lines[1])
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: bad JSON header: {exc}") from exc
    try:
        env_name = header["env_name"]
        seed = int(header["seed"])
        sensor = SensorConfig(
            fov=float(header["fov"]),
            ray_count=int(header["ray_count"]),
            max_range=float(header["max_range"]),
        )
        n = int(header["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}: bad header field: {exc}") from exc
    rows = lines[2:]
    if len(rows) != n:
        raise DatasetFormatError(f"{path}: header says n={n} but file has {len(rows)} rows")
    want = 4 + sensor.ray_count
    samples = []
    for i, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != want:
            raise DatasetFormatError(
                f"{path}: line {i + 3}: expected {want} columns, got {len(fields)}"
            )
        try:
            sid = int(fields[0])
            x, y, theta = (float(v) for v in fields[1:4])
            ranges = np.array([float(v) for v in fields[4:]])
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: line {i + 3}: bad value: {exc}") from exc
        if sid != i:
            raise DatasetFormatError(f"{path}: line {i + 3}: ids must be dense, got {sid}")
        samples.append(Sample(sid, Observation(ranges), Pose2D(x, y, theta)))
    return Dataset(env_name, sensor, seed, samples)
