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
``gen`` draws a block of samples' first attempts at once, on arrays that
step those generators with numpy's own arithmetic (``_PCG64Rows``), and
each sample whose first attempt is rejected is drawn again in
``sample_random_pose`` from its own generator.
"""

# annotations stay strings, so numpy.random loads at the first draw, not on import
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from itertools import islice
import numpy as np

from .inputs import FormatError, InputError, check_config, check_size, header_line, read_header, read_lines, write_text
from .pool import map_in_order
from .pose import Pose2D, ang_diff, wrap_angle, wrap_angles
from .world import EnvironmentSpec, SensorConfig, check_env_name, ray_distances

REJECTION_BUDGET = 1_000_000

# raycast hands ray_distances chunks of about CHUNK_RAYS rays (512
# poses of a 96-ray sensor), one chunk per worker thread; larger chunks
# spread numpy's per-call overhead over more rays. Each ray in flight peaks
# at ~106 bytes of traversal state, ~130 with its origin and bearing (~6.4 MB
# per chunk), so RAYS_IN_FLIGHT caps the chunks running at once, and peak
# memory does not grow with the core count.
CHUNK_RAYS = 512 * 96
RAYS_IN_FLIGHT = 8 * CHUNK_RAYS

# rows per block of text that load_dataset parses, and rows per block whose
# first attempts generate_dataset draws on arrays
BLOCK_ROWS = 1024

# rows per block of text that save_dataset formats with one % operation
TEXT_ROWS = 256

# rows generate_dataset draws: _PCG64Rows takes row indices below 2**32, and
# a row's id, written from a float64, is exact below 2**53
MAX_ROWS = 2**32

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

DATASET_MAGIC = "#neuromap-dataset v1"

# numpy's SeedSequence (NEP 19) hash constants and PCG64's 128-bit
# multiplier (O'Neill 2014), which _PCG64Rows reproduces
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


class InfeasibleEnvironmentError(InputError):
    """The environment has no room for the requested sampling."""


def derived_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """An independent PCG64 generator for (seed, stream, index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream, index))))


def _uint32_words(n: int) -> list:
    """A non-negative int as SeedSequence splits it: little-endian 32-bit
    words, one word for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each uint64 ``a`` times the constant ``b``."""
    m32 = np.uint64(_MASK32)
    a0, a1 = a & m32, a >> np.uint64(32)
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> np.uint64(32)) + (p01 & m32) + (p10 & m32)
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


class _PCG64Rows:
    """``derived_rng(seed, stream, i).bit_generator`` for every i of an
    index array at once, bit for bit: each 128-bit state and increment is
    two uint64 arrays, high and low limb.

    The seeding is numpy's: SeedSequence((seed, stream, i)) hashes its
    32-bit entropy words into a 4-word pool, mixes the pool, mixes in any
    words past the fourth (a seed >= 2^64), and its generate_state(4,
    uint64) gives PCG64 its initial state and stream. Every step is
    ``state * multiplier + increment`` mod 2^128, and a draw is the new
    state's XSL-RR output. Indices must be below 2^32, one entropy word each.
    """

    def __init__(self, seed: int, stream: int, index: np.ndarray) -> None:
        index = np.asarray(index, dtype=np.uint64)
        if index.size and int(index.max()) > _MASK32:
            raise ValueError("indices must be below 2**32")
        fixed = _uint32_words(seed) + _uint32_words(stream)
        words = [np.full(index.shape, w, np.uint32) for w in fixed]
        words.append(index.astype(np.uint32))
        hash_const = _INIT_A

        def hashmix(value):
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = (hash_const * _MULT_A) & _MASK32
            value = value * np.uint32(hash_const)
            return value ^ (value >> np.uint32(16))

        def mix(x, y):
            r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
            return r ^ (r >> np.uint32(16))

        zero = np.zeros(index.shape, np.uint32)
        pool = [hashmix(words[i] if i < len(words) else zero) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state: 8 words from the pool, taken as 4 little-endian uint64
        state, hash_const = [], _INIT_B
        for i in range(8):
            value = pool[i % 4] ^ np.uint32(hash_const)
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = value * np.uint32(hash_const)
            state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
        init_hi, init_lo, seq_hi, seq_lo = (
            state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)
        )
        # PCG64 seeding: increment = 2 * seq + 1, and the state is
        # step(step(0) + init), where step(0) is the increment
        self.inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
        self.inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
        self.lo = self.inc_lo + init_lo
        self.hi = self.inc_hi + init_hi + (self.lo < init_lo).astype(np.uint64)
        self._step()

    def _step(self) -> None:
        lo = self.lo * np.uint64(_PCG_MULT_LO) + self.inc_lo
        carry = (lo < self.inc_lo).astype(np.uint64)
        self.hi = (
            _mulhi64(self.lo, _PCG_MULT_LO) + self.hi * np.uint64(_PCG_MULT_LO)
            + self.lo * np.uint64(_PCG_MULT_HI) + self.inc_hi + carry
        )
        self.lo = lo

    def random_raw(self) -> np.ndarray:
        """Each row's next 64-bit output, as ``PCG64.random_raw()`` gives it."""
        self._step()
        value = self.hi ^ self.lo
        rot = self.hi >> np.uint64(58)
        return (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))

    def uniform(self, low: float, high: float) -> np.ndarray:
        """Each row's next ``Generator.uniform(low, high)``: the top 53
        bits as a double in [0, 1), scaled as numpy scales it."""
        u = (self.random_raw() >> np.uint64(11)) * (1.0 / 9007199254740992.0)
        return low + (high - low) * u


class Dataset:
    """An ordered set of samples from one environment and sensor: a
    read-only float64 ``poses_matrix()`` (n, 3) of (x, y, theta degrees,
    wrapped on construction as ``wrap_angle`` does) and ``ranges_matrix()``
    (n, ray_count) in [0, 1]. A sample's id is its row.

    ``ranges`` is an array, of which a C-contiguous float64 one is kept,
    not copied, and made read-only; or the ``EnvironmentSpec`` whose
    ``raycast`` of the poses gives them. Those are scanned when first
    needed: ``ranges_matrix()`` scans every row once and keeps the result,
    and ``windows()`` scans one window of rows at a time and keeps none.
    ``range_norms_sq`` caches each range row's squared norm for k-NN.
    """

    def __init__(self, env_name: str, sensor: SensorConfig, seed: int, poses, ranges) -> None:
        check_env_name(env_name)
        poses = np.array(poses, dtype=np.float64, order="C")
        if poses.ndim != 2 or poses.shape[1] != 3:
            raise ValueError(f"poses must be (n, 3), got shape {poses.shape}")
        if not np.isfinite(poses).all():
            raise ValueError("pose values must be finite")
        self._env = None
        if isinstance(ranges, EnvironmentSpec):
            if ranges.sensor != sensor:
                raise ValueError("ranges must be scanned with this sensor")
            self._env, ranges = ranges, None
        else:
            ranges = _checked_ranges(ranges, len(poses), sensor)
        poses[:, 2] = wrap_angles(poses[:, 2])
        poses.flags.writeable = False
        self.env_name = env_name
        self.sensor = sensor
        self.seed = int(seed)
        self._poses = poses
        self._ranges = ranges
        self._norms_sq = None

    def __len__(self) -> int:
        return len(self._poses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.env_name == other.env_name
            and self.sensor == other.sensor
            and self.seed == other.seed
            and np.array_equal(self._poses, other._poses)
            and np.array_equal(self.ranges_matrix(), other.ranges_matrix())
        )

    def ranges_matrix(self) -> np.ndarray:
        """(n, ray_count) float64, row i = sample i's normalised ranges."""
        if self._ranges is None:
            self._ranges = _checked_ranges(raycast(self._env, self._poses), len(self), self.sensor)
        return self._ranges

    def windows(self):
        """The (poses, ranges) of consecutive windows of rows, in order:
        the arrays whole, or, while the ranges are not yet scanned, the
        scans of RAYS_IN_FLIGHT rays' worth of rows at a time, each checked
        as the constructor checks ranges and none kept."""
        if self._ranges is not None:
            yield self._poses, self._ranges
            return
        rows = max(1, RAYS_IN_FLIGHT // self.sensor.ray_count)
        for lo in range(0, len(self), rows):
            poses = self._poses[lo : lo + rows]
            yield poses, _checked_ranges(raycast(self._env, poses), len(poses), self.sensor)

    def range_norms_sq(self) -> np.ndarray:
        """(n,) float64, entry i = ||ranges_matrix()[i]||^2."""
        if self._norms_sq is None:
            R = self.ranges_matrix()
            self._norms_sq = np.einsum("ij,ij->i", R, R)
            self._norms_sq.flags.writeable = False
        return self._norms_sq

    def poses_matrix(self) -> np.ndarray:
        """(n, 3) float64 of (x, y, theta degrees)."""
        return self._poses


def _checked_ranges(ranges, n: int, sensor: SensorConfig) -> np.ndarray:
    """``ranges`` as a read-only C-contiguous float64 array, refused unless
    it is (n, ray_count) and in [0, 1]."""
    ranges = np.ascontiguousarray(ranges, dtype=np.float64)
    if ranges.shape != (n, sensor.ray_count):
        raise ValueError(
            f"ranges must be ({n}, {sensor.ray_count}) for this sensor, got shape {ranges.shape}"
        )
    # min and max allocate nothing, and a NaN makes both NaN
    if ranges.size and not (ranges.min() >= 0.0 and ranges.max() <= 1.0):
        raise ValueError("ranges must all lie in [0, 1]")
    ranges.flags.writeable = False
    return ranges


@dataclass(frozen=True)
class WalkConfig:
    """Random-walk parameters; capture fires on EITHER threshold."""

    capture_dist: float = 0.10
    capture_rot: float = 10.0
    step_len: float = 0.1
    clearance_radius: float = 0.5
    max_steps: int = 1000

    def __post_init__(self) -> None:
        check_config(self, positive=("capture_dist", "capture_rot", "step_len", "clearance_radius"),
                     non_negative=("max_steps",))

    def captures(self, dist: float, rot: float) -> bool:
        """Whether a walk that has gone ``dist`` metres and turned ``rot``
        degrees in all since its last capture captures now. Both thresholds
        are strict: moving exactly capture_dist is not enough."""
        return dist > self.capture_dist or rot > self.capture_rot


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


def sample_random_pose(
    env: EnvironmentSpec, rng: np.random.Generator, clearance: float = 0.0
) -> Pose2D:
    """A uniform pose whose disc of radius ``clearance`` is free: positions
    over the bounds rectangle, headings over the full circle, resampled
    until the disc fits (clearance 0 tests the point alone).

    Each attempt draws x, y, theta in that order, so the draw sequence is
    part of the reproducibility contract.

    Raises:
        InfeasibleEnvironmentError: at the first rejection when no cell is
            free or the disc is wider than the grid, otherwise after 10^6
            rejected attempts.
    """
    b = env.bounds
    grid = env.grid
    for attempt in range(REJECTION_BUDGET):
        x = rng.uniform(b.x_min, b.x_max)
        y = rng.uniform(b.y_min, b.y_max)
        theta = rng.uniform(-180.0, 180.0)
        # footprint_free at radius 0 is is_free; testing the point here keeps a
        # draw to one call, the one perfbench's capture.pose_accept_ratio counts
        # (in gen, only the attempts of rows whose array first attempt failed)
        if grid.is_free(x, y) and (clearance == 0.0 or grid.footprint_free(x, y, clearance)):
            return Pose2D(x, y, theta)
        # checked only once a draw is rejected, so accepted draws cost nothing
        if attempt == 0:
            if grid.cells.all() or 2.0 * clearance > min(b.width, b.height):
                raise InfeasibleEnvironmentError(
                    f"no free pose with clearance {clearance} in {env.name!r}: no room"
                )
    raise InfeasibleEnvironmentError(
        f"no free pose with clearance {clearance} in {env.name!r} after {REJECTION_BUDGET} attempts"
    )


def raycast(env: EnvironmentSpec, poses: np.ndarray) -> np.ndarray:
    """The scans of (m, 3) poses (x, y, theta degrees): (m, ray_count) hit
    distances over ``max_range``, in [0, 1], ray 0 at -fov/2. Every scan of
    ``gen``, ``walk`` and ``navigate`` is made here, and a row's bits do not
    depend on the other rows of its call.

    Chunks of poses run on ``map_in_order``'s threads (numpy releases the
    GIL inside its loops), each writing only its own rows, so the result
    does not depend on the CPU count. A failure raises what a serial loop
    over the chunks would raise first, and no chunk starts after it: an
    ``InvalidPoseError`` for a pose outside the world or in an obstacle.
    """
    sensor = env.sensor
    offsets = sensor.bearing_offsets()
    k = offsets.size
    out = np.empty((len(poses), k))
    chunk = max(1, CHUNK_RAYS // k)
    starts = range(0, len(poses), chunk)

    def observe(lo: int) -> None:
        batch = poses[lo : lo + chunk]
        xs = np.repeat(batch[:, 0], k)
        ys = np.repeat(batch[:, 1], k)
        bearings = (batch[:, 2, None] + offsets[None, :]).ravel()
        d = ray_distances(env.grid, xs, ys, bearings, sensor.max_range)
        np.divide(d.reshape(len(batch), k), sensor.max_range, out=out[lo : lo + len(batch)])

    map_in_order(observe, starts, max(1, RAYS_IN_FLIGHT // (chunk * k)))
    return out


def generate_dataset(env: EnvironmentSpec, n: int, seed: int) -> Dataset:
    """n uniform collision-free samples; a pure function of (env, n, seed).

    Sample i's pose comes from its own RNG stream (seed, STREAM_GEN, i), so
    generation can shard by index range and still match a serial run. The
    first attempts of a block of samples are drawn and tested on arrays,
    with the bits ``sample_random_pose`` would draw, and each sample whose
    first attempt is rejected goes on in ``sample_random_pose``.

    Every pose is drawn here, so every refusal is raised here; the ranges
    are scanned when first needed (see ``Dataset``).
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    check_size(f"n = {n} samples", n, 3 + env.sensor.ray_count)  # poses and ranges
    if n > MAX_ROWS:
        raise InputError(f"n must be <= 2**32, got {n}")
    b = env.bounds
    # a block of poses at a time, so no per-row state for all n is held
    poses = np.empty((n, 3))
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        rows = _PCG64Rows(seed, STREAM_GEN, np.arange(lo, hi))
        block = poses[lo:hi]
        block[:, 0] = rows.uniform(b.x_min, b.x_max)
        block[:, 1] = rows.uniform(b.y_min, b.y_max)
        block[:, 2] = wrap_angles(rows.uniform(-180.0, 180.0))  # as Pose2D wraps it
        rejected = lo + np.flatnonzero(~env.grid.free_mask(block[:, 0], block[:, 1]))
        # each rejected row is drawn again from its own generator, which
        # repeats the rejected first attempt and goes on within the budget
        retried = [sample_random_pose(env, derived_rng(seed, STREAM_GEN, i))
                   for i in rejected.tolist()]
        if retried:
            poses[rejected] = [(p.x, p.y, p.theta) for p in retried]
    return Dataset(env.name, env.sensor, seed, poses, env)


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
        pose = sample_random_pose(env, rng, cfg.clearance_radius)
    else:
        if not env.grid.footprint_free(start.x, start.y, cfg.clearance_radius):
            raise InfeasibleEnvironmentError(f"start pose {start} lacks clearance")
        pose = start

    captured_poses = [pose]
    dist = rot = 0.0  # path length and absolute turn since the last capture
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
        dist += moved
        rot += abs(turn)
        captured = cfg.captures(dist, rot)
        if captured:
            captured_poses.append(pose)
            dist = rot = 0.0
        log.append(StepRecord(moved=moved, rotated=turn, captured=captured))
        if blocked_streak >= WEDGE_LIMIT:
            wedged = True
            break

    poses = np.array([(p.x, p.y, p.theta) for p in captured_poses])
    dataset = Dataset(env.name, env.sensor, seed, poses, raycast(env, poses))
    return WalkResult(dataset=dataset, wedged=wedged, steps=steps, log=tuple(log))


# --- file format -------------------------------------------------------------


def save_dataset(d: Dataset, path, extra_header: dict | None = None) -> None:
    """Write the dataset file: magic line, one-line JSON header, CSV rows
    of ``id,x,y,theta,r0..`` at 9 significant digits.

    The rows are formatted TEXT_ROWS at a time from ``d.windows()``, so
    neither the whole text nor, for a dataset not yet scanned, its ranges
    are held.
    """
    header = {"env_name": d.env_name, "seed": d.seed, **d.sensor.header(), "n": len(d)}
    cols = 4 + d.sensor.ray_count
    row = "%d," + ",".join(["%.9g"] * (cols - 1)) + "\n"

    def blocks():
        yield f"{DATASET_MAGIC}\n{header_line(header, extra_header)}\n"
        start = 0
        for poses, ranges in d.windows():
            for lo in range(0, len(poses), TEXT_ROWS):
                m = min(TEXT_ROWS, len(poses) - lo)
                block = np.empty((m, cols))  # id (exact, as n <= MAX_ROWS), pose, ranges
                block[:, 0] = np.arange(start + lo, start + lo + m)
                block[:, 1:4] = poses[lo : lo + m]
                block[:, 4:] = ranges[lo : lo + m]
                yield (row * m) % tuple(block.ravel().tolist())
            start += len(poses)
            del ranges  # freed before the next window is scanned
    write_text(path, blocks())


def load_dataset(path) -> Dataset:
    """Parse a dataset file; unknown JSON header keys are ignored.

    The rows are read BLOCK_ROWS at a time, and each block is parsed
    by one ``np.loadtxt`` call (an integer id, then floats, each as numpy
    reads them) straight into the arrays the Dataset keeps, so no more than
    one block of text is held at once. Only when np.loadtxt refuses a block
    are its rows read one by one, to name the first bad line.
    """
    lines = read_lines(path)
    header = read_header(lines, path, DATASET_MAGIC)
    try:
        env_name = header["env_name"]
        seed = int(header["seed"])
        sensor = SensorConfig.from_header(header)
        n = int(header["n"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(path, 2, f"bad header field: {exc}") from None
    try:  # before any row is read, so the constructor below refuses only rows
        check_env_name(env_name)
    except InputError as exc:
        raise FormatError(path, 2, str(exc)) from None
    cols = 4 + sensor.ray_count
    block = list(islice(lines, BLOCK_ROWS))
    # The first bad row is kept, not raised, until every row is counted: a
    # byte that is not ASCII, or a row count other than n, is reported first.
    # Nothing is sized by ray_count before the first row has its columns,
    # nor by n unless the file could hold n rows of cols values and cols
    # separators; when it cannot, the rows are read only to name the fault.
    fault = _bad_columns(path, 3, block[0], cols) if block else None
    fits = fault is None and 0 <= n * 2 * cols <= os.path.getsize(path)
    if fits:
        ids, poses, ranges = np.empty(n, np.int64), np.empty((n, 3)), np.empty((n, cols - 4))
    lo = 0
    while block:
        hi = lo + len(block)
        if fault is None and hi <= n:
            try:
                body = _parse_rows(path, block, lo + 3, cols)
            except FormatError as exc:
                fault = exc
            else:
                if fits:
                    ids[lo:hi], poses[lo:hi] = body["id"], body["pose"]
                    ranges[lo:hi] = body["ranges"]
        lo, block = hi, list(islice(lines, BLOCK_ROWS))
    if lo != n:
        raise FormatError(path, None, f"header says n={n} but file has {lo} rows")
    if fault is not None:
        raise fault
    bad_id = ids != np.arange(n)
    if bad_id.any():
        i = int(np.argmax(bad_id))
        raise FormatError(path, i + 3, f"ids must be dense, got {ids[i]}")
    try:
        return Dataset(env_name, sensor, seed, poses, ranges)
    except ValueError:  # a value the arrays refuse: name the first row holding one
        bad_ranges = ~((ranges >= 0.0) & (ranges <= 1.0)).all(axis=1)
        i = int(np.argmax(bad_ranges | ~np.isfinite(poses).all(axis=1)))
        what = "ranges must all lie in [0, 1]" if bad_ranges[i] else "pose values must be finite"
        raise FormatError(path, i + 3, what) from None


def _bad_columns(path, line_no: int, text: str, want: int) -> FormatError | None:
    got = text.count(",") + 1
    return None if got == want else FormatError(path, line_no, f"expected {want} columns, got {got}")


def _parse_rows(path, rows: list, first_line: int, cols: int) -> np.ndarray:
    """The (id, pose, ranges) records of data rows of ``cols`` columns, the
    first on line ``first_line``."""
    row = np.dtype([("id", np.int64), ("pose", np.float64, 3), ("ranges", np.float64, cols - 4)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # such as "no data" when every row is blank
            body = np.loadtxt(rows, dtype=row, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning) as exc:
        why = str(exc)
    else:
        if len(body) == len(rows):
            return body
        why = "blank rows"  # np.loadtxt skips blank lines
    raise _first_bad_row(path, rows, row, cols, first_line) or FormatError(path, None, why)


def _first_bad_row(path, rows, row_dtype, want: int, first_line: int) -> FormatError | None:
    """The error of the first data row without ``want`` columns or that
    np.loadtxt refuses on its own."""
    for line_no, text in enumerate(rows, start=first_line):
        if exc := _bad_columns(path, line_no, text, want):
            return exc
        try:
            np.loadtxt([text], dtype=row_dtype, delimiter=",", comments=None)
        except ValueError as exc:  # numpy's own "at row 0, column C" would mislead
            return FormatError(path, line_no, f"bad value: {str(exc).partition(' at row ')[0]}")
    return None
