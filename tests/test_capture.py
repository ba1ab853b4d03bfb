"""Dataset capture: rejection sampling, random walks, the dataset file."""

import json
import math
import os
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from neuromap import capture, pool
from neuromap.capture import (
    DATASET_MAGIC,
    BLOCK_ROWS,
    MAX_ROWS,
    STREAM_GEN,
    STREAM_WALK,
    TEXT_ROWS,
    Dataset,
    InfeasibleEnvironmentError,
    WalkConfig,
    derived_rng,
    generate_dataset,
    load_dataset,
    random_walk_capture,
    sample_random_pose,
    save_dataset,
)
from neuromap.inputs import FormatError, InputError
from neuromap.pose import Pose2D, ang_diff, wrap_angles
from neuromap.world import (
    EnvironmentSpec,
    InvalidPoseError,
    OccupancyGrid,
    SensorConfig,
    ray_distances,
)
from neuromap.worlds import bundled_environment
import whole_file_loader
from worldgen import datasets_close, with_metric_box


def make_env(grid, name="test-env", ray_count=16, max_range=10.0):
    sensor = SensorConfig(fov=120.0, ray_count=ray_count, max_range=max_range)
    return EnvironmentSpec(name, grid, sensor)


def empty_grid(width, height, resolution, ox=0.0, oy=0.0):
    return OccupancyGrid(width, height, resolution, ox, oy, np.zeros((height, width), bool))


# capture gate ----------------------------------------------------------------


def test_gate_thresholds_are_strict():
    # accumulating |turn| and resetting after a capture are random_walk_capture's,
    # replayed from its step log in test_walk_capture_thresholds_hold_on_step_log
    cfg = WalkConfig(capture_dist=0.10, capture_rot=10.0)
    assert not cfg.captures(0.0, 0.0)
    assert not cfg.captures(0.10, 10.0)  # exactly 10 cm is not "more than 10 cm"
    assert cfg.captures(0.10 + 1e-9, 0.0)  # either threshold alone is enough
    assert cfg.captures(0.0, 10.0 + 1e-9)
    assert cfg.captures(0.10 + 1e-9, 10.0 + 1e-9)


# random pose sampling ---------------------------------------------------------


def test_free_world_accepts_first_draw():
    env = make_env(empty_grid(10, 10, 0.5))
    rng = derived_rng(99, STREAM_GEN, 0)
    replay = derived_rng(99, STREAM_GEN, 0)
    pose = sample_random_pose(env, rng)
    b = env.bounds
    assert pose.x == replay.uniform(b.x_min, b.x_max)
    assert pose.y == replay.uniform(b.y_min, b.y_max)
    assert pose.theta == replay.uniform(-180.0, 180.0)


def test_single_free_cell_forces_position():
    cells = np.ones((3, 3), bool)
    cells[1, 1] = False
    grid = OccupancyGrid(3, 3, 1.0, 0.0, 0.0, cells)
    env = make_env(grid)
    rng = derived_rng(5, STREAM_GEN, 0)
    for _ in range(20):
        p = sample_random_pose(env, rng)
        assert 1.0 <= p.x < 2.0 and 1.0 <= p.y < 2.0


def test_fully_blocked_world_is_infeasible():
    grid = OccupancyGrid(2, 2, 1.0, 0.0, 0.0, np.ones((2, 2), bool))
    env = make_env(grid)
    with pytest.raises(InfeasibleEnvironmentError):
        sample_random_pose(env, derived_rng(1, STREAM_GEN, 0))


def test_clearance_keeps_the_disc_free_and_a_too_wide_disc_fails_at_once():
    env = make_env(with_metric_box(empty_grid(10, 10, 0.5), 2.0, 2.0, 3.0, 3.0))
    for i in range(200):
        p = sample_random_pose(env, derived_rng(7, STREAM_GEN, i), clearance=0.4)
        assert env.grid.footprint_free(p.x, p.y, 0.4)
    t0 = time.perf_counter()
    with pytest.raises(InfeasibleEnvironmentError, match="clearance 3.0 in 'test-env': no room$"):
        sample_random_pose(env, derived_rng(7, STREAM_GEN, 0), clearance=3.0)  # 6 m disc, 5 m world
    assert time.perf_counter() - t0 < 1.0


def test_acceptance_rate_tracks_free_fraction():
    # left half blocked: acceptance probability = free-cell fraction
    grid = with_metric_box(empty_grid(10, 10, 0.5), 0.0, 0.0, 2.5, 5.0)
    env = make_env(grid)
    rng = derived_rng(17, STREAM_GEN, 0)
    b = env.bounds
    n = 100_000
    xs = rng.uniform(b.x_min, b.x_max, size=n)
    ys = rng.uniform(b.y_min, b.y_max, size=n)
    accepted = sum(grid.is_free(x, y) for x, y in zip(xs, ys))
    assert abs(accepted / n - (1.0 - grid.cells.mean())) < 0.01


def test_uniformity_chi_squared_over_free_space():
    env = make_env(empty_grid(8, 8, 0.5))
    rng = derived_rng(23, STREAM_GEN, 0)
    n = 100_000
    poses = [sample_random_pose(env, rng) for _ in range(n)]
    xs = np.array([p.x for p in poses])
    ys = np.array([p.y for p in poses])
    # 4x4 equal-area bins over the 4m x 4m world
    bx = np.minimum((xs / 1.0).astype(int), 3)
    by = np.minimum((ys / 1.0).astype(int), 3)
    counts = np.bincount(by * 4 + bx, minlength=16)
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


# dataset generation ------------------------------------------------------------


def test_generate_is_deterministic():
    env = make_env(with_metric_box(empty_grid(12, 12, 0.5), 2.0, 2.0, 3.0, 4.0))
    a = generate_dataset(env, 50, seed=404)
    b = generate_dataset(env, 50, seed=404)
    assert a == b
    c = generate_dataset(env, 50, seed=405)
    assert a != c


def test_generate_all_poses_free_and_ids_dense():
    grid = with_metric_box(empty_grid(12, 12, 0.5), 1.0, 1.0, 5.0, 2.0)
    env = make_env(grid)
    d = generate_dataset(env, 300, seed=7)
    assert len(d) == 300  # a sample's id is its row
    assert d.ranges_matrix().shape == (300, env.sensor.ray_count)
    for x, y, _ in d.poses_matrix().tolist():
        assert grid.is_free(x, y)


def test_generate_sharding_by_index_stream():
    # sample i depends only on (seed, index): regenerating any index alone
    # matches the full run, so workers can split the index range
    env = make_env(empty_grid(10, 10, 0.5))
    d = generate_dataset(env, 20, seed=31)
    for i in (0, 7, 19):
        lone = sample_random_pose(env, derived_rng(31, STREAM_GEN, i))
        assert Pose2D(*d.poses_matrix()[i].tolist()) == lone


def scalar_oracle(env, n, seed):
    """generate_dataset's poses as the one-row-at-a-time sampler draws them."""
    drawn = [sample_random_pose(env, derived_rng(seed, STREAM_GEN, i)) for i in range(n)]
    return np.array([(p.x, p.y, p.theta) for p in drawn])


def test_generate_pose_rows_are_the_drawn_poses_bit_for_bit():
    env = make_env(with_metric_box(empty_grid(12, 12, 0.5), 2.0, 2.0, 3.0, 4.0))
    d = generate_dataset(env, 500, seed=404)
    assert d.poses_matrix().tobytes() == scalar_oracle(env, 500, 404).tobytes()


@pytest.mark.parametrize("n", [1, 6, 7, 8, 22])
def test_generate_draws_by_blocks_bit_for_bit(monkeypatch, n):
    # 7-pose blocks: one short block, one full, one full plus one, and several
    monkeypatch.setattr(capture, "BLOCK_ROWS", 7)
    env = make_env(with_metric_box(empty_grid(12, 12, 0.5), 2.0, 2.0, 3.0, 4.0))
    d = generate_dataset(env, n, seed=404)
    rows = scalar_oracle(env, n, 404)
    assert d.poses_matrix().tobytes() == rows.tobytes()
    assert d.ranges_matrix().tobytes() == one_call(env, rows).tobytes()


@pytest.mark.parametrize("seed", [0, 7, 101, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("stream", [STREAM_GEN, STREAM_WALK])
def test_array_generators_equal_derived_rng_bit_for_bit(seed, stream):
    # 2**64 + 5 is three entropy words, five with stream and index, so
    # SeedSequence mixes in words past its 4-word pool
    index = np.arange(BLOCK_ROWS - 20, 2 * BLOCK_ROWS + 20, 37)  # across block edges
    rows = capture._PCG64Rows(seed, stream, index)
    raw = np.stack([rows.random_raw() for _ in range(3)], axis=1)
    states = zip(rows.hi.tolist(), rows.lo.tolist(), rows.inc_hi.tolist(), rows.inc_lo.tolist())
    fourth = rows.random_raw()
    for i, row, fourth_raw, (hi, lo, inc_hi, inc_lo) in zip(index.tolist(), raw, fourth, states):
        bits = derived_rng(seed, stream, i).bit_generator
        assert bits.random_raw(4).tolist() == [*row.tolist(), int(fourth_raw)], i
        advanced = derived_rng(seed, stream, i).bit_generator.advance(3).state["state"]
        assert (hi << 64 | lo, inc_hi << 64 | inc_lo) == (advanced["state"], advanced["inc"]), i


@pytest.mark.parametrize("seed", [3, 2**64 + 5])
def test_array_first_attempts_equal_the_samplers_first_draw(seed):
    # an empty world accepts every first draw; with a non-zero origin and
    # 0.3 m cells, low + (high - low) * u rounds, so numpy's order of
    # operations is tested too
    env = make_env(empty_grid(9, 7, 0.3, ox=-1.7, oy=2.35))
    b, index = env.bounds, np.arange(300)
    rows = capture._PCG64Rows(seed, STREAM_GEN, index)
    got = np.stack([rows.uniform(b.x_min, b.x_max), rows.uniform(b.y_min, b.y_max),
                    wrap_angles(rows.uniform(-180.0, 180.0))], axis=1)
    assert got.tobytes() == scalar_oracle(env, len(index), seed).tobytes()


def test_array_generators_refuse_what_seed_sequence_refuses():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        derived_rng(-1, STREAM_GEN, 0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        capture._PCG64Rows(-1, STREAM_GEN, np.arange(3))
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        capture._PCG64Rows(1, STREAM_GEN, np.array([2**32]))


def count_is_free(monkeypatch):
    """A list that grows by one at each OccupancyGrid.is_free call."""
    calls, is_free = [], OccupancyGrid.is_free
    monkeypatch.setattr(OccupancyGrid, "is_free", lambda g, x, y: calls.append(1) or is_free(g, x, y))
    return calls


def test_generate_with_many_retries_equals_the_scalar_oracle(monkeypatch):
    # ~90% occupied, so the average row needs more than two retries, and
    # 7-row blocks, so the retried rows fall in every block
    monkeypatch.setattr(capture, "BLOCK_ROWS", 7)
    rng = np.random.default_rng(5)
    cells = rng.random((12, 16)) < 0.9
    env = make_env(OccupancyGrid(16, 12, 0.3, -1.7, 2.35, cells))
    calls = count_is_free(monkeypatch)
    d = generate_dataset(env, 60, seed=9)
    gen_calls = len(calls)
    want = scalar_oracle(env, 60, 9)
    assert d.poses_matrix().tobytes() == want.tobytes()
    assert d.ranges_matrix().tobytes() == one_call(env, want).tobytes()
    # the scalar loop tests every attempt with is_free, gen every attempt of
    # the rows whose first attempt the array draw rejected; here the average
    # row needs more than two retries
    oracle_calls = len(calls) - gen_calls
    first_free = 0
    for i in range(60):
        rng = derived_rng(9, STREAM_GEN, i)
        first_free += env.grid.is_free(rng.uniform(env.bounds.x_min, env.bounds.x_max),
                                       rng.uniform(env.bounds.y_min, env.bounds.y_max))
    assert 0 < first_free < 60
    assert gen_calls == oracle_calls - first_free
    assert gen_calls > 3 * (60 - first_free)


@pytest.mark.parametrize("budget", [1, 2, 5])
def test_generate_spends_the_same_budget_per_row_as_the_scalar_sampler(monkeypatch, budget):
    # the array draw is attempt 1 of ``budget``: the rows before the first
    # that exhausts it come out bit for bit, some on their last attempt, and
    # that row fails as it does in the scalar loop
    monkeypatch.setattr(capture, "REJECTION_BUDGET", budget)
    env = make_env(OccupancyGrid(8, 8, 0.5, 0.0, 0.0, np.random.default_rng(7).random((8, 8)) < 0.5))
    calls = count_is_free(monkeypatch)
    rows, attempts = [], []
    with pytest.raises(InfeasibleEnvironmentError) as want:
        while True:
            before = len(calls)
            rows.append(sample_random_pose(env, derived_rng(3, STREAM_GEN, len(rows))))
            attempts.append(len(calls) - before)
    assert rows and budget in attempts
    want_rows = np.array([(p.x, p.y, p.theta) for p in rows])
    assert generate_dataset(env, len(rows), seed=3).poses_matrix().tobytes() == want_rows.tobytes()
    with pytest.raises(InfeasibleEnvironmentError) as got:
        generate_dataset(env, len(rows) + 1, seed=3)
    assert str(got.value) == str(want.value) == (
        f"no free pose with clearance 0.0 in 'test-env' after {budget} attempts")


def test_generate_holds_its_arrays_and_one_chunk_in_flight(monkeypatch):
    # One worker, so one chunk is in flight whatever the CPU count. A chunk's
    # traversal peaks at <= 128 bytes per ray (test_world.py); the draws add
    # one block of poses, not n. With a traversal that held 223 bytes per ray
    # and all n poses drawn at once, the peak was 5.2 MB above this bound.
    monkeypatch.setattr(capture, "RAYS_IN_FLIGHT", capture.CHUNK_RAYS)
    env, n = bundled_environment("cabin"), 2000
    generate_dataset(env, 16, 101).ranges_matrix()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d = generate_dataset(env, n, 101)
        d.ranges_matrix()  # scanned when first asked for
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    arrays = d.poses_matrix().nbytes + d.ranges_matrix().nbytes
    assert peak <= arrays + 128 * capture.CHUNK_RAYS + 2**20


def test_generate_covers_coarse_free_cells():
    # 7m x 15m interior with aligned obstacles: 10^4 samples reach every
    # 1m x 1m coarse cell that has any free area
    grid = empty_grid(70, 150, 0.1)
    for box in ((2.0, 3.0, 3.0, 6.0), (0.0, 10.0, 4.0, 11.0), (5.0, 7.0, 7.0, 8.0)):
        grid = with_metric_box(grid, *box)
    env = make_env(grid, ray_count=8)
    d = generate_dataset(env, 10_000, seed=11)
    seen = set()
    for x, y, _ in d.poses_matrix().tolist():
        seen.add((int(x // 1.0), int(y // 1.0)))
    for cx in range(7):
        for cy in range(15):
            sub = grid.cells[cy * 10 : (cy + 1) * 10, cx * 10 : (cx + 1) * 10]
            if not bool(sub.all()):
                assert (cx, cy) in seen, f"no sample in free coarse cell ({cx}, {cy})"


def test_generate_rejects_bad_n():
    env = make_env(empty_grid(4, 4, 1.0))
    with pytest.raises(ValueError):
        generate_dataset(env, 0, seed=1)


def test_generate_refuses_more_rows_than_the_array_sampler_takes():
    # rows 0 .. MAX_ROWS - 1 are the indices _PCG64Rows takes, and
    # save_dataset writes each id exactly from a float64
    assert MAX_ROWS == 2**32
    capture._PCG64Rows(1, STREAM_GEN, np.array([MAX_ROWS - 1]))
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        capture._PCG64Rows(1, STREAM_GEN, np.array([MAX_ROWS]))
    assert "%d" % float(MAX_ROWS - 1) == str(MAX_ROWS - 1)
    env = make_env(empty_grid(4, 4, 1.0), ray_count=2)
    with pytest.raises(InputError, match=rf"^n must be <= 2\*\*32, got {MAX_ROWS + 1}$"):
        generate_dataset(env, MAX_ROWS + 1, seed=1)


# parallel raycast ----------------------------------------------------------------

CHUNK = 7  # poses per raycast chunk in these tests


def box_env():
    return make_env(with_metric_box(empty_grid(12, 12, 0.5), 2.0, 2.0, 4.0, 3.0), ray_count=16)


def observe_with(monkeypatch, env, poses, cpus, chunk=CHUNK):
    """raycast with ``cpus`` CPUs in the affinity mask and ``chunk``-pose chunks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(capture, "CHUNK_RAYS", chunk * env.sensor.ray_count)
    return capture.raycast(env, poses)


def one_call(env, poses):
    """Every ray of every pose in a single ray_distances call."""
    k, sensor = env.sensor.ray_count, env.sensor
    bearings = (poses[:, 2, None] + sensor.bearing_offsets()[None, :]).ravel()
    d = ray_distances(
        env.grid, np.repeat(poses[:, 0], k), np.repeat(poses[:, 1], k), bearings, sensor.max_range
    )
    return d.reshape(len(poses), k) / sensor.max_range


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_observe_poses_equals_one_call_bit_for_bit(monkeypatch, n, cpus):
    env = box_env()
    poses = generate_dataset(env, n, seed=n).poses_matrix()
    got = observe_with(monkeypatch, env, poses, cpus)
    assert got.tobytes() == one_call(env, poses).tobytes()
    # each row is also the scan navigate takes of its pose alone
    for i in range(n):
        assert got[i].tobytes() == capture.raycast(env, poses[i : i + 1])[0].tobytes(), i


def test_observe_poses_under_frequent_thread_switches(monkeypatch):
    env = box_env()
    poses = generate_dataset(env, 120, seed=4).poses_matrix()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:  # more workers than this machine has cores, one pose per chunk
        got = observe_with(monkeypatch, env, poses, cpus=8, chunk=1)
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == one_call(env, poses).tobytes()


def test_observe_no_poses_makes_no_pool(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("thread created")

    monkeypatch.setattr(pool.threading, "Thread", no_thread)
    got = capture.raycast(box_env(), np.empty((0, 3)))
    assert got.shape == (0, 16)


@pytest.mark.parametrize("cpus", [1, 2])
def test_observe_failure_is_the_first_failing_chunk_in_order(monkeypatch, cpus):
    env = box_env()
    poses = generate_dataset(env, 4 * CHUNK, seed=8).poses_matrix().copy()
    first, later = CHUNK + 3, 2 * CHUNK + 1  # chunks 1 and 2
    poses[first, :2] = (2.6, 2.4)  # inside the box
    poses[later, :2] = (3.6, 2.6)

    def slow_first(grid, xs, ys, bearings, max_range):
        if poses[first, 0] in xs:
            time.sleep(0.2)  # chunk 2 fails first in time when it runs beside chunk 1
        return ray_distances(grid, xs, ys, bearings, max_range)

    monkeypatch.setattr(capture, "ray_distances", slow_first)
    with pytest.raises(InvalidPoseError) as info:
        observe_with(monkeypatch, env, poses, cpus)
    assert str(info.value) == "ray origin (2.6, 2.4) is not in free space"


@pytest.mark.parametrize("cpus", [1, 2])
def test_observe_failure_starts_no_queued_chunk(monkeypatch, cpus):
    env = box_env()
    poses = generate_dataset(env, 20 * CHUNK, seed=9).poses_matrix()
    calls = []
    lock = threading.Lock()

    def second_call_fails(grid, xs, ys, bearings, max_range):
        with lock:
            calls.append(len(xs))
            if len(calls) == 2:
                raise InvalidPoseError("second chunk")
        return np.full(len(xs), max_range)

    monkeypatch.setattr(capture, "ray_distances", second_call_fails)
    with pytest.raises(InvalidPoseError, match="second chunk"):
        observe_with(monkeypatch, env, poses, cpus)
    # the other workers may each have begun one more chunk before the failure
    assert 2 <= len(calls) <= 1 + cpus


@pytest.mark.parametrize("where", ["lock", "join"])
def test_an_interrupt_of_the_calling_thread_starts_no_further_item(monkeypatch, where):
    caller, raised, started, threads = threading.get_ident(), threading.Event(), [], []

    class Lock:  # the pool's lock, whose first taking by the calling thread is interrupted
        def __init__(self):
            self.lock, self.armed = threading.Lock(), where == "lock"

        def __enter__(self):
            if self.armed and threading.get_ident() == caller:
                self.armed = False
                raise KeyboardInterrupt
            return self.lock.__enter__()

        def __exit__(self, *exc):
            return self.lock.__exit__(*exc)

    class Thread(threading.Thread):  # a worker thread whose join is interrupted
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            threads.append(self)

        def join(self, timeout=None):
            if where == "join":
                raise KeyboardInterrupt
            super().join(timeout)

    def item(i):
        started.append((i, raised.is_set()))
        if threading.get_ident() != caller:
            raised.wait(10)  # the worker's item outlasts the interrupt
        return i

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(pool, "threading", types.SimpleNamespace(Lock=Lock, Thread=Thread))
    with pytest.raises(KeyboardInterrupt):
        pool.map_in_order(item, range(20), most=2)
    raised.set()
    for t in threads:
        threading.Thread.join(t)
    assert [i for i, late in started if late] == []


# random walk -------------------------------------------------------------------


def test_walk_zero_steps_captures_start_only():
    env = make_env(empty_grid(20, 20, 0.5))
    start = Pose2D(5.0, 5.0, 30.0)
    res = random_walk_capture(env, WalkConfig(max_steps=0), seed=1, start=start)
    assert len(res.dataset) == 1
    assert Pose2D(*res.dataset.poses_matrix()[0].tolist()) == start
    assert not res.wedged
    assert res.steps == 0


def test_walk_single_long_step_captures_once():
    # one 12 cm advance crosses the 10 cm threshold: exactly one capture
    # beyond the start sample (seed 0 draws no heading change on step 1)
    env = make_env(empty_grid(20, 20, 0.5))
    start = Pose2D(5.0, 5.0, 0.0)
    cfg = WalkConfig(step_len=0.12, max_steps=1)
    res = random_walk_capture(env, cfg, seed=0, start=start)
    assert len(res.dataset) == 2
    assert res.log[0].captured
    x, y, _ = res.dataset.poses_matrix()[1].tolist()
    assert abs(math.hypot(x - start.x, y - start.y) - 0.12) < 1e-12


def test_walk_corridor_spacing():
    # straight corridor traversal with 10.5 cm steps: every step crosses the
    # strict 10 cm threshold, giving ~10 captures over the first metre.
    # seed 3 draws no heading change for the first 14 steps.
    grid = with_metric_box(empty_grid(60, 25, 0.1), 0.0, 0.0, 6.0, 1.0)
    grid = with_metric_box(grid, 0.0, 1.5, 6.0, 2.5)
    env = make_env(grid, ray_count=4)
    cfg = WalkConfig(
        capture_dist=0.10, capture_rot=60.0, step_len=0.105, clearance_radius=0.2, max_steps=14
    )
    res = random_walk_capture(env, cfg, seed=3, start=Pose2D(0.5, 1.25, 0.0))
    poses = [Pose2D(*p) for p in res.dataset.poses_matrix().tolist()]
    assert len(poses) == 15  # start + one capture per step
    xs = [p.x for p in poses]
    gaps = np.diff(xs)
    assert np.allclose(gaps, 0.105, atol=1e-9)
    within_first_metre = [x for x in xs if x <= 1.5 + 1e-9]
    assert len(within_first_metre) == 10  # ~10 captures at ~0.1 m spacing


def test_walk_capture_thresholds_hold_on_step_log():
    env = make_env(
        with_metric_box(empty_grid(16, 16, 0.25), 2.0, 2.0, 2.6, 3.4), ray_count=8
    )
    cfg = WalkConfig(max_steps=800)
    res = random_walk_capture(env, cfg, seed=12345)
    assert len(res.dataset) > 10
    cum_d = cum_r = 0.0
    n_captures = 0
    for rec in res.log:
        cum_d += rec.moved
        cum_r += abs(rec.rotated)
        if rec.captured:
            assert cum_d > cfg.capture_dist or cum_r > cfg.capture_rot
            cum_d = cum_r = 0.0
            n_captures += 1
        else:
            assert cum_d <= cfg.capture_dist and cum_r <= cfg.capture_rot
    assert len(res.dataset) == n_captures + 1  # start sample


def test_walk_keeps_clearance():
    grid = with_metric_box(empty_grid(16, 16, 0.25), 1.0, 1.0, 3.0, 1.5)
    env = make_env(grid, ray_count=8)
    cfg = WalkConfig(max_steps=400)
    res = random_walk_capture(env, cfg, seed=77)
    for x, y, _ in res.dataset.poses_matrix().tolist():
        assert grid.footprint_free(x, y, cfg.clearance_radius)


def test_walk_deterministic():
    env = make_env(empty_grid(16, 16, 0.25), ray_count=8)
    cfg = WalkConfig(max_steps=200)
    a = random_walk_capture(env, cfg, seed=55)
    b = random_walk_capture(env, cfg, seed=55)
    assert a.dataset == b.dataset
    assert a.log == b.log


def test_walk_wedged_in_a_tight_box():
    # free area barely fits the footprint: every advance collides, and after
    # 100 blocked attempts the walk reports itself wedged
    grid = OccupancyGrid(5, 5, 0.3, 0.0, 0.0, np.ones((5, 5), bool))
    cells = grid.cells.copy()
    cells[1:4, 1:4] = False  # 0.9 m x 0.9 m free pocket
    grid = OccupancyGrid(5, 5, 0.3, 0.0, 0.0, cells)
    env = make_env(grid, ray_count=4)
    cfg = WalkConfig(step_len=0.2, clearance_radius=0.4, max_steps=10_000)
    res = random_walk_capture(env, cfg, seed=2, start=Pose2D(0.75, 0.75, 0.0))
    assert res.wedged
    assert res.steps < 10_000


def test_walk_rejects_start_without_clearance():
    grid = with_metric_box(empty_grid(8, 8, 0.5), 2.0, 2.0, 2.5, 2.5)
    env = make_env(grid)
    with pytest.raises(InfeasibleEnvironmentError):
        random_walk_capture(env, WalkConfig(), seed=1, start=Pose2D(1.8, 2.2, 0.0))


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(capture_dist=0.0)
    with pytest.raises(ValueError):
        WalkConfig(capture_rot=-1.0)
    with pytest.raises(ValueError):
        WalkConfig(step_len=0.0)
    with pytest.raises(ValueError):
        WalkConfig(clearance_radius=-0.5)
    with pytest.raises(ValueError):
        WalkConfig(max_steps=-1)
    WalkConfig(max_steps=0)  # a zero-step walk is legal: capture the start


def _toy_dataset(n, seed=1):
    env = make_env(empty_grid(10, 10, 0.5), ray_count=8)
    return generate_dataset(env, n, seed=seed)


# file format ---------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    env = make_env(with_metric_box(empty_grid(12, 12, 0.5), 2.0, 2.0, 4.0, 3.0), ray_count=16)
    d = generate_dataset(env, 1000, seed=2024)
    path = tmp_path / "d.csv"
    save_dataset(d, path)
    loaded = load_dataset(path)
    assert datasets_close(d, loaded, tol=1e-7)
    # serialisation is stable: saving the loaded dataset is byte-identical
    path2 = tmp_path / "d2.csv"
    save_dataset(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_same_dataset_twice_is_byte_identical(tmp_path):
    env = make_env(empty_grid(10, 10, 0.5), ray_count=8)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(generate_dataset(env, 64, seed=3), a)
    save_dataset(generate_dataset(env, 64, seed=3), b)
    assert a.read_bytes() == b.read_bytes()


def test_empty_dataset_is_header_only(tmp_path):
    d = _toy_dataset(5)
    empty = Dataset(d.env_name, d.sensor, d.seed, np.zeros((0, 3)), np.zeros((0, 8)))
    path = tmp_path / "empty.csv"
    save_dataset(empty, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    loaded = load_dataset(path)
    assert len(loaded) == 0


def test_load_errors(tmp_path):
    env = make_env(empty_grid(10, 10, 0.5), ray_count=8)
    d = generate_dataset(env, 3, seed=1)
    path = tmp_path / "d.csv"
    save_dataset(d, path)
    good = path.read_text().splitlines()

    bad = tmp_path / "bad.csv"
    bad.write_text("not a dataset\n")
    with pytest.raises(FormatError, match="neuromap-dataset"):
        load_dataset(bad)

    bad.write_text(good[0] + "\n{broken\n")
    with pytest.raises(FormatError, match="JSON"):
        load_dataset(bad)

    # drop a column from the second data row
    mangled = good[:]
    mangled[3] = ",".join(mangled[3].split(",")[:-1])
    bad.write_text("\n".join(mangled) + "\n")
    with pytest.raises(FormatError, match="line 4"):
        load_dataset(bad)

    # row count disagrees with the header
    bad.write_text("\n".join(good[:-1]) + "\n")
    with pytest.raises(FormatError, match="rows"):
        load_dataset(bad)

    # ids must stay dense
    mangled = good[:]
    parts = mangled[3].split(",")
    parts[0] = "7"
    mangled[3] = ",".join(parts)
    bad.write_text("\n".join(mangled) + "\n")
    with pytest.raises(FormatError, match="dense"):
        load_dataset(bad)

    # values the arrays refuse name their line
    for column, value, what in (
        (5, "nan", "ranges"), (6, "inf", "ranges"), (7, "1.5", "ranges"), (4, "-0.01", "ranges"),
        (1, "nan", "finite"), (2, "-inf", "finite"), (3, "inf", "finite"),
    ):
        mangled = good[:]
        parts = mangled[4].split(",")
        parts[column] = value
        mangled[4] = ",".join(parts)
        bad.write_text("\n".join(mangled) + "\n")
        with pytest.raises(FormatError, match=f"line 5: .*{what}"):
            load_dataset(bad)


def _saved_rows(tmp_path, n=5):
    """The lines of a saved n-row, 8-ray dataset file (data rows from line 3)."""
    env = make_env(empty_grid(10, 10, 0.5), ray_count=8)
    path = tmp_path / "d.csv"
    save_dataset(generate_dataset(env, n, seed=1), path)
    return path.read_text().splitlines()


@pytest.mark.parametrize(
    "column,value",
    [
        (6, "abc"),  # not a number, in a range column
        (5, "0.5#9"),  # '#' inside a field is not a comment
        (0, "#3"),  # nor at the start of a row
        (2, ""),
        (0, "3.0"),  # a float-formatted id, refused as int() refuses it
        (7, "1_0"),  # float() reads 10.0; the loader refuses digit separators
    ],
)
def test_load_names_the_line_of_a_bad_value(tmp_path, column, value):
    lines = _saved_rows(tmp_path)
    parts = lines[5].split(",")
    parts[column] = value
    lines[5] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=r"bad\.csv: line 6: bad value: .*" + repr(value)):
        load_dataset(bad)


@pytest.mark.parametrize("blank", ["", "\r"])
def test_load_refuses_a_blank_line_in_the_body(tmp_path, blank):
    lines = _saved_rows(tmp_path)
    lines[4] = blank  # the row count still matches the header
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 5: expected 12 columns, got 1"):
        load_dataset(bad)
    bad.write_text("\n".join(lines[:2] + [blank] * 5) + "\n")  # no data at all
    with pytest.raises(FormatError, match="line 3: expected 12 columns, got 1"):
        load_dataset(bad)


def test_load_reads_each_value_as_float_does(tmp_path):
    header = (
        '#neuromap-dataset v1\n'
        '{"env_name": "e", "fov": 90.0, "max_range": 10.0, "n": 3, "ray_count": 4, "seed": 0}\n'
    )
    rows = [
        "0,1e-3,+2.5,10.5,0.5,.5,5e-1,1E0",
        "1, 3 ,4.0 ,-20.25,0.30000000000000004,1.0000000000000002e-1,4.9e-324,0",
        "+2,0.1,0.2,0.3,-0,0.0,1.,0.6999999999999999555910790149937",
    ]
    path = tmp_path / "d.csv"
    path.write_text(header + "\n".join(rows) + "\n")
    d = load_dataset(path)
    values = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
    assert d.poses_matrix().tobytes() == values[:, :3].tobytes()
    assert d.ranges_matrix().tobytes() == values[:, 3:].tobytes()


@pytest.fixture(scope="module")
def two_blocks_and_five():
    return _toy_dataset(2 * BLOCK_ROWS + 5, seed=7)


def _dataset_faults(lines, block):
    """Files that differ from the dataset file ``lines`` by one fault, by
    name; faults sit at the boundary between the first two row blocks."""
    head, rows = lines[:2], lines[2:]
    n = len(rows)

    def text(ls, newline="\n"):
        return (newline.join(ls) + newline).encode()

    def row(i, value):
        return text([*head, *rows[:i], value, *rows[i + 1 :]])

    def field(i, column, value):
        parts = rows[i].split(",")
        parts[column : column + 1] = [] if value is None else [value]
        return row(i, ",".join(parts))

    def header(**changes):
        return text([head[0], json.dumps({**json.loads(head[1]), **changes}, sort_keys=True), *rows])

    good = text(lines)
    return {
        "valid": good,
        "crlf": text(lines, "\r\n"),
        "cr": text(lines, "\r"),
        "no final newline": good[:-1],
        "empty": b"",
        "truncated": good[: len(good) // 2],
        "0xff in the header": good.replace(b"\n", b"\n\xff", 2),
        "0xff in the last row": good[:-3] + b"\xff" + good[-2:],
        "wrong magic": good.replace(b"v1", b"v2", 1),
        "magic only": text(head[:1]),
        "bad json": text([head[0], head[1][:-1], *rows]),
        "no ray_count": text([head[0], head[1].replace('"ray_count"', '"rays"'), *rows]),
        "empty env_name": header(env_name=""),
        "ray_count one short": header(ray_count=json.loads(head[1])["ray_count"] - 1),
        "n + 1": header(n=n + 1),
        "n - 1": header(n=n - 1),
        "n = 0": header(n=0),
        "n = -1": header(n=-1),
        "n = 10**15": header(n=10**15),
        "extra row": text([*lines, f"{n}," + rows[-1].partition(",")[2]]),
        "nan in the first row": field(0, 6, "nan"),
        "column dropped in the first row": field(0, 6, None),
        "bad value opening block 2": field(block, 5, "abc"),
        "bad value closing block 1": field(block - 1, 5, "1e"),
        "column dropped opening block 2": field(block, 6, None),
        "blank line opening block 2": row(block, ""),
        "blank line closing block 1": row(block - 1, ""),
        "cr-only line opening block 2": row(block, "\r"),
        "every row blank": text([*head, *[""] * n]),
        "bad id opening block 2": field(block, 0, str(block + 1)),
        "float id opening block 2": field(block, 0, f"{block}.0"),
        "inf pose opening block 2": field(block, 1, "inf"),
        "range above 1 in the last row": field(n - 1, 7, "1.5"),
        "negative range opening block 2": field(block, 4, "-0.01"),
    }


def _load_outcome(load, path):
    try:
        return load(path)
    except FormatError as exc:
        return str(exc)


@pytest.mark.parametrize("block", [3, BLOCK_ROWS])
def test_streamed_load_equals_whole_file_loader(tmp_path, monkeypatch, two_blocks_and_five, block):
    if block != BLOCK_ROWS:
        monkeypatch.setattr(capture, "BLOCK_ROWS", block)
    d = two_blocks_and_five
    n = 2 * block + 5
    path = tmp_path / "good.csv"
    save_dataset(Dataset(d.env_name, d.sensor, d.seed, d.poses_matrix()[:n], d.ranges_matrix()[:n]),
                 path)
    for name, data in _dataset_faults(path.read_text().split("\n")[:-1], block).items():
        bad = tmp_path / f"{name}.csv"
        bad.write_bytes(data)
        want = _load_outcome(whole_file_loader.load_dataset, bad)
        got = _load_outcome(load_dataset, bad)
        assert isinstance(got, str) == (name not in ("valid", "crlf", "cr", "no final newline")), name
        assert got == want, name


def _traced_load(path):
    """What ``load_dataset(path)`` returns or raises, and the peak of the
    memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            out = load_dataset(path)
        except FormatError as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("key, value, why", [
    ("ray_count", 10**9, "line 3: expected 1000000004 columns, got 12"),
    ("ray_count", 10**30,
     f"line 2: bad header field: ray_count must be <= {np.iinfo(np.intp).max}, got {10**30}"),
    ("n", 10**7, "header says n=10000000 but file has 5 rows"),
    ("n", 10**15, "header says n=1000000000000000 but file has 5 rows"),
])
def test_a_header_size_the_file_cannot_hold_is_refused_before_it_sizes_anything(
    tmp_path, key, value, why
):
    lines = _saved_rows(tmp_path)
    header = json.dumps({**json.loads(lines[1]), key: value}, sort_keys=True)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], header, *lines[2:]]) + "\n")
    error, peak = _traced_load(bad)
    assert str(error) == f"{bad}: {why}"
    assert peak < 2**20


def test_load_reports_a_later_byte_or_row_count_before_a_bad_row(tmp_path):
    # as the whole-file loader did; only a fault in the header lines now
    # comes before a byte that is not ASCII on a later line
    lines = _saved_rows(tmp_path)
    parts = lines[3].split(",")
    parts[4] = "abc"
    bad_row = lines[:3] + [",".join(parts)] + lines[4:]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(("\n".join(bad_row) + "\n").encode()[:-2] + b"\xff\n")
    with pytest.raises(FormatError, match="line 7: byte 0xff is not ASCII"):
        load_dataset(bad)
    bad.write_text("\n".join([lines[0], lines[1].replace('"n": 5', '"n": 6'), *bad_row[2:]]) + "\n")
    with pytest.raises(FormatError, match="header says n=6 but file has 5 rows"):
        load_dataset(bad)
    bad.write_bytes(("\n".join([lines[0], lines[1][:-1], *lines[2:]]) + "\n").encode()[:-2] + b"\xff\n")
    with pytest.raises(FormatError, match="line 2: bad JSON header"):
        load_dataset(bad)


def test_load_holds_the_arrays_and_one_block_of_text(tmp_path):
    # The peak grows with the file by little more than the arrays it returns;
    # the whole-file loader's grew by 3.6 times theirs.
    rng = np.random.default_rng(5)
    sensor = SensorConfig(ray_count=96)
    growth = []
    for n in (5_000, 20_000):
        poses = np.column_stack([rng.uniform(0, 9, n), rng.uniform(0, 9, n), rng.uniform(-180, 180, n)])
        path = tmp_path / f"{n}.csv"
        save_dataset(Dataset("e", sensor, 1, poses, rng.uniform(0, 1, (n, 96))), path)
        d, peak = _traced_load(path)
        growth.append((peak, d.poses_matrix().nbytes + d.ranges_matrix().nbytes))
    (peak5, arrays5), (peak20, arrays20) = growth
    assert peak20 - peak5 <= 1.25 * (arrays20 - arrays5)


def whole_text_save(d, path, extra_header=None):
    """The writer before it streamed: builds the whole text, then writes it."""
    header = {
        "env_name": d.env_name,
        "seed": d.seed,
        "fov": d.sensor.fov,
        "ray_count": d.sensor.ray_count,
        "max_range": d.sensor.max_range,
        "n": len(d),
    }
    header.update(extra_header or {})
    lines = [DATASET_MAGIC, json.dumps(header, sort_keys=True)]
    row = "%d," + ",".join(["%.9g"] * (3 + d.sensor.ray_count))
    for i, (p, r) in enumerate(zip(d.poses_matrix().tolist(), d.ranges_matrix())):
        lines.append(row % (i, *p, *r.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


@pytest.fixture(scope="module")
def block_plus_one():
    return _toy_dataset(BLOCK_ROWS + 1, seed=6)


@pytest.mark.parametrize("extra", [None, {"provenance": {"invocation": "gen --n 5"}}])
@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_streamed_save_equals_whole_text_writer(tmp_path, block_plus_one, n, extra):
    full = block_plus_one
    d = Dataset(full.env_name, full.sensor, full.seed,
                full.poses_matrix()[:n], full.ranges_matrix()[:n])
    save_dataset(d, tmp_path / "streamed.csv", extra_header=extra)
    whole_text_save(d, tmp_path / "whole.csv", extra_header=extra)
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("window", [1, 7, 300])  # rows per raycast window
def test_a_generated_dataset_saves_and_equals_its_scanned_arrays(tmp_path, monkeypatch, window):
    # windows of one row, of fewer rows than a text block, and across its edges
    env = make_env(with_metric_box(empty_grid(12, 12, 0.5), 2.0, 2.0, 3.0, 4.0))
    monkeypatch.setattr(capture, "RAYS_IN_FLIGHT", window * env.sensor.ray_count)
    n = 2 * TEXT_ROWS + 5
    d = generate_dataset(env, n, seed=404)
    save_dataset(d, tmp_path / "windows.csv")  # scanned a window at a time, none kept
    ranges = one_call(env, d.poses_matrix())
    arrays = Dataset(env.name, env.sensor, 404, d.poses_matrix(), ranges)
    assert generate_dataset(env, n, seed=404) == arrays
    assert d.ranges_matrix().tobytes() == ranges.tobytes()
    save_dataset(d, tmp_path / "kept.csv")  # from the scan ranges_matrix() kept
    whole_text_save(arrays, tmp_path / "whole.csv")
    saved = (tmp_path / "windows.csv").read_bytes()
    assert saved == (tmp_path / "kept.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    loaded = load_dataset(tmp_path / "windows.csv")
    assert datasets_close(loaded, d)
    save_dataset(loaded, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == saved


def test_a_dataset_is_scanned_only_with_its_own_sensor():
    env = make_env(empty_grid(4, 4, 1.0), ray_count=8)
    with pytest.raises(ValueError, match="scanned with this sensor"):
        Dataset("e", SensorConfig(fov=120.0, ray_count=16), 1, np.array([(1.0, 1.0, 0.0)]), env)


@pytest.mark.parametrize("extra, error", [({"seed": 99}, ValueError), ({"x": object()}, TypeError)])
def test_refused_header_leaves_an_existing_file_untouched(tmp_path, extra, error):
    path = tmp_path / "d.csv"
    path.write_bytes(b"keep me\n")
    with pytest.raises(error):
        save_dataset(_toy_dataset(3), path, extra_header=extra)
    assert path.read_bytes() == b"keep me\n"


def test_extra_header_keys_survive_save_and_are_ignored_by_load(tmp_path):
    d = _toy_dataset(4)
    path = tmp_path / "d.csv"
    save_dataset(d, path, extra_header={"invocation": "gen --n 4"})
    assert "invocation" in path.read_text().splitlines()[1]
    loaded = load_dataset(path)
    assert datasets_close(d, loaded)
    with pytest.raises(ValueError):
        save_dataset(d, path, extra_header={"seed": 99})


def test_pose_wrap_on_load(tmp_path):
    # a loaded theta is wrapped as Pose2D wraps it: -180 -> 180, -0 -> 0,
    # and many negative angles move by an ulp (-10.1 -> -10.100000000000023)
    path = tmp_path / "wrap.csv"
    header = (
        '#neuromap-dataset v1\n'
        '{"env_name": "e", "fov": 90.0, "max_range": 10.0, "n": 3, "ray_count": 2, "seed": 0}\n'
    )
    path.write_text(header + "0,1.5,2.5,-180,0.5,1\n1,1.5,2.5,-0,0,0.25\n2,3,4,-10.1,0.125,0.75\n")
    d = load_dataset(path)
    want = [Pose2D(1.5, 2.5, -180.0), Pose2D(1.5, 2.5, -0.0), Pose2D(3.0, 4.0, -10.1)]
    assert [Pose2D(*p) for p in d.poses_matrix().tolist()] == want
    theta = d.poses_matrix()[:, 2]
    assert theta.tobytes() == np.array([p.theta for p in want]).tobytes()
    assert theta.tolist() == [p.theta for p in want]
    # load -> save writes the wrapped angles
    save_dataset(d, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == header + (
        "0,1.5,2.5,180,0.5,1\n1,1.5,2.5,0,0,0.25\n2,3,4,-10.1,0.125,0.75\n"
    )


def test_dataset_validation():
    env = make_env(empty_grid(4, 4, 1.0), ray_count=8)
    poses, ranges = np.array([(1.0, 1.0, 0.0)]), np.full((1, 8), 0.5)
    Dataset("e", env.sensor, 1, poses, ranges)
    with pytest.raises(ValueError, match="ranges"):
        Dataset("e", env.sensor, 1, poses, np.full((1, 4), 0.5))  # sensor has 8 rays
    with pytest.raises(ValueError, match="ranges"):
        Dataset("e", env.sensor, 1, poses, np.full((2, 8), 0.5))  # one pose, two scans
    with pytest.raises(ValueError, match="poses"):
        Dataset("e", env.sensor, 1, poses[:, :2], ranges)
    with pytest.raises(ValueError):
        Dataset("", env.sensor, 1, poses, ranges)
    for bad in (np.nan, np.inf, -0.001, 1.0001):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset("e", env.sensor, 1, poses, np.full((1, 8), bad))
    for bad in ((np.nan, 1.0, 0.0), (1.0, np.inf, 0.0), (1.0, 1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            Dataset("e", env.sensor, 1, np.array([bad]), ranges)


def test_matrices_shapes_and_cache():
    d = _toy_dataset(6)
    r = d.ranges_matrix()
    p = d.poses_matrix()
    assert r.shape == (6, 8)
    assert p.shape == (6, 3)
    assert d.ranges_matrix() is r  # cached
    with pytest.raises(ValueError):
        r[0, 0] = 2.0  # read-only
