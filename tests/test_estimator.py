"""Oracle, k-NN, regressor inference, and the external process adapter."""

import math
import os
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from neuromap import estimator as estimator_module
from neuromap.capture import Dataset, generate_dataset, save_dataset
from neuromap.estimator import (
    INVERSE_WEIGHT_EPS,
    SCREEN_BYTES_IN_FLIGHT,
    SCREEN_GROUP,
    SCREEN_QUERIES,
    SCREEN_TILE_BYTES,
    WEIGHT_INVERSE,
    EstimatorUnavailableError,
    ExternalEstimator,
    KnnConfig,
    KnnEstimator,
    OracleConfig,
    OracleEstimator,
    RegressorEstimator,
    knn_estimate,
    knn_screen,
)
from neuromap.inputs import InputError
from neuromap.pose import (
    Pose2D,
    ang_diff,
    circular_mean,
    denormalize,
    normalize,
    wrap_angle,
)
from neuromap.training import RegressorModel, forward_batch
from neuromap.world import EnvironmentSpec, OccupancyGrid, SensorConfig
from worldgen import save_environment, with_metric_box

STUB = Path(__file__).parent / "external_stub.py"


def asym_env(ray_count=8, fov=360.0, max_range=12.0):
    g = OccupancyGrid(16, 10, 0.5, 0.0, 0.0, np.zeros((10, 16), bool))
    g = with_metric_box(g, 1.0, 1.0, 2.0, 3.5)
    g = with_metric_box(g, 5.0, 3.0, 7.0, 4.0)
    g = with_metric_box(g, 3.5, 0.5, 4.5, 1.5)
    return EnvironmentSpec(
        "asym", g, SensorConfig(fov=fov, ray_count=ray_count, max_range=max_range)
    )


def stub_cmd(*args):
    return [sys.executable, str(STUB), *args]


def inside(bounds, poses):
    x, y = poses[:, 0], poses[:, 1]
    return bool(np.all((bounds.x_min <= x) & (x <= bounds.x_max)
                       & (bounds.y_min <= y) & (y <= bounds.y_max)))


def centre(bounds):
    return [0.5 * (bounds.x_min + bounds.x_max), 0.5 * (bounds.y_min + bounds.y_max), 0.0]


def bits(poses):
    return np.asarray(poses, dtype=np.float64).tobytes()


def rows(ranges):
    """One-row ``estimate`` arguments, one per row of ``ranges``."""
    return [r[None, :] for r in np.asarray(ranges, dtype=np.float64)]


HALF = np.full((1, 8), 0.5)  # one 8-ray observation


# oracle -------------------------------------------------------------------------


def oracle_estimate(true_pose: Pose2D, cfg: OracleConfig, rng, bounds) -> Pose2D:
    """Reference oracle, one pose at a time: the true pose plus three scalar
    normal draws (x, y, theta), the position clamped into ``bounds`` with
    Python's min and max, theta wrapped by ``Pose2D``."""
    dx = rng.normal(0.0, cfg.sigma_pos)
    dy = rng.normal(0.0, cfg.sigma_pos)
    dt = rng.normal(0.0, cfg.sigma_theta)
    x = min(max(true_pose.x + dx, bounds.x_min), bounds.x_max)
    y = min(max(true_pose.y + dy, bounds.y_min), bounds.y_max)
    return Pose2D(x, y, true_pose.theta + dt)


@pytest.mark.parametrize("sigma", [0.0, 0.05, 2.0])
def test_oracle_block_draw_matches_the_scalar_oracle(sigma):
    # one (m, 3) normal draw per call gives the scalar oracle's bits and
    # leaves the generator where three scalar draws per row leave it
    env = asym_env()
    b = env.bounds
    cfg = OracleConfig(sigma_pos=sigma, sigma_theta=40.0 * sigma, seed=31)
    rng = np.random.default_rng(77)
    truths = np.column_stack([
        rng.uniform(b.x_min, b.x_max, 5000),
        rng.uniform(b.y_min, b.y_max, 5000),
        rng.choice([-179.99, 180.0, 0.0, 179.99, 90.0], 5000) + rng.uniform(-0.01, 0.01, 5000),
    ])
    truths[:, 2] = [wrap_angle(t) for t in truths[:, 2]]  # as a Dataset holds them
    ref_rng = np.random.default_rng(cfg.seed)
    want = [oracle_estimate(Pose2D(*t), cfg, ref_rng, b) for t in truths.tolist()]
    est = OracleEstimator(cfg, env)
    got = est.estimate(np.zeros((5000, 8)), truths)
    assert bits(got) == bits([[p.x, p.y, p.theta] for p in want])
    assert est._rng.bit_generator.state == ref_rng.bit_generator.state
    if sigma == 2.0:  # the clamp and the wrap both ran
        assert np.isin(got[:, 0], [b.x_min, b.x_max]).any()
        assert (np.abs(got[:, 2] - truths[:, 2]) > 180.0).any()


def test_oracle_zero_sigma_is_identity():
    env = asym_env()
    truths = np.array([[3.25, 1.5, 77.0], [0.0, 5.0, 180.0], [8.0, 0.0, -179.5]])
    got = OracleEstimator(OracleConfig(), env).estimate(np.zeros((3, 8)), truths)
    assert bits(got) == bits(truths)


def test_oracle_noise_statistics():
    # sample std of the x-error over 1e5 estimates within 3% of sigma;
    # sample mean within 3 standard errors of zero
    env = asym_env()
    est = OracleEstimator(OracleConfig(sigma_pos=0.02, sigma_theta=1.0, seed=9), env)
    truths = np.tile([4.0, 2.5, 0.0], (100_000, 1))
    errs = est.estimate(np.zeros((len(truths), 8)), truths)[:, 0] - 4.0
    assert abs(errs.std() - 0.02) <= 0.03 * 0.02
    assert abs(errs.mean()) <= 3.0 * 0.02 / math.sqrt(errs.size)


def test_oracle_wraps_theta():
    env = asym_env()
    est = OracleEstimator(OracleConfig(sigma_theta=180.0, seed=3), env)
    t = est.estimate(np.zeros((500, 8)), np.tile([4.0, 2.5, 170.0], (500, 1)))[:, 2]
    assert np.all((-180.0 < t) & (t <= 180.0))


def test_oracle_estimator_clamps_to_bounds():
    env = asym_env()
    est = OracleEstimator(OracleConfig(sigma_pos=5.0, seed=1), env)
    b = env.bounds
    r = est.estimate(np.full((200, 8), 0.5), np.tile([7.8, 4.8, 0.0], (200, 1)))
    assert inside(b, r)
    assert np.isin(r[:, 0], [b.x_min, b.x_max]).any() or np.isin(r[:, 1], [b.y_min, b.y_max]).any()


def test_oracle_estimator_determinism_and_preconditions():
    env = asym_env()

    def run():
        e = OracleEstimator(OracleConfig(sigma_pos=0.1, sigma_theta=2.0, seed=4), env)
        return [e.estimate(HALF, [[4.0, 2.0, 30.0 * i]]) for i in range(10)]

    assert bits(run()) == bits(run())
    e = OracleEstimator(OracleConfig(), env)
    with pytest.raises(RuntimeError, match="true_poses"):
        e.estimate(HALF)
    with pytest.raises(ValueError, match=r"ranges must be \(m, 8\)"):
        e.estimate(np.full((1, 5), 0.5), [[1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match=r"ranges must be \(m, 8\)"):
        e.estimate(np.full(8, 0.5), [[1.0, 1.0, 0.0]])  # a row, not a block of rows
    with pytest.raises(ValueError, match="true poses"):
        e.estimate(HALF, [1.0, 1.0, 0.0])


def test_oracle_batch_draws_what_a_loop_of_estimate_calls_draws():
    env = asym_env()
    cfg = OracleConfig(sigma_pos=0.3, sigma_theta=4.0, seed=21)
    rng = np.random.default_rng(5)
    ranges = rng.uniform(0.0, 1.0, (12, 8))
    truths = np.column_stack([rng.uniform(0.5, 4.5, (12, 2)), rng.uniform(-180, 180, 12)])
    looped = OracleEstimator(cfg, env)
    want = [looped.estimate(r, t[None, :]) for r, t in zip(rows(ranges), truths)]
    batched = OracleEstimator(cfg, env)
    assert bits(batched.estimate(ranges, truths)) == bits(want)
    # the stream continues where the block left it, as after the loop
    assert bits(batched.estimate(ranges[:1], truths[:1])) == bits(
        looped.estimate(ranges[:1], truths[:1])
    )
    with pytest.raises(ValueError, match=r"12 observations need true poses of shape \(12, 3\)"):
        batched.estimate(ranges, truths[:-1])


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(sigma_pos=-0.1)
    # 10-sigma draws must stay finite, as navigation's odometry noise must
    assert OracleConfig(sigma_pos=1e307, sigma_theta=1e307).sigma_pos == 1e307
    for field in ("sigma_pos", "sigma_theta"):
        with pytest.raises(InputError, match=f"{field} = 1e\\+308: a 10-sigma draw overflows"):
            OracleConfig(**{field: 1e308})
    with pytest.raises(ValueError):
        KnnConfig(k=0)
    with pytest.raises(ValueError):
        KnnConfig(weighting="fancy")


# k-NN ---------------------------------------------------------------------------


def knn(db, q, cfg):
    """The k-NN estimate for one query row ``q``."""
    return KnnEstimator(db, cfg).estimate(np.asarray(q, dtype=np.float64)[None, :])[0]


def test_knn_exact_match_k1():
    env = asym_env()
    db = generate_dataset(env, 50, seed=2)
    est = knn(db, db.ranges_matrix()[7], KnnConfig(k=1))
    assert bits(est) == bits(db.poses_matrix()[7])  # verbatim, not a reconstruction


def test_knn_equidistant_pair_hand_case():
    sensor = SensorConfig(fov=90.0, ray_count=4, max_range=10.0)
    db = Dataset("e", sensor, 0, [(0.0, 0.0, -10.0), (2.0, 0.0, 10.0)], [[0.4] * 4, [0.6] * 4])
    est = knn(db, np.full(4, 0.5), KnnConfig(k=2, weighting="uniform"))
    assert est.tolist() == [1.0, 0.0, 0.0]


def test_knn_full_database_uniform_is_centroid():
    env = asym_env()
    db = generate_dataset(env, 40, seed=3)
    x, y, theta = knn(db, np.full(8, 0.31), KnnConfig(k=40, weighting="uniform"))
    poses = db.poses_matrix()
    assert abs(x - poses[:, 0].mean()) < 1e-12
    assert abs(y - poses[:, 1].mean()) < 1e-12
    assert abs(ang_diff(theta, circular_mean(poses[:, 2]))) < 1e-9


def test_knn_tie_breaks_toward_lower_id():
    dup, far = [0.5] * 4, [0.9] * 4
    sensor = SensorConfig(fov=90.0, ray_count=4, max_range=10.0)
    poses = [(5.0, 5.0, 0.0), (3.0, 3.0, 90.0), (6.0, 6.0, 0.0), (1.0, 1.0, 0.0)]
    # row 3 has row 1's observation and a higher id
    db = Dataset("e", sensor, 0, poses, [far, dup, far, dup])
    assert knn(db, dup, KnnConfig(k=1)).tolist() == [3.0, 3.0, 90.0]


def test_knn_inverse_distance_weights():
    sensor = SensorConfig(fov=90.0, ray_count=2, max_range=10.0)
    db = Dataset("e", sensor, 0, [(0.0, 0.0, 0.0), (4.0, 0.0, 0.0)], [[0.5, 0.5], [0.5, 0.8]])
    est = knn(db, [0.5, 0.6], KnnConfig(k=2))
    w0 = 1.0 / (0.1 + 1e-9)
    w1 = 1.0 / (0.2 + 1e-9)
    expect = 4.0 * w1 / (w0 + w1)
    assert abs(est[0] - expect) < 1e-9


def test_knn_exact_match_dominates_inverse_weighting():
    env = asym_env()
    db = generate_dataset(env, 30, seed=4)
    x, y, _ = knn(db, db.ranges_matrix()[11], KnnConfig(k=3))
    tx, ty, _ = db.poses_matrix()[11]
    assert math.hypot(x - tx, y - ty) < 1e-6


def test_knn_validation():
    env = asym_env()
    db = generate_dataset(env, 5, seed=5)
    with pytest.raises(ValueError):
        KnnEstimator(db, KnnConfig(k=6))
    empty = Dataset("e", env.sensor, 0, np.zeros((0, 3)), np.zeros((0, env.sensor.ray_count)))
    with pytest.raises(ValueError):
        KnnEstimator(empty, KnnConfig())
    est = KnnEstimator(db, KnnConfig(k=2))
    with pytest.raises(ValueError):
        est.estimate(np.full((1, 3), 0.5))
    with pytest.raises(ValueError):
        est.estimate(db.ranges_matrix()[0])  # a row, not a block of rows
    assert est.estimate(np.zeros((0, 8))).shape == (0, 3)
    for bad in (1.0001, -0.001, np.nan, np.inf, -np.inf):
        q = np.full((2, 8), 0.5)
        q[1, 3] = bad
        with pytest.raises(ValueError, match=r"ranges must all lie in \[0, 1\]"):
            est.estimate(q)
    assert est.estimate(np.array([[0.0] * 4 + [1.0] * 4])).shape == (1, 3)  # both ends allowed


def test_knn_estimator_matches_function():
    env = asym_env()
    db = generate_dataset(env, 60, seed=6)
    cfg = KnnConfig(k=5)
    est = KnnEstimator(db, cfg)
    queries = generate_dataset(env, 10, seed=7).ranges_matrix()
    got = est.estimate(queries)
    want = [knn_estimate(db, q, cfg) for q in knn_screen(db, queries, cfg.k)]
    assert bits(got) == bits(want)


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("weighting", ["uniform", "inverse-distance"])
def test_knn_block_estimate_matches_row_by_row(k, weighting, monkeypatch):
    # blocks of 7 screened queries: the 40 rows span several screen blocks,
    # each scored in tiles of k groups
    env = asym_env()
    db = generate_dataset(env, 200, seed=14)
    monkeypatch.setattr(estimator_module, "SCREEN_QUERIES", 7)
    monkeypatch.setattr(estimator_module, "SCREEN_TILE_BYTES", 8)
    queries = np.vstack([generate_dataset(env, 37, seed=15).ranges_matrix(),
                         db.ranges_matrix()[[3, 3, 150]]])
    est = KnnEstimator(db, KnnConfig(k=k, weighting=weighting))
    block = est.estimate(queries)
    assert bits(block) == bits([est.estimate(r) for r in rows(queries)])
    if k == 1:  # the stored rows themselves
        assert bits(block[-3:]) == bits(db.poses_matrix()[[3, 3, 150]])


def test_knn_screen_records_carry_their_query_rows():
    # perfbench's _knn_bytes reads .ranges.size from the query that each
    # knn_estimate call gets, so each record carries its own query row
    env = asym_env()
    db = generate_dataset(env, 80, seed=16)
    queries = generate_dataset(env, 9, seed=17).ranges_matrix()
    records = knn_screen(db, queries, 3)
    assert len(records) == len(queries)
    for q, record in zip(queries, records):
        assert bits(record.ranges) == bits(q) and record.ranges.shape == (8,)
        assert np.all(np.diff(record.ids) > 0) and len(record.ids) >= 3


def test_knn_error_decreases_with_database_density():
    # median over 3 seeds of mean position error on a fixed 200-query set,
    # strictly decreasing across database sizes 1e2, 1e3, 1e4
    env = asym_env()
    queries = generate_dataset(env, 200, seed=999)
    truths = queries.poses_matrix()
    errs = {n: [] for n in (100, 1000, 10_000)}
    for n in errs:
        for seed in (11, 22, 33):
            db = generate_dataset(env, n, seed=seed)
            est = KnnEstimator(db, KnnConfig(k=5)).estimate(queries.ranges_matrix())
            e = np.hypot(est[:, 0] - truths[:, 0], est[:, 1] - truths[:, 1])
            errs[n].append(float(np.mean(e)))
    med = {n: sorted(v)[1] for n, v in errs.items()}
    assert med[100] > med[1000] > med[10_000], med


# k-NN exactness against the full scan --------------------------------------------


def knn_full_scan(db, q, cfg):
    """Reference k-NN: the direct distance to every row, then a (distance, id)
    lexsort. The k-NN estimator must match it bit for bit."""
    R = db.ranges_matrix()
    q = np.asarray(q, dtype=np.float64)
    d = np.sqrt(((R - q) ** 2).sum(axis=1))
    ids = np.arange(len(db))  # a sample's id is its row number
    order = np.lexsort((ids, d))  # distance first, then id
    sel = order[: cfg.k]
    if cfg.k == 1:
        return db.poses_matrix()[sel[0]]
    if cfg.weighting == WEIGHT_INVERSE:
        w = 1.0 / (d[sel] + INVERSE_WEIGHT_EPS)
    else:
        w = np.ones(cfg.k)
    poses = db.poses_matrix()[sel]
    wsum = w.sum()
    x = float((w * poses[:, 0]).sum() / wsum)
    y = float((w * poses[:, 1]).sum() / wsum)
    theta = circular_mean(poses[:, 2], weights=w)
    return [x, y, theta]


def random_db(rng, n, rays, rows=None):
    rows = rng.uniform(0.0, 1.0, (n, rays)) if rows is None else rows
    sensor = SensorConfig(fov=360.0, ray_count=rays, max_range=10.0)
    poses = [(*rng.uniform(-5.0, 5.0, 2), rng.uniform(-180, 180)) for _ in rows]
    return Dataset("e", sensor, 0, poses, rows)


def screen_tile(db, queries, k):
    """The database rows per score tile that ``knn_screen`` uses for
    ``queries``, whatever their count: the module's tile bytes over its
    block of queries, at least k groups and at most the database."""
    block = min(len(queries), estimator_module.SCREEN_QUERIES)
    return min(len(db), max(k * SCREEN_GROUP, estimator_module.SCREEN_TILE_BYTES // (8 * block)))


def screen_by_partition(db, queries, k):
    """The survivor ids of the screen that partitions a copy of each block's
    scores to read each query's k-th: the blocks, score tiles and threshold
    of ``knn_screen``, which must keep the same rows, id for id."""
    R = db.ranges_matrix()
    norms_sq = db.range_norms_sq()
    n, m = R.shape
    c = math.sqrt(norms_sq.max()) + np.sqrt(np.einsum("ij,ij->i", queries, queries))
    tol = 8.0 * (m + 2) * np.finfo(np.float64).eps * c * c
    block = max(1, min(len(queries), estimator_module.SCREEN_QUERIES))
    tile = screen_tile(db, queries, k)
    survivors = []
    for start in range(0, len(queries), block):
        stop = min(start + block, len(queries))
        tiles = []
        for lo in range(0, n, tile):
            a = np.empty((stop - start, min(tile, n - lo)))
            np.matmul(queries[start:stop], R[lo : lo + tile].T, out=a)
            a *= -2.0
            a += norms_sq[lo : lo + tile]
            tiles.append(a)
        a = np.hstack(tiles)
        p = np.partition(a, k - 1, axis=1)
        rows, ids = np.divmod(np.flatnonzero(a <= (p[:, k - 1] + tol[start:stop])[:, None]), n)
        survivors += np.split(ids, np.searchsorted(rows, np.arange(1, stop - start)))
    return survivors


def assert_screen_matches_partition(db, queries, ks, counts):
    """``knn_screen``'s survivors equal ``screen_by_partition``'s for the
    first ``count`` queries, with 1 and 2 CPUs in the affinity mask."""
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            for k in ks:
                for count in counts:
                    got = [q.ids for q in knn_screen(db, queries[:count], k)]
                    want = screen_by_partition(db, queries[:count], k)
                    assert len(got) == len(want) == count, (cpus, k, count)
                    for i, (g, w) in enumerate(zip(got, want)):
                        assert g.dtype == w.dtype and np.array_equal(g, w), (cpus, k, count, i)


def assert_knn_matches_full_scan(db, queries, ks, monkeypatch, tile_bytes=8):
    """One-row and block ``estimate`` calls of the k-NN estimator against the
    full scan, bit for bit, and the screen against the partition screen. The
    blocks screen len(queries) - 1 queries at a time, so they cover 1,
    block - 1, block and block + 1 queries; ``tile_bytes`` sets the score
    tiles, by default k groups each, for one-row calls as for blocks."""
    block = max(1, len(queries) - 1)
    monkeypatch.setattr(estimator_module, "SCREEN_QUERIES", block)
    monkeypatch.setattr(estimator_module, "SCREEN_TILE_BYTES", tile_bytes)
    queries = np.array(queries)
    counts = sorted({1, block - 1, block, block + 1} - {0})
    assert_screen_matches_partition(db, queries, ks, counts)
    for k in ks:
        for weighting in ("uniform", "inverse-distance"):
            cfg = KnnConfig(k=k, weighting=weighting)
            est = KnnEstimator(db, cfg)
            want = [bits(knn_full_scan(db, q, cfg)) for q in queries]
            got = [bits(est.estimate(r)) for r in rows(queries)]
            assert got == want, (k, weighting)
            for count in counts:
                got = [bits(e) for e in est.estimate(queries[:count])]
                assert got == want[:count], (k, weighting, count)


@pytest.mark.parametrize(
    "n,rays", [(1, 1), (7, 3), (64, 16), (200, 10), (319, 10), (500, 96), (641, 12), (650, 12), (3000, 8)]
)
def test_knn_matches_full_scan_on_random_databases(n, rays, monkeypatch):
    # Tiles of k groups. Below k = 5 groups (200 and 319 rows) the database
    # is one tile, whose bound is inf below k minima (200 rows: every row is
    # a candidate). 641 and 650 rows end in a tile shorter than a group (1
    # and 10 rows) for k = 1 and k = 5, and k = n is one tile of every row.
    rng = np.random.default_rng(n * 1000 + rays)
    db = random_db(rng, n, rays)
    R = db.ranges_matrix()
    # fresh queries plus database rows themselves (exact matches, d = 0)
    queries = [*rng.uniform(0.0, 1.0, (6, rays)), R[0], R[n // 2]]
    assert_knn_matches_full_scan(db, queries, sorted({1, min(5, n), n}), monkeypatch)


def test_knn_batch_of_one_real_screen_block_matches_full_scan(monkeypatch):
    # the block and tile that SCREEN_QUERIES and SCREEN_TILE_BYTES give, and
    # one more query, over two whole tiles of 8-ray rows and a short third
    tile = SCREEN_TILE_BYTES // (8 * SCREEN_QUERIES)
    rng = np.random.default_rng(3008)
    db = random_db(rng, 2 * tile + 100, 8)
    assert screen_tile(db, np.zeros((SCREEN_QUERIES, 8)), 5) == tile
    queries = [*rng.uniform(0.0, 1.0, (SCREEN_QUERIES - 1, 8)), *db.ranges_matrix()[:2]]
    assert_knn_matches_full_scan(db, queries, [1, 5, len(db)], monkeypatch, SCREEN_TILE_BYTES)


def test_knn_screen_under_frequent_thread_switches(monkeypatch):
    # one query per block on 8 threads, more than a small host has cores, each
    # thread with its own score tile; 320-row tiles (k groups) over 700 rows
    rng = np.random.default_rng(31)
    db = random_db(rng, 700, 16)
    queries = np.vstack([rng.uniform(0.0, 1.0, (40, 16)), db.ranges_matrix()[:8]])
    monkeypatch.setattr(estimator_module, "SCREEN_QUERIES", 1)
    monkeypatch.setattr(estimator_module, "SCREEN_TILE_BYTES", 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [q.ids for q in knn_screen(db, queries, 5)]
    finally:
        sys.setswitchinterval(interval)
    want = screen_by_partition(db, queries, 5)
    assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


def test_knn_matches_full_scan_on_duplicate_rows(monkeypatch):
    # each distinct row appears several times under scattered ids, so every
    # k cuts through a group of exact distance ties
    rng = np.random.default_rng(17)
    distinct = rng.uniform(0.0, 1.0, (5, 12))
    rows = distinct[rng.integers(0, 5, 60)]
    db = random_db(rng, 60, 12, rows=rows)
    queries = [*distinct, (distinct[0] + distinct[1]) / 2, rng.uniform(0.0, 1.0, 12)]
    assert_knn_matches_full_scan(db, queries, [1, 2, 3, 5, 11, 12, 13, 29, 60], monkeypatch)


def test_knn_matches_full_scan_on_duplicate_rows_across_groups(monkeypatch):
    # 300 rows (4 whole groups of 64 and a tail) drawn from 5 distinct rows:
    # each group minimum ties with rows in every other group
    rng = np.random.default_rng(19)
    distinct = rng.uniform(0.0, 1.0, (5, 12))
    db = random_db(rng, 300, 12, rows=distinct[rng.integers(0, 5, 300)])
    queries = [*distinct, (distinct[0] + distinct[1]) / 2, rng.uniform(0.0, 1.0, 12)]
    assert_knn_matches_full_scan(db, queries, [1, 2, 3, 5, 6, 59, 60, 61, 300], monkeypatch)


def test_knn_matches_full_scan_on_one_ulp_near_ties(monkeypatch):
    # rows 1 ulp away from the query in one or more rays, interleaved with
    # exact copies and rows 1 ulp apart from each other: the screen's
    # rounding must keep every one of them for the exact re-rank
    rng = np.random.default_rng(23)
    rays = 48
    q = rng.uniform(0.25, 0.75, rays)
    up, down = np.nextafter(q, 2.0), np.nextafter(q, -1.0)
    rows = []
    for i in range(80):
        r = q.copy()
        picks = rng.choice(rays, size=1 + i % 4, replace=False)
        r[picks] = (up if i % 2 else down)[picks]
        rows.append(q.copy() if i % 5 == 0 else r)
    rows += list(rng.uniform(0.0, 1.0, (40, rays)))
    rows = np.array(rows)[rng.permutation(len(rows))]
    db = random_db(rng, len(rows), rays, rows=rows)
    queries = [q, up, down, rows[0], rows[1]]
    assert_knn_matches_full_scan(db, queries, [1, 2, 5, 16, 17, 40, 80, 120], monkeypatch)


# k-NN screen tiles ---------------------------------------------------------------


def test_knn_screen_ties_straddling_tile_edges(monkeypatch):
    # rows 250-399 are copies of one row and straddle the tile edges at 256,
    # 320 and 384 (tiles of 64, 128, 192 and 320 rows for k = 1, 2, 3, 5);
    # copies of a second row are scattered over the rest, so each k cuts
    # through exact distance ties that cross a tile edge
    rng = np.random.default_rng(43)
    distinct = rng.uniform(0.0, 1.0, (2, 12))
    rows = rng.uniform(0.0, 1.0, (700, 12))
    rows[250:400] = distinct[0]
    rows[rng.choice(np.r_[0:250, 400:700], 40, replace=False)] = distinct[1]
    db = random_db(rng, 700, 12, rows=rows)
    queries = [*distinct, (distinct[0] + distinct[1]) / 2, np.nextafter(distinct[0], 2.0),
               rng.uniform(0.0, 1.0, 12)]
    assert_knn_matches_full_scan(db, queries, [1, 2, 3, 5, 40, 41, 150, 151, 190], monkeypatch)
    for q in knn_screen(db, np.array(queries[:1] * 2), 5):
        assert np.array_equal(q.ids, np.arange(250, 400))  # every tie survives


def test_knn_screen_memory_does_not_grow_with_the_database(monkeypatch):
    # 64 queries (two blocks) offered 8 CPUs, over databases 10x apart: the
    # screen's traced peak stays under the in-flight cap of the threads'
    # score tiles and masks, plus a small margin
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    rng = np.random.default_rng(47)
    sensor = SensorConfig(fov=360.0, ray_count=16, max_range=10.0)
    queries = rng.uniform(0.0, 1.0, (2 * SCREEN_QUERIES, 16))
    peaks = {}
    for n in (8_000, 80_000):
        db = Dataset("e", sensor, 0, np.zeros((n, 3)), rng.uniform(0.0, 1.0, (n, 16)))
        db.range_norms_sq()  # cached, as a loaded estimator's database has it
        tracemalloc.start()
        try:
            screened = knn_screen(db, queries, 5)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(q.ids) for q in screened] == [5] * len(queries)
    assert max(peaks.values()) < SCREEN_BYTES_IN_FLIGHT + (256 << 10), peaks


# regressor ----------------------------------------------------------------------


def test_regressor_zero_model_predicts_centre():
    env = asym_env(ray_count=8)
    model = RegressorModel.zeros((8, 3), env_name="asym", sensor=env.sensor)
    est = RegressorEstimator(model, env)
    assert est.estimate(HALF)[0].tolist() == centre(env.bounds)


def head_oracle(model, ranges, b):
    """The pose the old path gave: forward's one output row turned into a
    NormalizedPose by _head_to_normalized, then the scalar denormalize."""
    row = forward_batch(model, ranges[None, :])[0]
    if model.yaw_mode == "tanh":
        nx, ny, ntheta = float(row[0]), float(row[1]), float(row[2])
    else:
        nx, ny = float(row[0]), float(row[1])
        ntheta = math.degrees(math.atan2(float(row[2]), float(row[3]))) / 180.0
    x = b.x_min + (nx + 1.0) * 0.5 * b.width
    y = b.y_min + (ny + 1.0) * 0.5 * b.height
    return [x, y, wrap_angle(ntheta * 180.0)]


def test_regressor_estimates_stay_in_bounds():
    env = asym_env(ray_count=8)
    rng = np.random.default_rng(8)
    for _ in range(20):
        model = RegressorModel.random((8, 16, 3), rng, env_name="asym", sensor=env.sensor)
        est = RegressorEstimator(model, env)
        ranges = rng.uniform(0, 1, 8)
        r = est.estimate(ranges[None, :])
        assert inside(env.bounds, r)
        assert bits(r[0]) == bits(head_oracle(model, ranges, env.bounds))


@pytest.mark.parametrize("yaw_mode", ["tanh", "sincos"])
def test_regressor_matches_the_scalar_head_path(yaw_mode):
    # tanh: the old path's bits; sincos: np.arctan2 for math.atan2 and no
    # /180 *180 round trip, within 1e-12 degrees
    rng = np.random.default_rng(41)
    out_dim = 3 if yaw_mode == "tanh" else 4
    for trial in range(40):
        rays = int(rng.integers(1, 12))
        dims = (rays, *rng.integers(1, 24, size=trial % 3), out_dim)
        env = asym_env(ray_count=rays)
        model = RegressorModel.random(dims, rng, yaw_mode, env_name="asym", sensor=env.sensor)
        model.params *= rng.uniform(0.5, 8.0)  # reach the saturated head too
        est = RegressorEstimator(model, env)
        block = rng.uniform(0.0, 1.0, (25, rays))
        got = est.estimate(block)
        # a block is inferred one row per product, so it has each row's bits
        assert bits(got) == bits([est.estimate(r) for r in rows(block)])
        for ranges, pose in zip(block, got):
            want = head_oracle(model, ranges, env.bounds)
            assert bits(pose[:2]) == bits(want[:2])
            if yaw_mode == "tanh":
                assert bits(pose) == bits(want)
            else:
                assert abs(ang_diff(pose[2], want[2])) <= 1e-12


def test_regressor_validation():
    env = asym_env(ray_count=8)
    other = RegressorModel.zeros((8, 3), env_name="elsewhere", sensor=env.sensor)
    with pytest.raises(InputError, match="model belongs to world 'elsewhere', not 'asym'"):
        RegressorEstimator(other, env)
    wrong_sensor = RegressorModel.zeros(
        (8, 3), env_name="asym", sensor=SensorConfig(fov=90.0, ray_count=8, max_range=5.0)
    )
    with pytest.raises(InputError, match="model sensor .* does not match"):
        RegressorEstimator(wrong_sensor, env)
    est = RegressorEstimator(RegressorModel.zeros((8, 3), env_name="asym", sensor=env.sensor), env)
    assert (est.env_name, est.sensor) == ("asym", env.sensor)
    with pytest.raises(ValueError):
        est.estimate(np.full((1, 4), 0.5))


def overflowing_model(env):
    """A model with finite parameters whose outputs are NaN: the hidden
    layer overflows to inf, and the head subtracts inf from inf."""
    model = RegressorModel.zeros((8, 2, 3), env_name=env.name, sensor=env.sensor)
    model.weights[0][:] = 1e308
    model.weights[1][:] = [1e300, -1e300]
    return model


def test_regressor_non_finite_output_is_estimator_failure():
    env = asym_env(ray_count=8)
    est = RegressorEstimator(overflowing_model(env), env)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow warns nothing
        with pytest.raises(EstimatorUnavailableError, match="estimate for observation 0 is not"):
            est.estimate(np.full((3, 8), 0.5))


# external -----------------------------------------------------------------------


def test_external_const_centre():
    env = asym_env()
    with ExternalEstimator(stub_cmd(), env) as est:
        r = est.estimate(HALF)
    assert r.tolist() == [centre(env.bounds)]


def test_external_batch_sends_request_ids_in_order(tmp_path):
    env = asym_env()
    log = tmp_path / "ids.txt"
    ranges = np.random.default_rng(6).uniform(0.0, 1.0, (7, 8))
    with ExternalEstimator(stub_cmd("--log", str(log)), env) as est:
        got = est.estimate(ranges)
        one = est.estimate(ranges[:1])
    assert got.tolist() == one.tolist() * len(ranges)
    assert log.read_text().split() == [str(i) for i in range(len(ranges) + 1)]


def test_external_out_of_range_is_clamped():
    env = asym_env()
    with ExternalEstimator(stub_cmd("--nx", "2.0"), env) as est:
        r = est.estimate(HALF)
    assert r[0, 0] == env.bounds.x_max


def test_external_knn_differential(tmp_path):
    env = asym_env()
    db_path = tmp_path / "db.csv"
    env_path = tmp_path / "asym.grid"
    save_dataset(generate_dataset(env, 300, seed=12), db_path)
    save_environment(env, env_path)
    queries = generate_dataset(env, 100, seed=13)
    # compare against the same on-disk database the stub loads: the dataset
    # file carries 9 significant digits, so the in-memory original differs
    from neuromap.capture import load_dataset

    internal = KnnEstimator(load_dataset(db_path), KnnConfig(k=5))
    cmd = stub_cmd("--mode", "knn", "--db", str(db_path), "--env", str(env_path), "--k", "5")
    with ExternalEstimator(cmd, env) as est:
        got = est.estimate(queries.ranges_matrix())
    want = internal.estimate(queries.ranges_matrix())
    # the channel transmits normalised values exactly (repr floats), so the
    # adapter output equals the internal pose pushed through the same
    # normalise/denormalise round trip, bit for bit
    round_trip = denormalize(normalize(want, env.bounds), env.bounds)
    assert [Pose2D(*p) for p in got.tolist()] == [Pose2D(*p) for p in round_trip.tolist()]
    assert np.all(np.abs(got[:, :2] - want[:, :2]) < 1e-9)
    assert all(abs(ang_diff(g, w)) < 1e-9 for g, w in zip(got[:, 2], want[:, 2]))


@pytest.mark.parametrize("mode", ["garbage", "badid"])
def test_external_protocol_errors(mode):
    env = asym_env()
    with ExternalEstimator(stub_cmd("--mode", mode), env) as est:
        with pytest.raises(EstimatorUnavailableError):
            est.estimate(HALF)
        # channel poisoned after the first failure
        with pytest.raises(EstimatorUnavailableError, match="poisoned"):
            est.estimate(HALF)


@pytest.mark.parametrize("mode", ["hang", "partial"])
def test_external_timeout(mode):
    env = asym_env()
    with ExternalEstimator(stub_cmd("--mode", mode), env, timeout=0.3) as est:
        with pytest.raises(EstimatorUnavailableError, match="0.3"):
            est.estimate(HALF)


def test_external_process_exit():
    env = asym_env()
    with ExternalEstimator(stub_cmd("--mode", "exit"), env) as est:
        with pytest.raises(EstimatorUnavailableError):
            est.estimate(HALF)


def test_external_missing_binary():
    env = asym_env()
    with pytest.raises(EstimatorUnavailableError):
        ExternalEstimator(["/nonexistent/estimator"], env)


def test_external_quit_on_close():
    env = asym_env()
    est = ExternalEstimator(stub_cmd(), env)
    est.estimate(HALF)
    est.close()
    assert est._proc.returncode == 0  # stub honoured QUIT
    est.close()  # idempotent


def test_external_is_reaped_when_its_with_block_raises():
    env = asym_env()
    with pytest.raises(KeyError):
        with ExternalEstimator(stub_cmd(), env) as est:
            est.estimate(HALF)
            raise KeyError("body failed")
    assert est._proc.returncode == 0  # QUIT sent and the stub exited
