"""Oracle, k-NN, regressor inference, and the external process adapter."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from neuromap import estimator as estimator_module
from neuromap.capture import Dataset, generate_dataset, save_dataset
from neuromap.estimator import (
    INVERSE_WEIGHT_EPS,
    SCREEN_BLOCK_BYTES,
    WEIGHT_INVERSE,
    EstimatorUnavailableError,
    ExternalEstimator,
    KnnConfig,
    KnnEstimator,
    OracleConfig,
    OracleEstimator,
    RegressorEstimator,
    knn_estimate,
    oracle_estimate,
)
from neuromap.inputs import InputError
from neuromap.pose import EnvBounds, Pose2D, ang_diff, circular_mean, denormalize, normalize
from neuromap.training import RegressorModel, forward_batch
from neuromap.world import (
    EnvironmentSpec,
    Observation,
    OccupancyGrid,
    SensorConfig,
    save_environment,
)

STUB = Path(__file__).parent / "external_stub.py"


def asym_env(ray_count=8, fov=360.0, max_range=12.0):
    g = OccupancyGrid(16, 10, 0.5, 0.0, 0.0, np.zeros((10, 16), bool))
    g = g.with_metric_box(1.0, 1.0, 2.0, 3.5)
    g = g.with_metric_box(5.0, 3.0, 7.0, 4.0)
    g = g.with_metric_box(3.5, 0.5, 4.5, 1.5)
    return EnvironmentSpec(
        "asym", g, SensorConfig(fov=fov, ray_count=ray_count, max_range=max_range)
    )


def stub_cmd(*args):
    return [sys.executable, str(STUB), *args]


def inside(bounds, pose):
    return bounds.x_min <= pose.x <= bounds.x_max and bounds.y_min <= pose.y <= bounds.y_max


def centre(bounds):
    return Pose2D(0.5 * (bounds.x_min + bounds.x_max), 0.5 * (bounds.y_min + bounds.y_max), 0.0)


WIDE = EnvBounds(-100.0, 100.0, -100.0, 100.0)


# oracle -------------------------------------------------------------------------


def test_oracle_zero_sigma_is_identity():
    rng = np.random.default_rng(0)
    p = Pose2D(3.25, -1.5, 77.0)
    assert oracle_estimate(p, OracleConfig(), rng, WIDE) == p


def test_oracle_noise_statistics():
    # sample std of the x-error over 1e5 calls within 3% of sigma; sample
    # mean within 3 standard errors of zero
    cfg = OracleConfig(sigma_pos=0.02, sigma_theta=1.0, seed=9)
    rng = np.random.default_rng(cfg.seed)
    p = Pose2D(5.0, 5.0, 0.0)
    errs = np.empty(100_000)
    for i in range(errs.size):
        errs[i] = oracle_estimate(p, cfg, rng, WIDE).x - p.x
    assert abs(errs.std() - 0.02) <= 0.03 * 0.02
    assert abs(errs.mean()) <= 3.0 * 0.02 / math.sqrt(errs.size)


def test_oracle_wraps_theta():
    cfg = OracleConfig(sigma_theta=180.0, seed=3)
    rng = np.random.default_rng(cfg.seed)
    p = Pose2D(0.0, 0.0, 170.0)
    for _ in range(500):
        t = oracle_estimate(p, cfg, rng, WIDE).theta
        assert -180.0 < t <= 180.0


def test_oracle_estimator_clamps_to_bounds():
    env = asym_env()
    est = OracleEstimator(OracleConfig(sigma_pos=5.0, seed=1), env)
    obs = Observation(np.full(8, 0.5))
    b = env.bounds
    clamped_seen = False
    for _ in range(200):
        r = est.estimate(obs, Pose2D(7.8, 4.8, 0.0))
        assert inside(b, r)
        clamped_seen = clamped_seen or r.x in (b.x_min, b.x_max) or r.y in (b.y_min, b.y_max)
    assert clamped_seen


def test_oracle_estimator_determinism_and_preconditions():
    env = asym_env()
    obs = Observation(np.full(8, 0.5))

    def run():
        e = OracleEstimator(OracleConfig(sigma_pos=0.1, sigma_theta=2.0, seed=4), env)
        out = []
        for i in range(10):
            out.append(e.estimate(obs, Pose2D(4.0, 2.0, 30.0 * i)))
        return out

    assert run() == run()
    e = OracleEstimator(OracleConfig(), env)
    with pytest.raises(RuntimeError, match="true_pose"):
        e.estimate(obs)
    with pytest.raises(ValueError):
        e.estimate(Observation(np.full(5, 0.5)), Pose2D(1.0, 1.0, 0.0))


def test_oracle_batch_draws_what_a_loop_of_estimate_calls_draws():
    env = asym_env()
    cfg = OracleConfig(sigma_pos=0.3, sigma_theta=4.0, seed=21)
    rng = np.random.default_rng(5)
    ranges = rng.uniform(0.0, 1.0, (12, 8))
    truths = [Pose2D(*rng.uniform(0.5, 4.5, 2), rng.uniform(-180, 180)) for _ in range(12)]
    looped = OracleEstimator(cfg, env)
    want = [looped.estimate(Observation(r), t) for r, t in zip(ranges, truths)]
    batched = OracleEstimator(cfg, env)
    assert batched.estimate_batch(ranges, truths) == want
    # the stream continues where the batch left it, as after the loop
    assert batched.estimate(Observation(ranges[0]), truths[0]) == looped.estimate(
        Observation(ranges[0]), truths[0]
    )
    with pytest.raises(ValueError, match="12 observations but 11 true poses"):
        batched.estimate_batch(ranges, truths[:-1])


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(sigma_pos=-0.1)
    with pytest.raises(ValueError):
        KnnConfig(k=0)
    with pytest.raises(ValueError):
        KnnConfig(weighting="fancy")


# k-NN ---------------------------------------------------------------------------


def test_knn_exact_match_k1():
    env = asym_env()
    db = generate_dataset(env, 50, seed=2)
    q = Observation(db.ranges_matrix()[7])
    est = knn_estimate(db, q, KnnConfig(k=1))
    assert est == Pose2D(*db.poses_matrix()[7])  # verbatim, not a reconstruction


def test_knn_equidistant_pair_hand_case():
    sensor = SensorConfig(fov=90.0, ray_count=4, max_range=10.0)
    db = Dataset("e", sensor, 0, [(0.0, 0.0, -10.0), (2.0, 0.0, 10.0)], [[0.4] * 4, [0.6] * 4])
    est = knn_estimate(db, Observation(np.full(4, 0.5)), KnnConfig(k=2, weighting="uniform"))
    assert est.x == 1.0 and est.y == 0.0 and est.theta == 0.0


def test_knn_full_database_uniform_is_centroid():
    env = asym_env()
    db = generate_dataset(env, 40, seed=3)
    q = Observation(np.full(8, 0.31))
    est = knn_estimate(db, q, KnnConfig(k=40, weighting="uniform"))
    poses = db.poses_matrix()
    assert abs(est.x - poses[:, 0].mean()) < 1e-12
    assert abs(est.y - poses[:, 1].mean()) < 1e-12
    assert abs(ang_diff(est.theta, circular_mean(poses[:, 2]))) < 1e-9


def test_knn_tie_breaks_toward_lower_id():
    dup, far = [0.5] * 4, [0.9] * 4
    sensor = SensorConfig(fov=90.0, ray_count=4, max_range=10.0)
    poses = [(5.0, 5.0, 0.0), (3.0, 3.0, 90.0), (6.0, 6.0, 0.0), (1.0, 1.0, 0.0)]
    # row 3 has row 1's observation and a higher id
    db = Dataset("e", sensor, 0, poses, [far, dup, far, dup])
    est = knn_estimate(db, Observation(dup), KnnConfig(k=1))
    assert est == Pose2D(3.0, 3.0, 90.0)


def test_knn_inverse_distance_weights():
    sensor = SensorConfig(fov=90.0, ray_count=2, max_range=10.0)
    db = Dataset("e", sensor, 0, [(0.0, 0.0, 0.0), (4.0, 0.0, 0.0)], [[0.5, 0.5], [0.5, 0.8]])
    est = knn_estimate(db, Observation([0.5, 0.6]), KnnConfig(k=2))
    w0 = 1.0 / (0.1 + 1e-9)
    w1 = 1.0 / (0.2 + 1e-9)
    expect = 4.0 * w1 / (w0 + w1)
    assert abs(est.x - expect) < 1e-9


def test_knn_exact_match_dominates_inverse_weighting():
    env = asym_env()
    db = generate_dataset(env, 30, seed=4)
    q = Observation(db.ranges_matrix()[11])
    est = knn_estimate(db, q, KnnConfig(k=3))
    truth = Pose2D(*db.poses_matrix()[11])
    assert math.hypot(est.x - truth.x, est.y - truth.y) < 1e-6


def test_knn_validation():
    env = asym_env()
    db = generate_dataset(env, 5, seed=5)
    q = Observation(db.ranges_matrix()[0])
    with pytest.raises(ValueError):
        knn_estimate(db, q, KnnConfig(k=6))
    empty = Dataset("e", env.sensor, 0, np.zeros((0, 3)), np.zeros((0, env.sensor.ray_count)))
    with pytest.raises(ValueError):
        knn_estimate(empty, q, KnnConfig())
    with pytest.raises(ValueError):
        knn_estimate(db, Observation(np.full(3, 0.5)), KnnConfig(k=2))
    with pytest.raises(ValueError):
        KnnEstimator(db, KnnConfig(k=6))


def test_knn_estimator_matches_function():
    env = asym_env()
    db = generate_dataset(env, 60, seed=6)
    est = KnnEstimator(db, KnnConfig(k=5))
    queries = generate_dataset(env, 10, seed=7)
    for row in queries.ranges_matrix():
        a = est.estimate(Observation(row))
        b = knn_estimate(db, Observation(row), KnnConfig(k=5))
        assert a == b


def test_knn_error_decreases_with_database_density():
    # median over 3 seeds of mean position error on a fixed 200-query set,
    # strictly decreasing across database sizes 1e2, 1e3, 1e4
    env = asym_env()
    queries = generate_dataset(env, 200, seed=999)
    errs = {n: [] for n in (100, 1000, 10_000)}
    for n in errs:
        for seed in (11, 22, 33):
            db = generate_dataset(env, n, seed=seed)
            est = KnnEstimator(db, KnnConfig(k=5))
            e = [
                math.hypot(
                    est.estimate(Observation(row)).x - x,
                    est.estimate(Observation(row)).y - y,
                )
                for row, (x, y, _) in zip(queries.ranges_matrix(), queries.poses_matrix())
            ]
            errs[n].append(float(np.mean(e)))
    med = {n: sorted(v)[1] for n, v in errs.items()}
    assert med[100] > med[1000] > med[10_000], med


# k-NN exactness against the full scan --------------------------------------------


def knn_full_scan(db, obs, cfg):
    """Reference k-NN: the direct distance to every row, then a (distance, id)
    lexsort. knn_estimate must match it bit for bit."""
    R = db.ranges_matrix()
    q = np.asarray(obs.ranges, dtype=np.float64)
    d = np.sqrt(((R - q) ** 2).sum(axis=1))
    ids = np.arange(len(db))  # a sample's id is its row number
    order = np.lexsort((ids, d))  # distance first, then id
    sel = order[: cfg.k]
    if cfg.k == 1:
        return Pose2D(*db.poses_matrix()[sel[0]].tolist())
    if cfg.weighting == WEIGHT_INVERSE:
        w = 1.0 / (d[sel] + INVERSE_WEIGHT_EPS)
    else:
        w = np.ones(cfg.k)
    poses = db.poses_matrix()[sel]
    wsum = w.sum()
    x = float((w * poses[:, 0]).sum() / wsum)
    y = float((w * poses[:, 1]).sum() / wsum)
    theta = circular_mean(poses[:, 2], weights=w)
    return Pose2D(x, y, theta)


def random_db(rng, n, rays, rows=None):
    rows = rng.uniform(0.0, 1.0, (n, rays)) if rows is None else rows
    sensor = SensorConfig(fov=360.0, ray_count=rays, max_range=10.0)
    poses = [(*rng.uniform(-5.0, 5.0, 2), rng.uniform(-180, 180)) for _ in rows]
    return Dataset("e", sensor, 0, poses, rows)


def estimate_bits(est):
    return np.array([est.x, est.y, est.theta]).tobytes()


def assert_knn_matches_full_scan(db, queries, ks, monkeypatch):
    """Per-query knn_estimate and KnnEstimator.estimate_batch against the
    full scan, bit for bit. The batches screen blocks of len(queries) - 1
    queries, so they cover 1, block - 1, block and block + 1 queries."""
    block = max(1, len(queries) - 1)
    monkeypatch.setattr(estimator_module, "SCREEN_BLOCK_BYTES", block * 8 * len(db))
    truths = [Pose2D(0.0, 0.0, 0.0)] * len(queries)
    for k in ks:
        for weighting in ("uniform", "inverse-distance"):
            cfg = KnnConfig(k=k, weighting=weighting)
            want = [estimate_bits(knn_full_scan(db, Observation(q), cfg)) for q in queries]
            got = [estimate_bits(knn_estimate(db, Observation(q), cfg)) for q in queries]
            assert got == want, (k, weighting)
            est = KnnEstimator(db, cfg)
            for count in sorted({1, block - 1, block, block + 1} - {0}):
                batch = est.estimate_batch(np.array(queries[:count]), truths[:count])
                assert [estimate_bits(e) for e in batch] == want[:count], (k, weighting, count)


@pytest.mark.parametrize("n,rays", [(1, 1), (7, 3), (64, 16), (500, 96), (3000, 8)])
def test_knn_matches_full_scan_on_random_databases(n, rays, monkeypatch):
    rng = np.random.default_rng(n * 1000 + rays)
    db = random_db(rng, n, rays)
    R = db.ranges_matrix()
    # fresh queries plus database rows themselves (exact matches, d = 0)
    queries = [*rng.uniform(0.0, 1.0, (6, rays)), R[0], R[n // 2]]
    assert_knn_matches_full_scan(db, queries, sorted({1, min(5, n), n}), monkeypatch)


def test_knn_batch_of_one_real_screen_block_matches_full_scan(monkeypatch):
    # 3000 rows of 8 rays: the block SCREEN_BLOCK_BYTES gives, and one more query
    rng = np.random.default_rng(3008)
    db = random_db(rng, 3000, 8)
    block = SCREEN_BLOCK_BYTES // (8 * len(db))
    queries = [*rng.uniform(0.0, 1.0, (block - 1, 8)), *db.ranges_matrix()[:2]]
    assert_knn_matches_full_scan(db, queries, [1, 5, len(db)], monkeypatch)


def test_knn_matches_full_scan_on_duplicate_rows(monkeypatch):
    # each distinct row appears several times under scattered ids, so every
    # k cuts through a group of exact distance ties
    rng = np.random.default_rng(17)
    distinct = rng.uniform(0.0, 1.0, (5, 12))
    rows = distinct[rng.integers(0, 5, 60)]
    db = random_db(rng, 60, 12, rows=rows)
    queries = [*distinct, (distinct[0] + distinct[1]) / 2, rng.uniform(0.0, 1.0, 12)]
    assert_knn_matches_full_scan(db, queries, [1, 2, 3, 5, 11, 12, 13, 29, 60], monkeypatch)


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


# regressor ----------------------------------------------------------------------


def test_regressor_zero_model_predicts_centre():
    env = asym_env(ray_count=8)
    model = RegressorModel.zeros((8, 3), env_name="asym", sensor=env.sensor)
    est = RegressorEstimator(model, env)
    r = est.estimate(Observation(np.full(8, 0.5)))
    assert r == centre(env.bounds)


def head_oracle(model, obs, b):
    """The pose the old path gave: forward's one output row turned into a
    NormalizedPose by _head_to_normalized, then the scalar denormalize."""
    row = forward_batch(model, obs.ranges[None, :])[0]
    if model.yaw_mode == "tanh":
        nx, ny, ntheta = float(row[0]), float(row[1]), float(row[2])
    else:
        nx, ny = float(row[0]), float(row[1])
        ntheta = math.degrees(math.atan2(float(row[2]), float(row[3]))) / 180.0
    x = b.x_min + (nx + 1.0) * 0.5 * b.width
    y = b.y_min + (ny + 1.0) * 0.5 * b.height
    return Pose2D(x, y, ntheta * 180.0)


def test_regressor_estimates_stay_in_bounds():
    env = asym_env(ray_count=8)
    rng = np.random.default_rng(8)
    for _ in range(20):
        model = RegressorModel.random((8, 16, 3), rng, env_name="asym", sensor=env.sensor)
        est = RegressorEstimator(model, env)
        obs = Observation(rng.uniform(0, 1, 8))
        r = est.estimate(obs)
        assert inside(env.bounds, r)
        assert r == head_oracle(model, obs, env.bounds)


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
        for ranges in rng.uniform(0.0, 1.0, (25, rays)):
            obs = Observation(ranges)
            got, want = est.estimate(obs), head_oracle(model, obs, env.bounds)
            assert np.array([got.x, got.y]).tobytes() == np.array([want.x, want.y]).tobytes()
            if yaw_mode == "tanh":
                assert estimate_bits(got) == estimate_bits(want)
            else:
                assert abs(ang_diff(got.theta, want.theta)) <= 1e-12


def test_regressor_validation():
    env = asym_env(ray_count=8)
    other = RegressorModel.zeros((8, 3), env_name="elsewhere")
    with pytest.raises(ValueError, match="elsewhere"):
        RegressorEstimator(other, env)
    wrong_sensor = RegressorModel.zeros(
        (8, 3), env_name="asym", sensor=SensorConfig(fov=90.0, ray_count=8, max_range=5.0)
    )
    with pytest.raises(ValueError, match="sensor"):
        RegressorEstimator(wrong_sensor, env)
    # a model built in memory names no world or sensor unless told
    with pytest.raises(InputError, match="model belongs to world '', not 'asym'"):
        RegressorEstimator(RegressorModel.zeros((8, 3), sensor=env.sensor), env)
    with pytest.raises(InputError, match="model sensor None does not match"):
        RegressorEstimator(RegressorModel.zeros((8, 3), env_name="asym"), env)
    est = RegressorEstimator(RegressorModel.zeros((8, 3), env_name="asym", sensor=env.sensor), env)
    assert (est.env_name, est.sensor) == ("asym", env.sensor)
    with pytest.raises(ValueError):
        est.estimate(Observation(np.full(4, 0.5)))


# external -----------------------------------------------------------------------


def test_external_const_centre():
    env = asym_env()
    with ExternalEstimator(stub_cmd(), env) as est:
        r = est.estimate(Observation(np.full(8, 0.5)))
    assert r == centre(env.bounds)


def test_external_batch_sends_request_ids_in_order(tmp_path):
    env = asym_env()
    log = tmp_path / "ids.txt"
    ranges = np.random.default_rng(6).uniform(0.0, 1.0, (7, 8))
    with ExternalEstimator(stub_cmd("--log", str(log)), env) as est:
        got = est.estimate_batch(ranges, [None] * len(ranges))
        one = est.estimate(Observation(ranges[0]))
    assert got == [one] * len(ranges)
    assert log.read_text().split() == [str(i) for i in range(len(ranges) + 1)]


def test_external_out_of_range_is_clamped():
    env = asym_env()
    with ExternalEstimator(stub_cmd("--nx", "2.0"), env) as est:
        r = est.estimate(Observation(np.full(8, 0.5)))
    assert r.x == env.bounds.x_max


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
        for row in queries.ranges_matrix():
            got = est.estimate(Observation(row))
            want = internal.estimate(Observation(row))
            # the channel transmits normalised values exactly (repr floats),
            # so the adapter output equals the internal pose pushed through
            # the same normalise/denormalise round trip, bit for bit
            n = normalize([want.x, want.y, want.theta], env.bounds)
            assert got == Pose2D(*denormalize(n, env.bounds).tolist())
            assert abs(got.x - want.x) < 1e-9
            assert abs(got.y - want.y) < 1e-9
            assert abs(ang_diff(got.theta, want.theta)) < 1e-9


@pytest.mark.parametrize("mode", ["garbage", "badid"])
def test_external_protocol_errors(mode):
    env = asym_env()
    with ExternalEstimator(stub_cmd("--mode", mode), env) as est:
        with pytest.raises(EstimatorUnavailableError):
            est.estimate(Observation(np.full(8, 0.5)))
        # channel poisoned after the first failure
        with pytest.raises(EstimatorUnavailableError, match="poisoned"):
            est.estimate(Observation(np.full(8, 0.5)))


@pytest.mark.parametrize("mode", ["hang", "partial"])
def test_external_timeout(mode):
    env = asym_env()
    with ExternalEstimator(stub_cmd("--mode", mode), env, timeout=0.3) as est:
        with pytest.raises(EstimatorUnavailableError, match="0.3"):
            est.estimate(Observation(np.full(8, 0.5)))


def test_external_process_exit():
    env = asym_env()
    with ExternalEstimator(stub_cmd("--mode", "exit"), env) as est:
        with pytest.raises(EstimatorUnavailableError):
            est.estimate(Observation(np.full(8, 0.5)))


def test_external_missing_binary():
    env = asym_env()
    with pytest.raises(EstimatorUnavailableError):
        ExternalEstimator(["/nonexistent/estimator"], env)


def test_external_quit_on_close():
    env = asym_env()
    est = ExternalEstimator(stub_cmd(), env)
    est.estimate(Observation(np.full(8, 0.5)))
    est.close()
    assert est._proc.returncode == 0  # stub honoured QUIT
    est.close()  # idempotent


def test_external_is_reaped_when_its_with_block_raises():
    env = asym_env()
    with pytest.raises(KeyError):
        with ExternalEstimator(stub_cmd(), env) as est:
            est.estimate(Observation(np.full(8, 0.5)))
            raise KeyError("body failed")
    assert est._proc.returncode == 0  # QUIT sent and the stub exited
