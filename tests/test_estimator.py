"""Oracle, k-NN, regressor inference, and the external process adapter."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from neuromap.capture import Dataset, Sample, generate_dataset, save_dataset
from neuromap.estimator import (
    INVERSE_WEIGHT_EPS,
    WEIGHT_INVERSE,
    EstimatorUnavailableError,
    ExternalEstimator,
    KnnConfig,
    KnnEstimator,
    OracleConfig,
    OracleEstimator,
    PoseEstimate,
    RegressorEstimator,
    knn_estimate,
    oracle_estimate,
)
from neuromap.pose import Pose2D, ang_diff, circular_mean, denormalize, normalize
from neuromap.training import RegressorModel, forward
from neuromap.world import (
    Observation,
    OccupancyGrid,
    SensorConfig,
    environment_from_grid,
    save_environment,
)

STUB = Path(__file__).parent / "external_stub.py"


def asym_env(ray_count=8, fov=360.0, max_range=12.0):
    g = OccupancyGrid(16, 10, 0.5, 0.0, 0.0, np.zeros((10, 16), bool))
    g = g.with_metric_box(1.0, 1.0, 2.0, 3.5)
    g = g.with_metric_box(5.0, 3.0, 7.0, 4.0)
    g = g.with_metric_box(3.5, 0.5, 4.5, 1.5)
    return environment_from_grid(
        g, "asym", SensorConfig(fov=fov, ray_count=ray_count, max_range=max_range)
    )


def stub_cmd(*args):
    return [sys.executable, str(STUB), *args]


# oracle -------------------------------------------------------------------------


def test_oracle_zero_sigma_is_identity():
    rng = np.random.default_rng(0)
    p = Pose2D(3.25, -1.5, 77.0)
    est = oracle_estimate(p, OracleConfig(), rng)
    assert est.pose == p and not est.clamped


def test_oracle_noise_statistics():
    # sample std of the x-error over 1e5 calls within 3% of sigma; sample
    # mean within 3 standard errors of zero
    cfg = OracleConfig(sigma_pos=0.02, sigma_theta=1.0, seed=9)
    rng = np.random.default_rng(cfg.seed)
    p = Pose2D(5.0, 5.0, 0.0)
    errs = np.empty(100_000)
    for i in range(errs.size):
        errs[i] = oracle_estimate(p, cfg, rng).pose.x - p.x
    assert abs(errs.std() - 0.02) <= 0.03 * 0.02
    assert abs(errs.mean()) <= 3.0 * 0.02 / math.sqrt(errs.size)


def test_oracle_wraps_theta():
    cfg = OracleConfig(sigma_theta=180.0, seed=3)
    rng = np.random.default_rng(cfg.seed)
    p = Pose2D(0.0, 0.0, 170.0)
    for _ in range(500):
        t = oracle_estimate(p, cfg, rng).pose.theta
        assert -180.0 < t <= 180.0


def test_oracle_estimator_clamps_to_bounds():
    env = asym_env()
    est = OracleEstimator(OracleConfig(sigma_pos=5.0, seed=1), env)
    obs = Observation(np.full(8, 0.5))
    clamped_seen = False
    for _ in range(200):
        est.set_true_pose(Pose2D(7.8, 4.8, 0.0))
        r = est.estimate(obs)
        assert env.bounds.contains(r.pose.x, r.pose.y)
        clamped_seen = clamped_seen or r.clamped
    assert clamped_seen


def test_oracle_estimator_determinism_and_preconditions():
    env = asym_env()
    obs = Observation(np.full(8, 0.5))

    def run():
        e = OracleEstimator(OracleConfig(sigma_pos=0.1, sigma_theta=2.0, seed=4), env)
        out = []
        for i in range(10):
            e.set_true_pose(Pose2D(4.0, 2.0, 30.0 * i))
            out.append(e.estimate(obs).pose)
        return out

    assert run() == run()
    e = OracleEstimator(OracleConfig(), env)
    with pytest.raises(RuntimeError, match="set_true_pose"):
        e.estimate(obs)
    e.set_true_pose(Pose2D(1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        e.estimate(Observation(np.full(5, 0.5)))


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
    q = db.samples[7].observation
    est = knn_estimate(db, q, KnnConfig(k=1))
    assert est.pose == db.samples[7].pose  # verbatim, not a reconstruction


def test_knn_equidistant_pair_hand_case():
    obs = lambda v: Observation(np.full(4, v))
    samples = [
        Sample(0, obs(0.4), Pose2D(0.0, 0.0, -10.0)),
        Sample(1, obs(0.6), Pose2D(2.0, 0.0, 10.0)),
    ]
    db = Dataset("e", SensorConfig(fov=90.0, ray_count=4, max_range=10.0), 0, samples)
    est = knn_estimate(db, obs(0.5), KnnConfig(k=2, weighting="uniform"))
    assert est.pose.x == 1.0 and est.pose.y == 0.0 and est.pose.theta == 0.0


def test_knn_full_database_uniform_is_centroid():
    env = asym_env()
    db = generate_dataset(env, 40, seed=3)
    q = Observation(np.full(8, 0.31))
    est = knn_estimate(db, q, KnnConfig(k=40, weighting="uniform"))
    poses = db.poses_matrix()
    assert abs(est.pose.x - poses[:, 0].mean()) < 1e-12
    assert abs(est.pose.y - poses[:, 1].mean()) < 1e-12
    assert abs(ang_diff(est.pose.theta, circular_mean(poses[:, 2]))) < 1e-9


def test_knn_tie_breaks_toward_lower_id():
    dup = Observation(np.full(4, 0.5))
    far = Observation(np.full(4, 0.9))
    sensor = SensorConfig(fov=90.0, ray_count=4, max_range=10.0)
    samples = [
        Sample(0, far, Pose2D(5.0, 5.0, 0.0)),
        Sample(1, dup, Pose2D(3.0, 3.0, 90.0)),
        Sample(2, far, Pose2D(6.0, 6.0, 0.0)),
        Sample(3, dup, Pose2D(1.0, 1.0, 0.0)),  # same observation, higher id
    ]
    db = Dataset("e", sensor, 0, samples)
    est = knn_estimate(db, dup, KnnConfig(k=1))
    assert est.pose == Pose2D(3.0, 3.0, 90.0)


def test_knn_inverse_distance_weights():
    sensor = SensorConfig(fov=90.0, ray_count=2, max_range=10.0)
    samples = [
        Sample(0, Observation([0.5, 0.5]), Pose2D(0.0, 0.0, 0.0)),
        Sample(1, Observation([0.5, 0.8]), Pose2D(4.0, 0.0, 0.0)),
    ]
    db = Dataset("e", sensor, 0, samples)
    est = knn_estimate(db, Observation([0.5, 0.6]), KnnConfig(k=2))
    w0 = 1.0 / (0.1 + 1e-9)
    w1 = 1.0 / (0.2 + 1e-9)
    expect = 4.0 * w1 / (w0 + w1)
    assert abs(est.pose.x - expect) < 1e-9


def test_knn_exact_match_dominates_inverse_weighting():
    env = asym_env()
    db = generate_dataset(env, 30, seed=4)
    q = db.samples[11].observation
    est = knn_estimate(db, q, KnnConfig(k=3))
    truth = db.samples[11].pose
    assert math.hypot(est.pose.x - truth.x, est.pose.y - truth.y) < 1e-6


def test_knn_validation():
    env = asym_env()
    db = generate_dataset(env, 5, seed=5)
    with pytest.raises(ValueError):
        knn_estimate(db, db.samples[0].observation, KnnConfig(k=6))
    with pytest.raises(ValueError):
        knn_estimate(Dataset("e", env.sensor, 0, []), db.samples[0].observation, KnnConfig())
    with pytest.raises(ValueError):
        knn_estimate(db, Observation(np.full(3, 0.5)), KnnConfig(k=2))
    with pytest.raises(ValueError):
        KnnEstimator(db, KnnConfig(k=6))


def test_knn_estimator_matches_function():
    env = asym_env()
    db = generate_dataset(env, 60, seed=6)
    est = KnnEstimator(db, KnnConfig(k=5))
    queries = generate_dataset(env, 10, seed=7)
    for s in queries.samples:
        a = est.estimate(s.observation)
        b = knn_estimate(db, s.observation, KnnConfig(k=5))
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
                    est.estimate(s.observation).pose.x - s.pose.x,
                    est.estimate(s.observation).pose.y - s.pose.y,
                )
                for s in queries.samples
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
    ids = np.array([s.id for s in db.samples])
    order = np.lexsort((ids, d))  # distance first, then id
    sel = order[: cfg.k]
    if cfg.k == 1:
        return PoseEstimate(db.samples[sel[0]].pose)
    if cfg.weighting == WEIGHT_INVERSE:
        w = 1.0 / (d[sel] + INVERSE_WEIGHT_EPS)
    else:
        w = np.ones(cfg.k)
    poses = db.poses_matrix()[sel]
    wsum = w.sum()
    x = float((w * poses[:, 0]).sum() / wsum)
    y = float((w * poses[:, 1]).sum() / wsum)
    theta = circular_mean(poses[:, 2], weights=w)
    return PoseEstimate(Pose2D(x, y, theta))


def random_db(rng, n, rays, rows=None):
    rows = rng.uniform(0.0, 1.0, (n, rays)) if rows is None else rows
    sensor = SensorConfig(fov=360.0, ray_count=rays, max_range=10.0)
    samples = [
        Sample(i, Observation(r), Pose2D(*rng.uniform(-5.0, 5.0, 2), rng.uniform(-180, 180)))
        for i, r in enumerate(rows)
    ]
    return Dataset("e", sensor, 0, samples)


def assert_knn_matches_full_scan(db, queries, ks):
    for k in ks:
        for weighting in ("uniform", "inverse-distance"):
            cfg = KnnConfig(k=k, weighting=weighting)
            for q in queries:
                got = knn_estimate(db, Observation(q), cfg)
                want = knn_full_scan(db, Observation(q), cfg)
                assert got.clamped == want.clamped
                got_bits = np.array([got.pose.x, got.pose.y, got.pose.theta]).tobytes()
                want_bits = np.array([want.pose.x, want.pose.y, want.pose.theta]).tobytes()
                assert got_bits == want_bits, (k, weighting, got, want)


@pytest.mark.parametrize("n,rays", [(1, 1), (7, 3), (64, 16), (500, 96), (3000, 8)])
def test_knn_matches_full_scan_on_random_databases(n, rays):
    rng = np.random.default_rng(n * 1000 + rays)
    db = random_db(rng, n, rays)
    R = db.ranges_matrix()
    # fresh queries plus database rows themselves (exact matches, d = 0)
    queries = [*rng.uniform(0.0, 1.0, (6, rays)), R[0], R[n // 2]]
    assert_knn_matches_full_scan(db, queries, sorted({1, min(5, n), n}))


def test_knn_matches_full_scan_on_duplicate_rows():
    # each distinct row appears several times under scattered ids, so every
    # k cuts through a group of exact distance ties
    rng = np.random.default_rng(17)
    distinct = rng.uniform(0.0, 1.0, (5, 12))
    rows = distinct[rng.integers(0, 5, 60)]
    db = random_db(rng, 60, 12, rows=rows)
    queries = [*distinct, (distinct[0] + distinct[1]) / 2, rng.uniform(0.0, 1.0, 12)]
    assert_knn_matches_full_scan(db, queries, [1, 2, 3, 5, 11, 12, 13, 29, 60])


def test_knn_matches_full_scan_on_one_ulp_near_ties():
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
    assert_knn_matches_full_scan(db, [q, up, down], [1, 2, 5, 16, 17, 40, 80, 120])


# regressor ----------------------------------------------------------------------


def test_regressor_zero_model_predicts_centre():
    env = asym_env(ray_count=8)
    model = RegressorModel.zeros((8, 3), env_name="asym", sensor=env.sensor)
    est = RegressorEstimator(model, env)
    r = est.estimate(Observation(np.full(8, 0.5)))
    cx, cy = env.bounds.center()
    assert r.pose == Pose2D(cx, cy, 0.0)
    assert not r.clamped


def test_regressor_estimates_stay_in_bounds():
    env = asym_env(ray_count=8)
    rng = np.random.default_rng(8)
    for _ in range(20):
        model = RegressorModel.random((8, 16, 3), rng, env_name="asym", sensor=env.sensor)
        est = RegressorEstimator(model, env)
        obs = Observation(rng.uniform(0, 1, 8))
        r = est.estimate(obs)
        assert env.bounds.contains(r.pose.x, r.pose.y)
        n = forward(model, obs)
        assert r.pose == denormalize(n, env.bounds)


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
    est = RegressorEstimator(RegressorModel.zeros((8, 3)), env)
    with pytest.raises(ValueError):
        est.estimate(Observation(np.full(4, 0.5)))


# external -----------------------------------------------------------------------


def test_external_const_centre():
    env = asym_env()
    with ExternalEstimator(stub_cmd(), env) as est:
        r = est.estimate(Observation(np.full(8, 0.5)))
    cx, cy = env.bounds.center()
    assert r.pose == Pose2D(cx, cy, 0.0)
    assert not r.clamped


def test_external_out_of_range_is_clamped():
    env = asym_env()
    with ExternalEstimator(stub_cmd("--nx", "2.0"), env) as est:
        r = est.estimate(Observation(np.full(8, 0.5)))
    assert r.clamped
    assert r.pose.x == env.bounds.x_max


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
        for s in queries.samples:
            got = est.estimate(s.observation)
            want = internal.estimate(s.observation)
            # the channel transmits normalised values exactly (repr floats),
            # so the adapter output equals the internal pose pushed through
            # the same normalise/denormalise round trip, bit for bit
            assert got.pose == denormalize(normalize(want.pose, env.bounds), env.bounds)
            assert abs(got.pose.x - want.pose.x) < 1e-9
            assert abs(got.pose.y - want.pose.y) < 1e-9
            assert abs(ang_diff(got.pose.theta, want.pose.theta)) < 1e-9


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


def test_pose_estimate_fields():
    e = PoseEstimate(Pose2D(1.0, 2.0, 3.0))
    assert not e.clamped
    with pytest.raises(AttributeError):
        e.clamped = True
