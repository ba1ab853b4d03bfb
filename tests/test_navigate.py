"""Navigation controller tests.

The exactness tests pin the tick kinematics to binary-exact values:
dt=0.25 with linear_speed=0.5 gives 0.125 m per move tick and
angular_speed=30 gives 7.5 deg per rotate tick, so accumulated odometry
and the true pose stay bit-exact under zero noise and the whole episode
can be checked against a hand-computed trace.
"""

import math

import numpy as np
import pytest

from neuromap.estimator import (
    Estimator,
    EstimatorUnavailableError,
    OracleConfig,
    OracleEstimator,
)
from neuromap.navigate import (
    ABORT_BUDGET,
    ABORT_COLLISION,
    ABORT_ESTIMATOR,
    EVENT_ABORT,
    EVENT_COLLISION,
    EVENT_ESTIMATE,
    EVENT_MOVE,
    EVENT_REACHED,
    EVENT_ROTATE,
    NavConfig,
    OdometryConfig,
    RouteTrace,
    TraceTick,
    closest_distance_metrics,
    load_trace,
    load_waypoints,
    navigate_waypoints,
    save_trace,
    simulate_move_tick,
    simulate_rotation_tick,
)
from neuromap.inputs import InputError
from neuromap.pose import Pose2D
from neuromap.world import EnvironmentSpec, OccupancyGrid, SensorConfig
from worldgen import with_metric_box

SENSOR = SensorConfig(fov=360.0, ray_count=16, max_range=15.0)

# 0.125 m / 7.5 deg per tick; both exactly representable.
EXACT = NavConfig(dt=0.25, linear_speed=0.5, angular_speed=30.0)
NO_NOISE = OdometryConfig(sigma_lin_frac=0.0, sigma_ang_per_step=0.0, seed=0)


def empty_env(side=10.0, res=0.1):
    n = int(round(side / res))
    grid = OccupancyGrid(n, n, res, 0.0, 0.0, np.zeros((n, n), dtype=bool))
    return EnvironmentSpec("empty", grid, SENSOR)


def walled_env():
    """10x10 m room bisected by a wall at x in [4.0, 4.2]."""
    grid = OccupancyGrid(100, 100, 0.1, 0.0, 0.0, np.zeros((100, 100), dtype=bool))
    grid = with_metric_box(grid, 4.0, 0.0, 4.2, 10.0)
    return EnvironmentSpec("walled", grid, SENSOR)


def perfect_oracle(env):
    return OracleEstimator(OracleConfig(), env)


class FailingEstimator(Estimator):
    """Succeeds ``good_calls`` times, then raises."""

    def __init__(self, env, good_calls):
        self.inner = perfect_oracle(env)
        self.env_name, self.sensor = env.name, env.sensor
        self.remaining = good_calls

    def _estimate(self, ranges, true_poses):
        if self.remaining <= 0:
            raise EstimatorUnavailableError("simulated outage")
        self.remaining -= 1
        return self.inner.estimate(ranges, true_poses)


def events(trace):
    return [t.event for t in trace.ticks]


# --- configs -----------------------------------------------------------------------


def test_nav_config_defaults():
    cfg = NavConfig()
    assert cfg.T_d == 0.5 and cfg.T_a == 5.0 and cfg.max_step == 1.0
    assert cfg.leg_tol == cfg.T_d


def test_nav_config_explicit_leg_tolerance():
    assert NavConfig(leg_tolerance=0.05).leg_tol == 0.05


@pytest.mark.parametrize(
    "kwargs",
    [
        {"T_d": 0.0},
        {"T_a": -1.0},
        {"max_step": 0.0},
        {"linear_speed": 0.0},
        {"angular_speed": -30.0},
        {"dt": 0.0},
        {"max_ticks": 0},
        {"footprint_radius": -0.1},
        {"T_d": 1.0, "max_step": 1.0},  # must leave room for a leg
        {"leg_tolerance": 0.0},
    ],
)
def test_nav_config_rejects(kwargs):
    with pytest.raises(ValueError):
        NavConfig(**kwargs)


def test_odometry_config_rejects_negative_sigmas():
    with pytest.raises(ValueError):
        OdometryConfig(sigma_lin_frac=-0.01)
    with pytest.raises(ValueError):
        OdometryConfig(sigma_ang_per_step=-0.1)


# --- single-tick kinematics --------------------------------------------------------


def test_rotation_tick_exact_step():
    rng = np.random.default_rng(0)
    pose, reading = simulate_rotation_tick(Pose2D(1.0, 2.0, 10.0), +1.0, EXACT, NO_NOISE, rng)
    assert pose == Pose2D(1.0, 2.0, 17.5)
    assert reading == 7.5
    pose, reading = simulate_rotation_tick(Pose2D(1.0, 2.0, 10.0), -3.0, EXACT, NO_NOISE, rng)
    assert pose.theta == 2.5 and reading == -7.5


def test_rotation_tick_noise_hits_reading_not_pose():
    odo = OdometryConfig(sigma_ang_per_step=2.0, seed=9)
    rng = np.random.default_rng(9)
    pose, reading = simulate_rotation_tick(Pose2D(0.0, 0.0, 0.0), +1.0, EXACT, odo, rng)
    assert pose.theta == 7.5  # true motion is noiseless; only the encoder lies
    assert reading != 7.5


def test_move_tick_zero_noise_exact():
    env = empty_env()
    rng = np.random.default_rng(0)
    pose, reading, hit = simulate_move_tick(Pose2D(1.0, 5.0, 0.0), env, EXACT, NO_NOISE, rng)
    assert pose == Pose2D(1.125, 5.0, 0.0)
    assert reading == 0.125 and not hit


def test_move_tick_heading_followed():
    env = empty_env()
    rng = np.random.default_rng(0)
    pose, _, hit = simulate_move_tick(Pose2D(5.0, 5.0, 90.0), env, EXACT, NO_NOISE, rng)
    assert not hit
    assert abs(pose.x - 5.0) < 1e-12 and abs(pose.y - 5.125) < 1e-12


def test_move_tick_collision_leaves_pose_unchanged():
    env = walled_env()
    rng = np.random.default_rng(0)
    start = Pose2D(3.45, 5.0, 0.0)  # next step would push the footprint into the wall
    pose, reading, hit = simulate_move_tick(start, env, EXACT, NO_NOISE, rng)
    assert hit and pose == start
    assert reading == 0.125  # the encoder still turned


def test_move_tick_noise_hits_reading_not_pose():
    env = empty_env()
    odo = OdometryConfig(sigma_lin_frac=0.5, seed=4)
    rng = np.random.default_rng(4)
    pose, reading, _ = simulate_move_tick(Pose2D(1.0, 5.0, 0.0), env, EXACT, odo, rng)
    assert pose.x == 1.125 and reading != 0.125


# --- trace container ---------------------------------------------------------------


def row(tick, event=EVENT_MOVE, wp=0, pose=Pose2D(1.0, 1.0, 0.0)):
    return TraceTick(tick, 0.25 * tick, pose, pose, wp, event)


def test_route_trace_rejects_non_increasing_ticks():
    with pytest.raises(ValueError):
        RouteTrace((row(0), row(0)))
    with pytest.raises(ValueError):
        RouteTrace((row(1), row(0)))


def test_route_trace_rejects_decreasing_waypoint_index():
    with pytest.raises(ValueError):
        RouteTrace((row(0, wp=1), row(1, wp=0)))


# --- full episodes, exact ----------------------------------------------------------


def test_straight_run_matches_hand_trace():
    # Start (1,5,0), waypoint (8,5): already aligned, so the episode is
    # 13 legs of 4 move ticks each (leg exit at |1.0 - travelled| <= 0.5),
    # an estimate after each leg, and no rotation at all.
    env = empty_env()
    trace, report = navigate_waypoints(
        [(8.0, 5.0)], perfect_oracle(env), env, Pose2D(1.0, 5.0, 0.0), EXACT, NO_NOISE
    )
    ev = events(trace)
    assert ev.count(EVENT_MOVE) == 52
    assert ev.count(EVENT_ESTIMATE) == 14
    assert ev.count(EVENT_ROTATE) == 0
    assert ev.count(EVENT_REACHED) == 1
    assert len(trace) == 67
    assert [t.tick for t in trace.ticks] == list(range(67))

    final = trace.ticks[-1]
    assert final.event == EVENT_REACHED
    assert final.true_pose == Pose2D(7.5, 5.0, 0.0)  # bit-exact under 0.125 m ticks
    assert report.success and report.abort_reason == ""
    assert report.tick_count == 67
    # closest approach of the true pose is the stopping point, 0.5 m short
    assert report.waypoints[0].closest_true_dist == 0.5
    assert report.mean_closest_true == 0.5


def test_time_advances_only_on_physical_ticks():
    env = empty_env()
    trace, _ = navigate_waypoints(
        [(8.0, 5.0)], perfect_oracle(env), env, Pose2D(1.0, 5.0, 0.0), EXACT, NO_NOISE
    )
    # Row layout: estimate at t=0, four moves, then the re-estimate shares
    # the last move's clock reading.
    t = trace.ticks
    assert t[0].event == EVENT_ESTIMATE and t[0].time == 0.0
    assert [r.time for r in t[1:5]] == [0.25, 0.5, 0.75, 1.0]
    assert t[5].event == EVENT_ESTIMATE and t[5].time == t[4].time
    assert t[-1].time == t[-2].time  # waypoint-reached is zero-duration
    assert t[-1].time == 52 * 0.25


def test_leg_capped_at_max_step():
    # Far waypoint: every leg is min(dist, max_step) = 1.0 m while distant,
    # so the event stream opens estimate, 4 moves, estimate.
    env = empty_env()
    trace, _ = navigate_waypoints(
        [(8.0, 5.0)], perfect_oracle(env), env, Pose2D(1.0, 5.0, 0.0), EXACT, NO_NOISE
    )
    assert events(trace)[:6] == [EVENT_ESTIMATE] + [EVENT_MOVE] * 4 + [EVENT_ESTIMATE]


def test_rotation_subloop_tick_count():
    # Heading error 90 deg, 7.5 deg ticks, T_a = 5: stop once the remaining
    # error is <= 5, i.e. ceil((90 - 5) / 7.5) = 12 ticks, landing exactly
    # on 90.
    env = empty_env()
    trace, report = navigate_waypoints(
        [(5.0, 8.0)], perfect_oracle(env), env, Pose2D(5.0, 5.0, 0.0), EXACT, NO_NOISE
    )
    ev = events(trace)
    assert ev.count(EVENT_ROTATE) == 12
    assert ev[:14] == [EVENT_ESTIMATE] + [EVENT_ROTATE] * 12 + [EVENT_ESTIMATE]
    after_rot = trace.ticks[12]
    assert after_rot.event == EVENT_ROTATE and after_rot.true_pose.theta == 90.0
    assert report.success


def test_rotation_direction_negative_error():
    # Waypoint due south: heading -90, so rotation ticks step by -7.5.
    env = empty_env()
    trace, _ = navigate_waypoints(
        [(5.0, 2.0)], perfect_oracle(env), env, Pose2D(5.0, 8.0, 0.0), EXACT, NO_NOISE
    )
    rot = [t for t in trace.ticks if t.event == EVENT_ROTATE]
    assert len(rot) == 12
    assert rot[0].true_pose.theta == -7.5
    assert rot[-1].true_pose.theta == -90.0


def test_start_within_threshold_no_motion():
    env = empty_env()
    trace, report = navigate_waypoints(
        [(1.2, 5.0)], perfect_oracle(env), env, Pose2D(1.0, 5.0, 0.0), EXACT, NO_NOISE
    )
    assert events(trace) == [EVENT_ESTIMATE, EVENT_REACHED]
    assert trace.ticks[-1].true_pose == Pose2D(1.0, 5.0, 0.0)
    assert trace.ticks[-1].time == 0.0
    assert report.success and report.waypoints[0].closest_true_dist == pytest.approx(0.2)


def test_waypoint_exactly_at_start():
    env = empty_env()
    trace, report = navigate_waypoints(
        [(1.0, 5.0)], perfect_oracle(env), env, Pose2D(1.0, 5.0, 0.0), EXACT, NO_NOISE
    )
    assert events(trace) == [EVENT_ESTIMATE, EVENT_REACHED]
    assert report.waypoints[0].closest_true_dist == 0.0


def test_multi_waypoint_indices_in_trace():
    env = empty_env()
    trace, report = navigate_waypoints(
        [(3.0, 5.0), (3.0, 7.0)], perfect_oracle(env), env, Pose2D(1.0, 5.0, 0.0),
        EXACT, NO_NOISE,
    )
    assert report.success and len(report.waypoints) == 2
    idx = [t.waypoint_idx for t in trace.ticks]
    assert idx == sorted(idx) and set(idx) == {0, 1}
    reached = [t for t in trace.ticks if t.event == EVENT_REACHED]
    assert [t.waypoint_idx for t in reached] == [0, 1]


# --- aborts ------------------------------------------------------------------------


def test_collision_aborts_and_keeps_trace():
    env = walled_env()
    trace, report = navigate_waypoints(
        [(8.0, 5.0)], perfect_oracle(env), env, Pose2D(1.0, 5.0, 0.0), EXACT, NO_NOISE
    )
    assert not report.success
    assert report.abort_reason == ABORT_COLLISION
    assert events(trace)[-2:] == [EVENT_COLLISION, EVENT_ABORT]
    # the blocked tick does not advance the true pose
    coll = trace.ticks[-2]
    prev = trace.ticks[-3]
    assert coll.true_pose == prev.true_pose
    # every successful move keeps the footprint clear
    for t in trace.ticks:
        if t.event == EVENT_MOVE:
            assert env.grid.footprint_free(t.true_pose.x, t.true_pose.y, EXACT.footprint_radius)


def test_estimator_failure_aborts_with_distinct_reason():
    env = empty_env()
    trace, report = navigate_waypoints(
        [(8.0, 5.0)], FailingEstimator(env, good_calls=3), env, Pose2D(1.0, 5.0, 0.0),
        EXACT, NO_NOISE,
    )
    assert not report.success
    assert report.abort_reason == ABORT_ESTIMATOR
    assert events(trace)[-1] == EVENT_ABORT
    assert events(trace).count(EVENT_ESTIMATE) == 3  # rows up to the outage survive


def test_failure_on_first_estimate_leaves_abort_only_trace():
    env = empty_env()
    trace, report = navigate_waypoints(
        [(8.0, 5.0)], FailingEstimator(env, good_calls=0), env, Pose2D(1.0, 5.0, 0.0),
        EXACT, NO_NOISE,
    )
    assert events(trace) == [EVENT_ABORT]
    assert trace.ticks[0].estimate is None
    assert not report.success and report.abort_reason == ABORT_ESTIMATOR


def test_tick_budget_abort():
    env = empty_env()
    cfg = NavConfig(dt=0.25, linear_speed=0.5, angular_speed=30.0, max_ticks=10)
    trace, report = navigate_waypoints(
        [(8.0, 5.0)], perfect_oracle(env), env, Pose2D(1.0, 5.0, 0.0), cfg, NO_NOISE
    )
    assert not report.success and report.abort_reason == ABORT_BUDGET
    assert len(trace) == 11  # budget rows plus the terminal abort marker
    assert events(trace)[-1] == EVENT_ABORT


def test_empty_waypoint_list_rejected():
    env = empty_env()
    with pytest.raises(ValueError, match="at least one"):
        navigate_waypoints([], perfect_oracle(env), env, Pose2D(1.0, 5.0, 0.0))


def test_blocked_start_rejected():
    env = walled_env()
    with pytest.raises(ValueError, match="footprint-free"):
        navigate_waypoints(
            [(8.0, 5.0)], perfect_oracle(env), env, Pose2D(4.1, 5.0, 0.0), EXACT, NO_NOISE
        )


def test_sensor_mismatch_rejected():
    env = empty_env()

    class WrongSensor(Estimator):
        env_name = env.name
        sensor = SensorConfig(fov=180.0, ray_count=8, max_range=5.0)

        def _estimate(self, ranges, true_poses):  # pragma: no cover - never reached
            raise AssertionError

    with pytest.raises(ValueError, match="sensor"):
        navigate_waypoints([(8.0, 5.0)], WrongSensor(), env, Pose2D(1.0, 5.0, 0.0))


def test_estimator_from_another_world_rejected():
    # the same layout and sensor under another name: the world is refused, not scored
    env = empty_env()
    elsewhere = EnvironmentSpec("elsewhere", env.grid, env.sensor)
    with pytest.raises(InputError, match="^estimator belongs to world 'elsewhere', not 'empty'$"):
        navigate_waypoints([(8.0, 5.0)], perfect_oracle(elsewhere), env, Pose2D(1.0, 5.0, 0.0))


# --- noisy episodes ----------------------------------------------------------------


def test_noisy_episode_deterministic():
    env = empty_env()
    odo = OdometryConfig(sigma_lin_frac=0.05, sigma_ang_per_step=1.0, seed=77)
    est_cfg = OracleConfig(sigma_pos=0.05, sigma_theta=2.0, seed=11)
    runs = []
    for _ in range(2):
        trace, report = navigate_waypoints(
            [(8.0, 5.0), (8.0, 8.0)], OracleEstimator(est_cfg, env), env,
            Pose2D(1.0, 5.0, 0.0), EXACT, odo,
        )
        runs.append((trace, report))
    assert runs[0][0].ticks == runs[1][0].ticks
    assert runs[0][1] == runs[1][1]


def test_estimate_error_does_not_compound():
    # The estimator is absolute: its error is stationary, so the last
    # tenth of the estimate rows must not be pulled off course by the
    # accumulated odometry noise.
    env = empty_env()
    est_cfg = OracleConfig(sigma_pos=0.1, sigma_theta=2.0, seed=5)
    odo = OdometryConfig(sigma_lin_frac=0.05, sigma_ang_per_step=1.0, seed=6)
    trace, report = navigate_waypoints(
        [(8.0, 5.0), (8.0, 8.0), (2.0, 8.0), (2.0, 2.0)],
        OracleEstimator(est_cfg, env), env, Pose2D(1.0, 5.0, 0.0), EXACT, odo,
    )
    assert report.success
    errs = [
        math.hypot(t.estimate.x - t.true_pose.x, t.estimate.y - t.true_pose.y)
        for t in trace.ticks
        if t.event == EVENT_ESTIMATE
    ]
    k = max(1, len(errs) // 10)
    assert len(errs) >= 20
    assert np.mean(errs[-k:]) <= 2.0 * np.mean(errs[:k])


# --- metrics -----------------------------------------------------------------------


def test_metrics_constant_offset_bounds_gap():
    # Estimates displaced by a constant (0.1, 0): the two closest-approach
    # figures can differ by at most that offset.
    ticks = []
    for i in range(30):
        true = Pose2D(1.0 + 0.25 * i, 5.0, 0.0)
        est = Pose2D(true.x + 0.1, 5.0, 0.0)
        ticks.append(TraceTick(i, 0.25 * i, true, est, 0, EVENT_MOVE))
    report = closest_distance_metrics(RouteTrace(tuple(ticks)), [(8.0, 5.0)])
    wp = report.waypoints[0]
    assert abs(wp.closest_true_dist - wp.closest_est_dist) <= 0.1 + 1e-12
    assert not wp.reached and not report.success


def test_metrics_unvisited_waypoint_is_infinite():
    ticks = (row(0, event=EVENT_ESTIMATE), row(1, event=EVENT_ABORT))
    report = closest_distance_metrics(RouteTrace(ticks), [(1.0, 1.0), (9.0, 9.0)],
                                      abort_reason=ABORT_ESTIMATOR)
    assert report.waypoints[0].closest_true_dist < math.inf
    assert report.waypoints[1].closest_true_dist == math.inf
    assert not report.success and report.abort_reason == ABORT_ESTIMATOR


def test_metrics_skip_missing_estimates():
    t0 = TraceTick(0, 0.0, Pose2D(1.0, 1.0, 0.0), None, 0, EVENT_ABORT)
    report = closest_distance_metrics(RouteTrace((t0,)), [(1.0, 2.0)])
    assert report.waypoints[0].closest_true_dist == pytest.approx(1.0)
    assert report.waypoints[0].closest_est_dist == math.inf


def test_metrics_empty_trace_rejected():
    with pytest.raises(ValueError, match="empty"):
        closest_distance_metrics(RouteTrace(()), [(1.0, 1.0)])


# --- files -------------------------------------------------------------------------


def test_trace_round_trip_exact(tmp_path):
    env = empty_env()
    trace, _ = navigate_waypoints(
        [(5.0, 8.0)], perfect_oracle(env), env, Pose2D(5.0, 5.0, 0.0), EXACT, NO_NOISE
    )
    path = tmp_path / "route.trace"
    save_trace(trace, path, comments=("unit test",))
    loaded = load_trace(path)
    assert loaded.ticks == trace.ticks  # repr floats reparse bit-exactly


def test_trace_round_trip_none_estimate(tmp_path):
    env = empty_env()
    trace, _ = navigate_waypoints(
        [(8.0, 5.0)], FailingEstimator(env, good_calls=0), env, Pose2D(1.0, 5.0, 0.0),
        EXACT, NO_NOISE,
    )
    path = tmp_path / "aborted.trace"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.ticks[0].estimate is None
    assert loaded.ticks == trace.ticks


def test_trace_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("tick,nope\n1,2\n")
    with pytest.raises(ValueError, match="not a trace file"):
        load_trace(path)


def test_trace_rejects_malformed_row(tmp_path):
    env = empty_env()
    trace, _ = navigate_waypoints(
        [(1.2, 5.0)], perfect_oracle(env), env, Pose2D(1.0, 5.0, 0.0), EXACT, NO_NOISE
    )
    path = tmp_path / "cut.trace"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    lines[-1] = "1,2,3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="malformed"):
        load_trace(path)


def test_waypoints_round_trip(tmp_path):
    pts = [(4.0, 1.3), (6.5, 1.5), (1.0 / 3.0, 0.1)]
    path = tmp_path / "loop.waypoints"
    path.write_text("# loop\n" + "".join(f"{x!r},{y!r}\n" for x, y in pts))
    assert load_waypoints(path) == pts


def test_waypoints_reject_malformed_line(tmp_path):
    path = tmp_path / "bad.waypoints"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_waypoints(path)


def test_waypoints_reject_empty_file(tmp_path):
    path = tmp_path / "empty.waypoints"
    path.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no waypoints"):
        load_waypoints(path)
