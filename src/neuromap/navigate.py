"""Waypoint navigation for a simulated differential-drive UGV.

The controller follows the estimate / rotate / move loop verbatim: estimate
the pose, and while the estimated distance to the waypoint exceeds T_d,
either rotate until the heading error accumulated from odometry is within
T_a, or drive a leg of at most ``max_step`` metres, re-estimating after
every subloop. Scans are always raycast at the TRUE pose; the controller
only ever sees the estimator's output and its noisy odometry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .capture import raycast
from .estimator import Estimator, EstimatorUnavailableError
from .inputs import FormatError, InputError, check_config, read_lines, write_text
from .pose import HEADING_EPS, Pose2D, ang_diff, heading
from .world import EnvironmentSpec

EVENT_ESTIMATE = "estimate"
EVENT_ROTATE = "rotate"
EVENT_MOVE = "move"
EVENT_REACHED = "waypoint-reached"
EVENT_COLLISION = "collision"
EVENT_ABORT = "abort"
EVENTS = (EVENT_ESTIMATE, EVENT_ROTATE, EVENT_MOVE, EVENT_REACHED, EVENT_COLLISION, EVENT_ABORT)

ABORT_COLLISION = "collision"
ABORT_ESTIMATOR = "estimator-failure"
ABORT_BUDGET = "tick-budget"


@dataclass(frozen=True)
class NavConfig:
    T_d: float = 0.5
    T_a: float = 5.0
    max_step: float = 1.0
    linear_speed: float = 0.5
    angular_speed: float = 30.0
    dt: float = 0.1
    max_ticks: int = 100_000
    footprint_radius: float = 0.5
    # leg exit tolerance |M - L| <= leg_tolerance; None reuses T_d, the
    # literal reading of the control loop (a 1 m leg then stops after
    # roughly half a metre of odometry)
    leg_tolerance: float | None = None

    def __post_init__(self):
        check_config(self, positive=("T_d", "T_a", "max_step", "linear_speed", "angular_speed",
                                     "dt", "max_ticks", "leg_tolerance"),
                     non_negative=("footprint_radius",))
        if self.T_d < HEADING_EPS:  # dist > T_d then keeps heading() defined
            raise InputError(f"T_d must be >= {HEADING_EPS}, got {self.T_d!r}")
        if self.T_d >= self.max_step:
            raise InputError(f"T_d must be smaller than max_step {self.max_step!r}, got {self.T_d!r}")

    @property
    def leg_tol(self) -> float:
        return self.T_d if self.leg_tolerance is None else self.leg_tolerance


@dataclass(frozen=True)
class OdometryConfig:
    sigma_lin_frac: float = 0.01
    sigma_ang_per_step: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_config(self, non_negative=("sigma_lin_frac", "sigma_ang_per_step", "seed"))


@dataclass(frozen=True)
class TraceTick:
    tick: int
    time: float
    true_pose: Pose2D
    estimate: Pose2D | None  # None before the first estimate succeeded
    waypoint_idx: int
    event: str


@dataclass(frozen=True)
class RouteTrace:
    ticks: tuple

    def __post_init__(self):
        last_tick, last_wp = -1, -1
        for t in self.ticks:
            if t.tick <= last_tick:
                raise ValueError("tick indices must be strictly increasing")
            if t.waypoint_idx < last_wp:
                raise ValueError("waypoint index must be non-decreasing")
            last_tick, last_wp = t.tick, t.waypoint_idx

    def __len__(self):
        return len(self.ticks)


@dataclass(frozen=True)
class WaypointResult:
    x: float
    y: float
    reached: bool
    closest_true_dist: float
    closest_est_dist: float


@dataclass(frozen=True)
class NavReport:
    waypoints: tuple
    mean_closest_true: float
    mean_closest_est: float
    tick_count: int
    success: bool
    abort_reason: str = ""


def simulate_rotation_tick(true_pose: Pose2D, direction: float, cfg: NavConfig,
                           odo: OdometryConfig, rng) -> tuple[Pose2D, float]:
    """One rotation-in-place tick; returns (new true pose, odometry delta deg)."""
    step = math.copysign(cfg.angular_speed * cfg.dt, direction)
    new_pose = Pose2D(true_pose.x, true_pose.y, true_pose.theta + step)
    reading = step + rng.normal(0.0, odo.sigma_ang_per_step)
    return new_pose, reading


def simulate_move_tick(true_pose: Pose2D, env: EnvironmentSpec, cfg: NavConfig,
                       odo: OdometryConfig, rng) -> tuple[Pose2D, float, bool]:
    """One straight-drive tick along the true heading.

    Returns (new true pose, odometry delta m, collided). On collision the
    pose does not advance.
    """
    step = cfg.linear_speed * cfg.dt
    rad = math.radians(true_pose.theta)
    nx = true_pose.x + step * math.cos(rad)
    ny = true_pose.y + step * math.sin(rad)
    reading = step + rng.normal(0.0, odo.sigma_lin_frac * step)
    if not env.grid.footprint_free(nx, ny, cfg.footprint_radius):
        return true_pose, reading, True
    return Pose2D(nx, ny, true_pose.theta), reading, False


class _Abort(Exception):
    def __init__(self, reason):
        self.reason = reason


def navigate_waypoints(waypoints, estimator: Estimator, env: EnvironmentSpec, start_pose: Pose2D,
                       cfg: NavConfig = NavConfig(), odo: OdometryConfig = OdometryConfig()):
    """Drive through waypoints in order; returns (RouteTrace, NavReport).
    The estimator must belong to ``env``'s world and sensor.

    Aborts (success False, abort_reason set) on collision, estimator
    failure, or tick-budget exhaustion; the trace is retained up to and
    including the abort row.
    """
    # Over max_ticks ticks the clock sums dt, and odometry its readings:
    # each a step plus normal noise, taken here at 10 sigmas (a draw beyond
    # that has probability below 2e-23). Refuse settings whose sums could
    # overflow to inf.
    lin, ang = cfg.linear_speed * cfg.dt, cfg.angular_speed * cfg.dt
    for name, step, sigma in (
        ("angular_speed * dt", ang, odo.sigma_ang_per_step),
        ("linear_speed * dt", lin, odo.sigma_lin_frac * lin),
        ("dt", cfg.dt, 0.0),
    ):
        if not math.isfinite(cfg.max_ticks * (step + 10.0 * sigma)):
            raise InputError(
                f"{name} = {step!r} per tick, noise sigma {sigma!r}: "
                f"the sum over max_ticks={cfg.max_ticks} ticks overflows"
            )
    waypoints = [(float(x), float(y)) for x, y in waypoints]
    if not waypoints:
        raise InputError("need at least one waypoint")
    for idx, (wx, wy) in enumerate(waypoints):
        if not (math.isfinite(wx) and math.isfinite(wy)):
            raise InputError(f"waypoint {idx} must be finite, got ({wx!r}, {wy!r})")
    if not env.grid.footprint_free(start_pose.x, start_pose.y, cfg.footprint_radius):
        raise InputError("start pose is not footprint-free")
    env.check_world("estimator", estimator.env_name, estimator.sensor)

    rng = np.random.default_rng(odo.seed)
    rows = []
    true_pose, clock, estimate = start_pose, 0.0, None

    def record(event, budgeted=True):
        """Append the row of ``event``; a budgeted row past max_ticks aborts."""
        if budgeted and len(rows) >= cfg.max_ticks:
            raise _Abort(ABORT_BUDGET)
        rows.append(TraceTick(len(rows), clock, true_pose, estimate, wp_idx, event))

    abort_reason = ""
    try:
        for wp_idx, (wx, wy) in enumerate(waypoints):
            while True:
                pose = np.array([[true_pose.x, true_pose.y, true_pose.theta]])
                try:
                    row = estimator.estimate(raycast(env, pose), pose)[0]
                except EstimatorUnavailableError:
                    raise _Abort(ABORT_ESTIMATOR) from None
                estimate = Pose2D(*row.tolist())
                record(EVENT_ESTIMATE)
                dist = math.hypot(wx - estimate.x, wy - estimate.y)
                if dist <= cfg.T_d:
                    break
                turn = ang_diff(heading(estimate, Pose2D(wx, wy, 0.0)), estimate.theta)
                if abs(turn) > cfg.T_a:
                    turned = 0.0
                    while abs(ang_diff(turn, turned)) > cfg.T_a:
                        true_pose, delta = simulate_rotation_tick(
                            true_pose, ang_diff(turn, turned), cfg, odo, rng)
                        turned += delta
                        clock += cfg.dt
                        record(EVENT_ROTATE)
                else:
                    leg, travelled = min(dist, cfg.max_step), 0.0
                    while abs(leg - travelled) > cfg.leg_tol:
                        true_pose, delta, collided = simulate_move_tick(
                            true_pose, env, cfg, odo, rng)
                        travelled += delta
                        clock += cfg.dt
                        if collided:
                            record(EVENT_COLLISION)
                            raise _Abort(ABORT_COLLISION)
                        record(EVENT_MOVE)
            record(EVENT_REACHED)
    except _Abort as a:
        abort_reason = a.reason
        record(EVENT_ABORT, budgeted=False)  # the abort row may pass the budget

    trace = RouteTrace(tuple(rows))
    report = closest_distance_metrics(trace, waypoints, abort_reason=abort_reason)
    return trace, report


def closest_distance_metrics(trace: RouteTrace, waypoints, abort_reason: str = "") -> NavReport:
    """Per-waypoint closest approach of the true and estimated pose."""
    if not len(trace):
        raise ValueError("empty trace")
    waypoints = [(float(x), float(y)) for x, y in waypoints]
    results = []
    for i, (wx, wy) in enumerate(waypoints):
        rows = [t for t in trace.ticks if t.waypoint_idx == i]
        reached = any(t.event == EVENT_REACHED for t in rows)
        if rows:
            closest_true = min(math.hypot(t.true_pose.x - wx, t.true_pose.y - wy) for t in rows)
            closest_est = min(
                (math.hypot(t.estimate.x - wx, t.estimate.y - wy)
                 for t in rows if t.estimate is not None),
                default=math.inf,
            )
        else:
            closest_true = closest_est = math.inf
        results.append(WaypointResult(wx, wy, reached, closest_true, closest_est))
    return NavReport(
        waypoints=tuple(results),
        mean_closest_true=float(np.mean([r.closest_true_dist for r in results])),
        mean_closest_est=float(np.mean([r.closest_est_dist for r in results])),
        tick_count=len(trace),
        success=all(r.reached for r in results),
        abort_reason=abort_reason,
    )


# --- file formats ----------------------------------------------------------------

TRACE_HEADER = "tick,time,true_x,true_y,true_theta,est_x,est_y,est_theta,waypoint_idx,event"


def save_trace(trace: RouteTrace, path, comments=()) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(TRACE_HEADER)
    for t in trace.ticks:
        if t.estimate is None:  # abort before the first estimate succeeded
            est = ",,"
        else:
            e = t.estimate
            est = f"{e.x!r},{e.y!r},{e.theta!r}"
        lines.append(
            f"{t.tick},{t.time!r},{t.true_pose.x!r},{t.true_pose.y!r},"
            f"{t.true_pose.theta!r},{est},{t.waypoint_idx},{t.event}"
        )
    write_text(path, "\n".join(lines) + "\n")


def _content_lines(path) -> list:
    """(line number, stripped text) of each line that is neither blank nor a
    '#' comment."""
    numbered = ((i, ln.strip()) for i, ln in enumerate(read_lines(path), start=1))
    return [(i, ln) for i, ln in numbered if ln and not ln.startswith("#")]


def load_trace(path) -> RouteTrace:
    lines = _content_lines(path)
    if not lines or lines[0][1] != TRACE_HEADER:
        raise FormatError(path, lines[0][0] if lines else None, "not a trace file")
    rows = []
    for line_no, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 10:
            raise FormatError(path, line_no, f"malformed trace row {ln!r}")
        if parts[9] not in EVENTS:
            raise FormatError(path, line_no, f"unknown event {parts[9]!r}")
        if any(parts[5:8]) and not all(parts[5:8]):
            raise FormatError(path, line_no, "est_x, est_y, est_theta must be all empty or all set")
        try:
            time = float(parts[1])
            if not math.isfinite(time):
                raise ValueError(f"time must be finite, got {parts[1]!r}")
            est = Pose2D(*map(float, parts[5:8])) if parts[5] else None
            pose = Pose2D(float(parts[2]), float(parts[3]), float(parts[4]))
            rows.append(TraceTick(int(parts[0]), time, pose, est, int(parts[8]), parts[9]))
            RouteTrace(tuple(rows[-2:]))  # this row continues the order of the last one
        except ValueError as exc:
            raise FormatError(path, line_no, f"bad value: {exc}") from None
    return RouteTrace(tuple(rows))


def load_waypoints(path) -> list:
    out = []
    for line_no, ln in _content_lines(path):
        parts = ln.split(",")
        if len(parts) != 2:
            raise FormatError(path, line_no, f"expected 'x,y', got {ln!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise FormatError(path, line_no, f"bad value: {exc}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FormatError(path, line_no, f"waypoint must be finite, got {ln!r}")
        out.append((x, y))
    if not out:
        raise FormatError(path, None, "no waypoints")
    return out
