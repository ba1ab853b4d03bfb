"""Pose algebra: wrapping, bearings, normalisation, circular statistics."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from neuromap.estimator import EstimatorUnavailableError, ExternalEstimator
from neuromap.inputs import InputError
from neuromap.pose import (
    DegenerateHeadingError,
    EnvBounds,
    IndeterminateMeanError,
    Pose2D,
    ang_diff,
    circular_mean,
    denormalize,
    heading,
    normalize,
    wrap_angle,
    wrap_angles,
)
from neuromap.world import EnvironmentSpec, OccupancyGrid

STUB = Path(__file__).parent / "external_stub.py"


def wrap_oracle(a):
    """Independent wrap via fmod: congruent value in (-180, +180]."""
    r = math.fmod(a, 360.0)
    if r <= -180.0:
        r += 360.0
    elif r > 180.0:
        r -= 360.0
    return r


def ang_diff_oracle(a, b):
    """Minimum-magnitude representative of a - b mod 360, ties positive."""
    base = a - b
    k_lo = int(math.floor((base - 180.0) / 360.0)) - 1
    cands = [base - 360.0 * k for k in range(k_lo, k_lo + 4)]
    best = min(cands, key=lambda c: (abs(c), -c))
    return best


# wrapping ------------------------------------------------------------------


def test_wrap_frozen_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(190.0) == -170.0
    assert wrap_angle(-190.0) == 170.0
    assert wrap_angle(360.0) == 0.0
    assert wrap_angle(-360.0) == 0.0
    assert wrap_angle(720.0) == 0.0
    assert wrap_angle(123.25) == 123.25
    assert wrap_angle(483.25) == 123.25
    assert wrap_angle(-236.75) == 123.25


def test_wrap_boundary_convention():
    # (-180, +180]: +180 is the canonical representative of the cut.
    assert wrap_angle(180.0) == 180.0
    assert wrap_angle(-180.0) == 180.0
    assert wrap_angle(540.0) == 180.0
    assert wrap_angle(-540.0) == 180.0


def test_wrap_no_negative_zero():
    for a in (0.0, -0.0, 360.0, -360.0, -720.0):
        r = wrap_angle(a)
        assert r == 0.0
        assert math.copysign(1.0, r) == 1.0


def test_wrap_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            wrap_angle(bad)


def test_wrap_angles_is_wrap_angle_bit_for_bit():
    # Dataset and Estimator.estimate wrap whole arrays; a stored or returned
    # heading must be the bits wrap_angle gives, -0.0 folded to 0.0 included
    edges = [180.0, -180.0, 360.0, -360.0, 0.0, -0.0, 540.0, -540.0,
             1e-300, -1e-300, 1e300, -1e300]
    rng = np.random.default_rng(19)
    angles = np.concatenate([edges, rng.uniform(-1e4, 1e4, size=10_000)])
    want = np.array([wrap_angle(a) for a in angles.tolist()])
    assert wrap_angles(angles).tobytes() == want.tobytes()


def test_wrap_matches_oracle_and_is_idempotent():
    rng = np.random.default_rng(20260814)
    angles = rng.uniform(-1e6, 1e6, size=100_000)
    for a in angles:
        r = wrap_angle(float(a))
        assert -180.0 < r <= 180.0
        assert abs(r - wrap_oracle(float(a))) < 1e-9
        # congruence: (a - r) must be an integer number of turns
        k = round((a - r) / 360.0)
        assert abs(a - r - 360.0 * k) < 1e-6
        # wrapping an already wrapped angle moves it by at most rounding noise
        assert abs(wrap_angle(r) - r) < 1e-9


# signed differences --------------------------------------------------------


def test_ang_diff_frozen_values():
    assert ang_diff(10.0, 350.0) == 20.0
    assert ang_diff(350.0, 10.0) == -20.0
    assert ang_diff(-170.0, 170.0) == 20.0
    assert ang_diff(170.0, -170.0) == -20.0
    assert ang_diff(45.0, 45.0) == 0.0
    # antipodal pairs resolve to +180 from either side
    assert ang_diff(90.0, -90.0) == 180.0
    assert ang_diff(-90.0, 90.0) == 180.0


def test_ang_diff_matches_minimum_rotation_oracle():
    rng = np.random.default_rng(7)
    pairs = rng.uniform(-1000.0, 1000.0, size=(20_000, 2))
    for a, b in pairs:
        d = ang_diff(float(a), float(b))
        assert -180.0 < d <= 180.0
        assert abs(d - ang_diff_oracle(float(a), float(b))) < 1e-9


def test_ang_diff_antisymmetric_off_the_cut():
    rng = np.random.default_rng(8)
    for a, b in rng.uniform(-720.0, 720.0, size=(10_000, 2)):
        d1 = ang_diff(float(a), float(b))
        d2 = ang_diff(float(b), float(a))
        if abs(abs(d1) - 180.0) < 1e-9:
            assert abs(abs(d2) - 180.0) < 1e-9
        else:
            assert abs(d1 + d2) < 1e-9


# poses and bounds -----------------------------------------------------------


def test_pose_wraps_theta_on_construction():
    p = Pose2D(1.0, 2.0, 190.0)
    assert p.theta == -170.0
    assert p == Pose2D(1.0, 2.0, -170.0)
    assert hash(p) == hash(Pose2D(1.0, 2.0, -170.0))


def test_pose_rejects_non_finite():
    with pytest.raises(ValueError):
        Pose2D(math.nan, 0.0)
    with pytest.raises(ValueError):
        Pose2D(0.0, math.inf)
    with pytest.raises(ValueError):
        Pose2D(0.0, 0.0, math.nan)


def test_pose_is_immutable():
    p = Pose2D(0.0, 0.0)
    with pytest.raises(AttributeError):
        p.x = 1.0


def test_bounds_properties():
    b = EnvBounds(0.0, 10.0, -2.0, 18.0)
    assert b.width == 10.0
    assert b.height == 20.0


def test_bounds_reject_degenerate():
    with pytest.raises(ValueError):
        EnvBounds(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        EnvBounds(0.0, 1.0, 2.0, 1.0)


# heading --------------------------------------------------------------------


def test_heading_quadrants():
    o = Pose2D(0.0, 0.0)
    assert heading(o, Pose2D(1.0, 0.0)) == 0.0
    assert heading(o, Pose2D(1.0, 1.0)) == 45.0
    assert heading(o, Pose2D(0.0, 1.0)) == 90.0
    assert heading(o, Pose2D(-1.0, 1.0)) == 135.0
    assert heading(o, Pose2D(-1.0, 0.0)) == 180.0
    assert heading(o, Pose2D(-1.0, -1.0)) == -135.0
    assert heading(o, Pose2D(0.0, -1.0)) == -90.0
    assert heading(o, Pose2D(1.0, -1.0)) == -45.0


def test_heading_ignores_yaw_fields():
    assert heading(Pose2D(2.0, 2.0, 17.0), Pose2D(3.0, 2.0, -130.0)) == 0.0


def test_heading_reverse_points_back():
    rng = np.random.default_rng(10)
    for ax, ay, bx, by in rng.uniform(-20.0, 20.0, size=(10_000, 4)):
        p, q = Pose2D(ax, ay), Pose2D(bx, by)
        if math.hypot(ax - bx, ay - by) < 1e-3:
            continue
        assert abs(abs(ang_diff(heading(p, q), heading(q, p))) - 180.0) < 1e-9


def test_heading_degenerate_raises():
    p = Pose2D(1.0, 2.0, 45.0)
    with pytest.raises(DegenerateHeadingError):
        heading(p, Pose2D(1.0, 2.0, -90.0))
    with pytest.raises(DegenerateHeadingError):
        heading(Pose2D(0.0, 0.0), Pose2D(0.0, 1e-10))
    # just above HEADING_EPS it is defined again
    assert heading(Pose2D(0.0, 0.0), Pose2D(0.0, 1e-8)) == 90.0


def test_degenerate_heading_is_a_value_error():
    assert issubclass(DegenerateHeadingError, ValueError)
    assert issubclass(IndeterminateMeanError, ValueError)


# normalisation --------------------------------------------------------------


# The scalar formulas the array pair replaced, kept as oracles: pose.normalize
# and pose.denormalize of a Pose2D and a NormalizedPose, and the clamp of
# NormalizedPose.from_raw.


def normalize_oracle(x, y, theta, b):
    nx = 2.0 * (x - b.x_min) / b.width - 1.0
    ny = 2.0 * (y - b.y_min) / b.height - 1.0
    return nx, ny, theta / 180.0


def denormalize_oracle(nx, ny, ntheta, b):
    """The three values the old denormalize handed to Pose2D (theta unwrapped)."""
    x = b.x_min + (nx + 1.0) * 0.5 * b.width
    y = b.y_min + (ny + 1.0) * 0.5 * b.height
    return x, y, ntheta * 180.0


def from_raw_oracle(nx, ny, ntheta):
    """Each component clamped into [-1, 1], and whether any had to be."""
    raw = (nx, ny, ntheta)
    clamped = tuple(min(1.0, max(-1.0, v)) for v in raw)
    return clamped, clamped != raw


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_normalize_frozen_values():
    b = EnvBounds(0.0, 10.0, 0.0, 20.0)
    assert normalize([2.5, 15.0, 90.0], b).tolist() == [-0.5, 0.5, 0.5]
    assert normalize([0.0, 0.0, -180.0], b).tolist() == [-1.0, -1.0, -1.0]
    assert normalize([10.0, 20.0, 180.0], b).tolist() == [1.0, 1.0, 1.0]
    assert normalize(np.zeros((0, 3)), b).shape == (0, 3)


def test_denormalize_frozen_values():
    b = EnvBounds(0.0, 10.0, 0.0, 20.0)
    assert denormalize([-0.5, 0.5, 0.5], b).tolist() == [2.5, 15.0, 90.0]
    assert denormalize([[-1.0, -1.0, -0.25], [1.0, 1.0, -1.0]], b).tolist() == [
        [0.0, 0.0, -45.0],
        [10.0, 20.0, -180.0],  # not wrapped; Pose2D wraps it to +180
    ]


def test_normalize_rejects_outside_bounds():
    # normalize checks no bound; a pose outside its world is refused by
    # check_world before it is normalised, so no pose lands outside [-1, 1]
    env = EnvironmentSpec("b", OccupancyGrid(10, 20, 1.0, 0.0, 0.0, np.zeros((20, 10), bool)))
    assert env.bounds == EnvBounds(0.0, 10.0, 0.0, 20.0)
    for x, y in ((10.1, 5.0), (5.0, -0.001)):
        assert np.abs(normalize([x, y, 0.0], env.bounds)).max() > 1.0
        with pytest.raises(InputError, match="lies outside world 'b'"):
            env.check_world("dataset", "b", env.sensor, np.array([[x, y, 0.0]]))
    env.check_world("dataset", "b", env.sensor, np.array([[10.0, 5.0, 0.0], [5.0, 0.0, 0.0]]))


def test_normalize_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        x0, y0 = rng.uniform(-30.0, 30.0, size=2)
        w, h = rng.uniform(1.0, 40.0, size=2)
        b = EnvBounds(x0, x0 + w, y0, y0 + h)
        p = Pose2D(
            rng.uniform(x0 + 1e-3, x0 + w - 1e-3),
            rng.uniform(y0 + 1e-3, y0 + h - 1e-3),
            rng.uniform(-179.9, 180.0),
        )
        n = normalize([p.x, p.y, p.theta], b)
        assert np.all(np.abs(n) <= 1.0)
        q = Pose2D(*denormalize(n, b).tolist())
        assert abs(q.x - p.x) < 1e-9
        assert abs(q.y - p.y) < 1e-9
        assert abs(ang_diff(q.theta, p.theta)) < 1e-9


def test_normalize_pair_matches_the_scalar_formulas_bit_for_bit():
    rng = np.random.default_rng(15)
    for _ in range(200):
        x0, y0 = rng.uniform(-30.0, 30.0, size=2)
        w, h = rng.uniform(0.5, 40.0, size=2)
        b = EnvBounds(x0, x0 + w, y0, y0 + h)
        inside = np.column_stack([
            rng.uniform(b.x_min, b.x_max, 50),
            rng.uniform(b.y_min, b.y_max, 50),
            rng.uniform(-180.0, 180.0, 50),
        ])
        edges = [(x, y, t) for x in (b.x_min, b.x_max) for y in (b.y_min, b.y_max)
                 for t in (-180.0, 180.0, 0.0, -0.0)]
        poses = np.vstack([inside, edges])
        want = [normalize_oracle(*p, b) for p in poses.tolist()]
        assert bits(normalize(poses, b)) == bits(want)
        assert all(bits(normalize(p, b)) == bits(w) for p, w in zip(poses, want))
        # the unit cube's faces, the ±1 yaw, and the normalised poses above
        n = np.vstack([want, [(u, v, t) for u in (-1.0, 1.0) for v in (-1.0, 1.0)
                              for t in (-1.0, 1.0, 0.0, -0.0)]])
        assert bits(denormalize(n, b)) == bits([denormalize_oracle(*v, b) for v in n.tolist()])


def test_from_raw_clamps_and_flags(tmp_path):
    # the external adapter keeps a reply inside [-1, 1], clamps one outside
    # it and refuses a non-finite one
    env = EnvironmentSpec("b", OccupancyGrid(10, 20, 1.0, 0.0, 0.0, np.zeros((20, 10), bool)))
    replies = tmp_path / "replies.txt"
    replies.write_text("0.25 -0.75 1.0\n1.2 -3.0 0.0\ninf 0.0 0.0\n")
    cmd = [sys.executable, str(STUB), "--mode", "replay", "--replies", str(replies)]
    obs = np.zeros((1, env.sensor.ray_count))
    with ExternalEstimator(cmd, env) as est:
        assert est.estimate(obs).tolist() == [[6.25, 2.5, 180.0]]
        assert est.estimate(obs).tolist() == [[10.0, 0.0, 0.0]]
        with pytest.raises(EstimatorUnavailableError, match="non-finite response"):
            est.estimate(obs)


def test_from_raw_matches_clip(tmp_path):
    # the external adapter clips each reply into [-1, 1] and denormalises
    # it: the old from_raw clamp and scalar denormalize, bit for bit
    rng = np.random.default_rng(12)
    grid = OccupancyGrid(6, 4, 0.5, -1.25, 0.75, np.zeros((4, 6), bool))
    env = EnvironmentSpec("clip", grid)
    b = env.bounds
    one_up, one_down = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
    edges = [1.0, -1.0, one_up, -one_up, one_down, -one_down, 0.0, -0.0, 3.0, -1e300]
    raw = [*rng.uniform(-3.0, 3.0, size=(500, 3)).tolist(),
           *([e, -e, e] for e in edges), [0.25, -0.75, 1.0], [1.2, -3.0, 0.0]]
    want, flags = [], []
    for r in raw:
        n, clamped = from_raw_oracle(*r)
        want.append(Pose2D(*denormalize_oracle(*n, b)))
        flags.append(clamped)
    assert True in flags and False in flags  # replies inside and outside [-1, 1]
    obs = np.zeros((len(raw), env.sensor.ray_count))
    replies = tmp_path / "replies.txt"
    replies.write_text("".join(" ".join(map(repr, r)) + "\n" for r in raw))
    cmd = [sys.executable, str(STUB), "--mode", "replay", "--replies", str(replies)]
    with ExternalEstimator(cmd, env) as est:
        got = est.estimate(obs)
    assert bits(got) == bits([[p.x, p.y, p.theta] for p in want])


# circular mean ---------------------------------------------------------------


def test_circular_mean_frozen_values():
    assert circular_mean([42.0]) == 42.0
    assert abs(circular_mean([350.0, 10.0])) < 1e-12
    assert abs(circular_mean([0.0, 90.0]) - 45.0) < 1e-12
    assert abs(circular_mean([170.0, -170.0]) - 180.0) < 1e-12
    # three unit vectors at 90/180/270 sum to (-1, 0)
    assert abs(circular_mean([90.0, 180.0, 270.0]) - 180.0) < 1e-12


def test_circular_mean_weighted_frozen():
    assert abs(circular_mean([0.0, 90.0], [1.0, 0.0])) < 1e-12
    assert abs(circular_mean([0.0, 90.0], [0.0, 2.5]) - 90.0) < 1e-12
    # weights tan(30):1 pull the 0/90 pair to 60 degrees
    m = circular_mean([0.0, 90.0], [1.0, math.tan(math.radians(60.0))])
    assert abs(m - 60.0) < 1e-9


def test_circular_mean_is_not_arithmetic_mean():
    # straddling the cut: arithmetic mean of 170 and -170 is 0, the true
    # direction is 180
    assert abs(circular_mean([170.0, -170.0]) - 180.0) < 1e-12


def test_circular_mean_rotation_equivariance():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 2_000:
        n = int(rng.integers(1, 10))
        angles = rng.uniform(-180.0, 180.0, size=n)
        vec = np.exp(1j * np.radians(angles)).sum()
        if abs(vec) < 1e-3 * n:
            continue  # too close to indeterminate to be numerically fair
        delta = float(rng.uniform(-720.0, 720.0))
        m0 = circular_mean([float(a) for a in angles])
        m1 = circular_mean([float(a) + delta for a in angles])
        assert abs(ang_diff(m1, m0 + delta)) < 1e-9
        checked += 1


def test_circular_mean_permutation_and_weight_scale_invariance():
    rng = np.random.default_rng(14)
    for _ in range(1_000):
        n = int(rng.integers(2, 8))
        angles = [float(a) for a in rng.uniform(-180.0, 180.0, size=n)]
        weights = [float(w) for w in rng.uniform(0.1, 5.0, size=n)]
        if abs(np.sum(np.array(weights) * np.exp(1j * np.radians(angles)))) < 1e-3:
            continue
        m = circular_mean(angles, weights)
        order = rng.permutation(n)
        m_perm = circular_mean([angles[i] for i in order], [weights[i] for i in order])
        m_scaled = circular_mean(angles, [3.7 * w for w in weights])
        assert abs(ang_diff(m_perm, m)) < 1e-9
        assert abs(ang_diff(m_scaled, m)) < 1e-9


def test_circular_mean_indeterminate_raises():
    with pytest.raises(IndeterminateMeanError):
        circular_mean([0.0, 180.0])
    with pytest.raises(IndeterminateMeanError):
        circular_mean([90.0, -90.0])
    with pytest.raises(IndeterminateMeanError):
        circular_mean([0.0, 90.0, 180.0, 270.0])
    # near-antipodal but not exact stays defined
    assert abs(circular_mean([0.0, 179.0]) - 89.5) < 1e-9


def test_circular_mean_validates_inputs():
    with pytest.raises(ValueError):
        circular_mean([])
    with pytest.raises(ValueError):
        circular_mean([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        circular_mean([0.0], [-1.0])
    with pytest.raises(ValueError):
        circular_mean([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        circular_mean([math.nan])
