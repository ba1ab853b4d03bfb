"""Pose estimators: noisy oracle, k-NN over a capture database, trained
regressor inference, and an adapter for external estimator processes.

Every estimator is an ``Estimator``: it names the world its poses belong
to (``env_name``) and the ``sensor`` it reads, answers
``estimate(observation, true_pose=None) -> Pose2D`` and
``estimate_batch(ranges, true_poses) -> list[Pose2D]``, and is closed
by ``close()`` or a ``with`` block. Callers that hold the true pose
(evaluation, navigation) pass it to every estimator; only the oracle reads
it.

k-NN is an exact brute-force search: a screen over cached row norms (the
GEMM identity of Faiss' exact search, one matrix product per block of
queries) keeps every row that rounding could place among the k nearest,
and only those are re-ranked with the direct distance and the (distance,
id) tie rule.
"""

import math
import os
import select
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from .capture import Dataset
from .inputs import InputError, check_finite
from .pose import Pose2D, circular_mean, denormalize
from .training import decode_head, forward_batch
from .world import EnvironmentSpec, Observation, SensorConfig

WEIGHT_UNIFORM = "uniform"
WEIGHT_INVERSE = "inverse-distance"

# distance regulariser so an exact match gets a finite, dominant weight
INVERSE_WEIGHT_EPS = 1e-9

DEFAULT_TIMEOUT_S = 5.0

# Size of one (queries, database rows) float64 score block of the k-NN
# screen. It sets how many queries share one pass over the database: 32
# against a 20k-row database, with the screen's three block temporaries
# together ~11 MB.
SCREEN_BLOCK_BYTES = 5 << 20


class EstimatorUnavailableError(RuntimeError):
    """The external estimator process died, timed out, or broke protocol."""


@dataclass(frozen=True)
class OracleConfig:
    sigma_pos: float = 0.0
    sigma_theta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.sigma_pos < 0 or self.sigma_theta < 0:
            raise InputError("sigmas must be non-negative")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5
    weighting: str = WEIGHT_INVERSE

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"k must be positive, got {self.k}")
        if self.weighting not in (WEIGHT_UNIFORM, WEIGHT_INVERSE):
            raise InputError(f"unknown weighting {self.weighting!r}")


class Estimator:
    """The estimator protocol: an ``env_name``, a ``sensor``, ``estimate``
    and ``close``."""

    env_name: str
    sensor: SensorConfig

    def estimate(self, observation: Observation, true_pose: Pose2D | None = None) -> Pose2D:
        raise NotImplementedError

    def estimate_batch(self, ranges, true_poses) -> list[Pose2D]:
        """``estimate`` of each row of ``ranges`` (m, ray_count) with its
        true pose from ``true_poses`` (m ``Pose2D``), in row order."""
        if len(ranges) != len(true_poses):
            raise ValueError(f"{len(ranges)} observations but {len(true_poses)} true poses")
        return [self.estimate(Observation(r), truth) for r, truth in zip(ranges, true_poses)]

    def close(self) -> None:
        """Release what the estimator holds; nothing by default."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _check_length(ranges, sensor: SensorConfig):
    if len(ranges) != sensor.ray_count:
        raise ValueError(
            f"observation has {len(ranges)} rays, estimator expects {sensor.ray_count}"
        )


def oracle_estimate(true_pose: Pose2D, cfg: OracleConfig, rng, bounds) -> Pose2D:
    """True pose plus zero-mean Gaussian noise, clamped into ``bounds``.

    Always draws exactly three normals so the stream position depends only
    on the call count, not on the sigma values.
    """
    dx = rng.normal(0.0, cfg.sigma_pos)
    dy = rng.normal(0.0, cfg.sigma_pos)
    dt = rng.normal(0.0, cfg.sigma_theta)
    x = min(max(true_pose.x + dx, bounds.x_min), bounds.x_max)
    y = min(max(true_pose.y + dy, bounds.y_min), bounds.y_max)
    return Pose2D(x, y, true_pose.theta + dt)


class OracleEstimator(Estimator):
    """Test double: returns the true pose perturbed by Gaussian noise.

    Stateful (consumes its RNG stream); confine to a single caller.
    """

    def __init__(self, cfg: OracleConfig, env: EnvironmentSpec):
        self.cfg = cfg
        self.env = env
        self.env_name, self.sensor = env.name, env.sensor
        self._rng = np.random.default_rng(cfg.seed)

    def estimate(self, observation: Observation, true_pose: Pose2D | None = None) -> Pose2D:
        _check_length(observation.ranges, self.sensor)
        if true_pose is None:
            raise RuntimeError("oracle estimator needs the true_pose argument")
        return oracle_estimate(true_pose, self.cfg, self._rng, self.env.bounds)


def knn_screen(db: Dataset, queries: np.ndarray, k: int) -> list[np.ndarray]:
    """For each row q of ``queries`` (m, ray_count), the ascending ids of
    every database row that rounding could place among q's k nearest.

    Each block of queries Q is scored against every row r by ``||r||^2 -
    2 Q r`` in one matrix product over the database's cached row norms (the
    score differs from the squared distance only by the constant
    ``||q||^2``); a row survives when its score is within a floating-point
    rounding bound of its query's k-th smallest.
    """
    R = db.ranges_matrix()
    norms_sq = db.range_norms_sq()
    n, m = R.shape
    # Why the screen never drops a true neighbour. Let m be the ray count,
    # u = eps/2, c = max||r|| + ||q||, s_i = ||r_i - q||^2 exactly, A_i =
    # s_i - ||q||^2 the exact score, a_i its computed value and d_i the
    # computed direct distance. Dot-product error bounds, which hold for any
    # summation order the BLAS picks, give |a_i - A_i| <= da = (m+1) u c^2
    # and |d_i^2 - s_i| <= dd = (m+4) u c^2 (to first order in u). Let S be
    # the k rows with the smallest a. A reference neighbour i is among the
    # first k by d, so d_i <= d_j for some j in S, and
    #   a_i <= A_i + da = s_i - ||q||^2 + da <= d_i^2 - ||q||^2 + da + dd
    #       <= d_j^2 - ||q||^2 + da + dd <= A_j + da + 2 dd
    #       <= a_j + 2 (da + dd) <= a_(k) + 2 (da + dd).
    # 2 (da + dd) = (2m + 5) u c^2 < (m + 3) eps c^2; the margin below is
    # at least six times that, which also absorbs the rounding of c and of
    # the threshold sum. Ties in a (duplicate rows) all pass the <= test.
    c = math.sqrt(norms_sq.max()) + np.sqrt(np.einsum("ij,ij->i", queries, queries))
    tol = 8.0 * (m + 2) * np.finfo(np.float64).eps * c * c
    block = max(1, min(len(queries), SCREEN_BLOCK_BYTES // (8 * n)))
    scores = np.empty((block, n))
    kth = np.empty((block, n))
    keep = np.empty((block, n), dtype=bool)
    survivors = []
    for start in range(0, len(queries), block):
        stop = min(start + block, len(queries))
        a, p, mask = scores[: stop - start], kth[: stop - start], keep[: stop - start]
        np.matmul(queries[start:stop], R.T, out=a)
        a *= -2.0
        a += norms_sq
        np.copyto(p, a)
        p.partition(k - 1, axis=1)
        np.less_equal(a, (p[:, k - 1] + tol[start:stop])[:, None], out=mask)
        rows, ids = np.divmod(np.flatnonzero(mask), n)  # ids ascend within each query
        survivors += np.split(ids, np.searchsorted(rows, np.arange(1, stop - start)))
    return survivors


def knn_estimate(db: Dataset, obs: Observation, cfg: KnnConfig, survivors=None) -> Pose2D:
    """Nearest neighbours by Euclidean distance over range vectors.

    Position is the weighted mean of neighbour positions, orientation the
    circular mean with the same weights; distance ties break toward the
    lower sample id. k=1 returns the neighbour's pose verbatim.

    The search is exact in two passes. ``knn_screen`` keeps every row that
    rounding could place among the k nearest; ``survivors`` is its output
    for this query when the caller has screened a block of queries at once.
    Only the survivors get the direct distance ``sqrt(sum((r - q)^2))`` and
    the (distance, id) ordering, so the neighbours, weights and output bits
    are those of a full scan with the direct formula.
    """
    if len(db) == 0:
        raise ValueError("empty database")
    if cfg.k > len(db):
        raise ValueError(f"k={cfg.k} exceeds database size {len(db)}")
    R = db.ranges_matrix()
    q = np.asarray(obs.ranges, dtype=np.float64)
    if q.shape != (R.shape[1],):
        raise ValueError(f"query has {q.size} rays, database has {R.shape[1]}")
    cand = knn_screen(db, q[None, :], cfg.k)[0] if survivors is None else survivors
    d = np.sqrt(((R[cand] - q) ** 2).sum(axis=1))
    best = np.argsort(d, kind="stable")[: cfg.k]  # distance first, then id
    sel = cand[best]
    if cfg.k == 1:  # Python floats, as save_trace writes them with repr
        return Pose2D(*db.poses_matrix()[sel[0]].tolist())
    if cfg.weighting == WEIGHT_INVERSE:
        w = 1.0 / (d[best] + INVERSE_WEIGHT_EPS)
    else:
        w = np.ones(cfg.k)
    poses = db.poses_matrix()[sel]
    wsum = w.sum()
    x = float((w * poses[:, 0]).sum() / wsum)
    y = float((w * poses[:, 1]).sum() / wsum)
    theta = circular_mean(poses[:, 2], weights=w)
    return Pose2D(x, y, theta)


class KnnEstimator(Estimator):
    """Immutable k-NN estimator over a capture database."""

    def __init__(self, db: Dataset, cfg: KnnConfig = KnnConfig()):
        if len(db) == 0:
            raise InputError("empty database")
        if cfg.k > len(db):
            raise InputError(f"k={cfg.k} exceeds database size {len(db)}")
        self.db = db
        self.cfg = cfg
        self.env_name, self.sensor = db.env_name, db.sensor

    def estimate(self, observation: Observation, true_pose: Pose2D | None = None) -> Pose2D:
        _check_length(observation.ranges, self.sensor)
        return knn_estimate(self.db, observation, self.cfg)

    def estimate_batch(self, ranges, true_poses) -> list[Pose2D]:
        """One screen per block of queries, then each query's exact re-rank."""
        observations = [Observation(r) for r in ranges]
        for obs in observations:
            _check_length(obs.ranges, self.sensor)
        if not observations:
            return []
        survivors = knn_screen(self.db, np.stack([obs.ranges for obs in observations]), self.cfg.k)
        return [
            knn_estimate(self.db, obs, self.cfg, cand)
            for obs, cand in zip(observations, survivors)
        ]


class RegressorEstimator(Estimator):
    """Inference wrapper denormalising a trained regressor's outputs; the
    model must name ``env``'s world and sensor."""

    def __init__(self, model, env: EnvironmentSpec):
        env.check_world("model", model.env_name, model.sensor)
        self.model = model
        self.env = env
        self.env_name, self.sensor = model.env_name, model.sensor

    def estimate(self, observation: Observation, true_pose: Pose2D | None = None) -> Pose2D:
        _check_length(observation.ranges, self.sensor)
        out = forward_batch(self.model, observation.ranges[None, :])
        return Pose2D(*decode_head(self.model, out, self.env.bounds)[0].tolist())


class ExternalEstimator(Estimator):
    """Line-protocol adapter around an external estimator process.

    Request: ``EST <id> r0 r1 ...``; response: ``POSE <id> nx ny ntheta``
    (normalised values, clipped into [-1, 1] and denormalised here against
    the environment bounds). Requests and responses strictly
    alternate; ``QUIT`` ends the session. Any protocol breach, process
    exit, or timeout raises EstimatorUnavailableError and poisons the
    channel.
    """

    def __init__(self, argv, env: EnvironmentSpec, timeout: float = DEFAULT_TIMEOUT_S):
        self.env = env
        self.env_name, self.sensor = env.name, env.sensor
        self.timeout = timeout
        self._next_id = 0
        self._buf = b""
        self._broken = False
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as e:
            raise EstimatorUnavailableError(f"cannot start {argv!r}: {e}") from e

    def _fail(self, msg):
        self._broken = True
        raise EstimatorUnavailableError(msg)

    def _read_line(self) -> str:
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + self.timeout
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._fail(f"no response within {self.timeout} s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                self._fail(f"no response within {self.timeout} s")
            chunk = os.read(fd, 4096)
            if not chunk:
                self._fail("estimator process closed its output")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode("ascii", errors="replace")

    def estimate(self, observation: Observation, true_pose: Pose2D | None = None) -> Pose2D:
        if self._broken:
            raise EstimatorUnavailableError("estimator channel is poisoned")
        _check_length(observation.ranges, self.sensor)
        if self._proc.poll() is not None:
            self._fail(f"estimator process exited with {self._proc.returncode}")
        req_id = self._next_id
        self._next_id += 1
        payload = " ".join(repr(float(r)) for r in observation.ranges)
        try:
            self._proc.stdin.write(f"EST {req_id} {payload}\n".encode("ascii"))
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError):
            self._fail("estimator process closed its input")
        line = self._read_line()
        parts = line.split()
        if len(parts) != 5 or parts[0] != "POSE":
            self._fail(f"malformed response {line!r}")
        try:
            resp_id = int(parts[1])
            raw = [float(v) for v in parts[2:5]]
        except ValueError:
            self._fail(f"malformed response {line!r}")
        if resp_id != req_id:
            self._fail(f"response id {resp_id} does not match request {req_id}")
        if not all(math.isfinite(v) for v in raw):
            self._fail(f"non-finite response {line!r}")
        return Pose2D(*denormalize(np.clip(raw, -1.0, 1.0), self.env.bounds).tolist())

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.write(b"QUIT\n")
                self._proc.stdin.flush()
                self._proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self._proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()
