"""Pose estimators: noisy oracle, k-NN over a capture database, trained
regressor inference, and an adapter for external estimator processes.

Every estimator is an ``Estimator``: it names the world its poses belong
to (``env_name``) and the ``sensor`` it reads, answers one call,
``estimate(ranges (m, ray_count), true_poses (m, 3) | None) -> (m, 3)``
poses of (x, y, theta degrees), and is closed by ``close()`` or a ``with``
block. Navigation passes one row, evaluation a whole test set; both pass
the true poses, which only the oracle reads.

k-NN is an exact brute-force search: a screen over cached row norms (the
GEMM identity of Faiss' exact search, one matrix product per block of
queries and tile of database rows, with a running bound on each query's
k-th score carried across the tiles) keeps every row that rounding could
place among the k nearest, and only those are re-ranked with the direct
distance and the (distance, id) tie rule.
"""

import math
import os
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .capture import Dataset
from .inputs import InputError, check_config
from .pool import map_in_order
from .pose import circular_mean, denormalize, wrap_angles
from .training import decode_head, forward_batch
from .world import EnvironmentSpec, SensorConfig

WEIGHT_UNIFORM = "uniform"
WEIGHT_INVERSE = "inverse-distance"

# distance regulariser so an exact match gets a finite, dominant weight
INVERSE_WEIGHT_EPS = 1e-9

DEFAULT_TIMEOUT_S = 5.0

# The k-NN screen scores blocks of SCREEN_QUERIES queries against the
# database one tile of rows at a time, as Faiss' exact search tiles both
# sides. Each of its threads holds one float64 score tile of at most
# SCREEN_TILE_BYTES (6144 rows for 32 queries) and its boolean mask,
# whatever the database's size, and SCREEN_BYTES_IN_FLIGHT caps the
# threads' tiles and masks together, so peak memory grows with neither the
# database nor the core count. Smaller tiles screened a 20k-row database
# more slowly.
SCREEN_QUERIES = 32
SCREEN_TILE_BYTES = 3 << 19
SCREEN_BYTES_IN_FLIGHT = 2 * (SCREEN_TILE_BYTES + SCREEN_TILE_BYTES // 8)

# database rows per group whose minimum score bounds a query's k-th from above
SCREEN_GROUP = 64


class EstimatorUnavailableError(RuntimeError):
    """An estimator gave no usable pose: its estimate was not finite, or the
    external estimator process died, timed out, or broke protocol."""


@dataclass(frozen=True)
class OracleConfig:
    sigma_pos: float = 0.0
    sigma_theta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_config(self, non_negative=("sigma_pos", "sigma_theta", "seed"))
        # refuse a sigma whose 10-sigma draw (probability < 2e-23) overflows
        for name, sigma in (("sigma_pos", self.sigma_pos), ("sigma_theta", self.sigma_theta)):
            if not math.isfinite(10.0 * sigma):
                raise InputError(f"{name} = {sigma!r}: a 10-sigma draw overflows")


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5
    weighting: str = WEIGHT_INVERSE

    def __post_init__(self):
        check_config(self, positive=("k",))
        if self.weighting not in (WEIGHT_UNIFORM, WEIGHT_INVERSE):
            raise InputError(f"unknown weighting {self.weighting!r}")


class Estimator:
    """The estimator protocol: an ``env_name``, a ``sensor``, ``estimate``
    and ``close``. A subclass implements ``_estimate``."""

    env_name: str
    sensor: SensorConfig

    def estimate(self, ranges, true_poses=None) -> np.ndarray:
        """Poses (m, 3) for the m rows of normalised ``ranges`` (m, ray_count),
        given their true poses (m, 3) or None; theta is wrapped as
        ``wrap_angle`` wraps it. A misshaped array or a range outside [0, 1]
        raises ValueError, a pose that is not finite EstimatorUnavailableError."""
        ranges = np.asarray(ranges, dtype=np.float64)
        if ranges.ndim != 2 or ranges.shape[1] != self.sensor.ray_count:
            raise ValueError(f"ranges must be (m, {self.sensor.ray_count}), got {ranges.shape}")
        if ranges.size and not (ranges.min() >= 0.0 and ranges.max() <= 1.0):  # NaN fails too
            raise ValueError("ranges must all lie in [0, 1]")
        m = len(ranges)
        if true_poses is not None:
            true_poses = np.asarray(true_poses, dtype=np.float64)
            if true_poses.shape != (m, 3):
                raise ValueError(f"{m} observations need true poses of shape ({m}, 3), "
                                 f"got {true_poses.shape}")
        poses = self._estimate(ranges, true_poses)
        bad = np.flatnonzero(~np.isfinite(poses).all(axis=1))
        if bad.size:
            raise EstimatorUnavailableError(
                f"estimate for observation {bad[0]} is not finite: {poses[bad[0]].tolist()}")
        poses[:, 2] = wrap_angles(poses[:, 2])
        return poses

    def _estimate(self, ranges: np.ndarray, true_poses: np.ndarray | None) -> np.ndarray:
        """A new (m, 3) array of poses for checked arguments."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the estimator holds; nothing by default."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class OracleEstimator(Estimator):
    """Test double: the true pose plus zero-mean Gaussian noise, the position
    clamped into the environment bounds. Each row draws three normals (x, y,
    theta), so the stream position depends only on the rows estimated.

    Stateful (consumes its RNG stream); confine to a single caller.
    """

    def __init__(self, cfg: OracleConfig, env: EnvironmentSpec):
        self.cfg = cfg
        self.env = env
        self.env_name, self.sensor = env.name, env.sensor
        self._rng = np.random.default_rng(cfg.seed)

    def _estimate(self, ranges, true_poses):
        if true_poses is None:
            raise RuntimeError("oracle estimator needs the true_poses argument")
        cfg, b = self.cfg, self.env.bounds
        sigmas = [cfg.sigma_pos, cfg.sigma_pos, cfg.sigma_theta]
        poses = true_poses + self._rng.normal(0.0, sigmas, size=(len(true_poses), 3))
        poses[:, 0] = np.minimum(np.maximum(poses[:, 0], b.x_min), b.x_max)
        poses[:, 1] = np.minimum(np.maximum(poses[:, 1], b.y_min), b.y_max)
        return poses


class KnnQuery(NamedTuple):
    """A query row and the ascending ids of the database rows ``knn_screen``
    kept for it. perfbench's ``_knn_bytes`` reads ``.ranges`` by name."""

    ranges: np.ndarray
    ids: np.ndarray


def knn_screen(db: Dataset, queries: np.ndarray, k: int) -> list[KnnQuery]:
    """For each row q of ``queries`` (m, ray_count), a ``KnnQuery`` of q and
    the ascending ids of every database row that rounding could place among
    q's k nearest.

    Each block of queries Q is scored against every row r by ``||r||^2 -
    2 Q r`` over the database's cached row norms (the score differs from the
    squared distance only by the constant ``||q||^2``), one matrix product
    per tile of database rows; a row survives when its score is within a
    floating-point rounding bound of its query's k-th smallest. The blocks
    run on ``map_in_order``'s threads, each thread with its own tile buffers.
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
    block = max(1, min(len(queries), SCREEN_QUERIES))
    # a tile of k groups or more bounds every query's k-th score on its own
    tile = min(n, max(k * SCREEN_GROUP, SCREEN_TILE_BYTES // (8 * block)))
    buffers = threading.local()

    def screen(start: int) -> list[KnnQuery]:
        stop = min(start + block, len(queries))
        b, t = stop - start, tol[start:stop]
        if not hasattr(buffers, "scores"):
            buffers.scores, buffers.keep = np.empty(block * tile), np.empty(block * tile, dtype=bool)
        best = np.full((b, k), np.inf)  # the k smallest group minima so far
        found = []
        for lo in range(0, n, tile):
            width = min(tile, n - lo)
            a = buffers.scores[: b * width].reshape(b, width)
            mask = buffers.keep[: b * width].reshape(b, width)
            np.matmul(queries[start:stop], R[lo : lo + width].T, out=a)
            a *= -2.0
            a += norms_sq[lo : lo + width]
            # The tile's columns fall into groups: column g + j * groups for
            # j < SCREEN_GROUP is in group g, and the tail past the whole
            # groups is one more. Group minima are distinct rows' scores, so
            # the k-th smallest of all minima so far, the bound, is at or
            # above the k-th score of the rows so far and thus of the whole
            # database (inf until k minima are seen). It only falls, so every
            # row within tol of the k-th score is kept.
            groups = width // SCREEN_GROUP
            full = groups * SCREEN_GROUP
            mins = np.empty((b, k + groups + (full < width)))
            mins[:, :k] = best
            np.minimum.reduce(a[:, :full].reshape(b, SCREEN_GROUP, groups), axis=1,
                              out=mins[:, k : k + groups])
            if full < width:
                np.minimum.reduce(a[:, full:], axis=1, out=mins[:, -1])
            mins.partition(k - 1, axis=1)
            best = mins[:, :k].copy()
            np.less_equal(a, (best[:, k - 1] + t)[:, None], out=mask)
            flat = np.flatnonzero(mask)
            rows, ids = np.divmod(flat, width)
            found.append((rows, ids + lo, a.ravel()[flat]))
        rows, ids, scores = map(np.concatenate, zip(*found))
        # each query's k-th score, exactly, from its sorted candidates
        order = np.lexsort((scores, rows))
        first = np.searchsorted(rows[order], np.arange(b))
        kth = scores[order[first + k - 1]]
        keep = scores <= (kth + t)[rows]
        rows, ids = rows[keep], ids[keep]
        order = np.argsort(rows, kind="stable")  # ids ascend within each query
        split = np.split(ids[order], np.searchsorted(rows[order], np.arange(1, b)))
        return list(map(KnnQuery, queries[start:stop], split))

    most = max(1, SCREEN_BYTES_IN_FLIGHT // (9 * block * tile))  # 8 score bytes and 1 mask byte
    parts = map_in_order(screen, range(0, len(queries), block), most)
    return [q for part in parts for q in part]


def knn_estimate(db: Dataset, query: KnnQuery, cfg: KnnConfig):
    """The pose (x, y, theta degrees) of a screened query's k nearest
    neighbours by Euclidean distance over range vectors.

    Position is the weighted mean of neighbour positions, orientation the
    circular mean with the same weights; distance ties break toward the
    lower sample id. k=1 returns the neighbour's pose verbatim.

    The search is exact in two passes. ``knn_screen`` keeps every row that
    rounding could place among the k nearest. Only those get the direct
    distance ``sqrt(sum((r - q)^2))`` and the (distance, id) ordering, so
    the neighbours, weights and output bits are those of a full scan with
    the direct formula.
    """
    cand = query.ids
    d = np.sqrt(((db.ranges_matrix()[cand] - query.ranges) ** 2).sum(axis=1))
    best = np.argsort(d, kind="stable")[: cfg.k]  # distance first, then id
    sel = cand[best]
    if cfg.k == 1:
        return tuple(db.poses_matrix()[sel[0]])
    if cfg.weighting == WEIGHT_INVERSE:
        w = 1.0 / (d[best] + INVERSE_WEIGHT_EPS)
    else:
        w = np.ones(cfg.k)
    poses = db.poses_matrix()[sel]
    wsum = w.sum()
    x = (w * poses[:, 0]).sum() / wsum
    y = (w * poses[:, 1]).sum() / wsum
    return x, y, circular_mean(poses[:, 2], weights=w)


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

    def _estimate(self, ranges, true_poses):
        """One screen per block of queries, then each query's exact re-rank."""
        queries = knn_screen(self.db, ranges, self.cfg.k)
        return np.array([knn_estimate(self.db, q, self.cfg) for q in queries]).reshape(-1, 3)


class RegressorEstimator(Estimator):
    """Inference wrapper denormalising a trained regressor's outputs; the
    model must name ``env``'s world and sensor."""

    def __init__(self, model, env: EnvironmentSpec):
        env.check_world("model", model.env_name, model.sensor)
        self.model = model
        self.env = env
        self.env_name, self.sensor = model.env_name, model.sensor

    def _estimate(self, ranges, true_poses):
        # one product per row: a batched product's rows can differ in the last
        # bits. An overflowing model gives NaN poses, which ``estimate`` refuses.
        model, bounds = self.model, self.env.bounds
        with np.errstate(over="ignore", invalid="ignore"):
            rows = [decode_head(model, forward_batch(model, r[None, :]), bounds) for r in ranges]
        return np.array(rows).reshape(-1, 3)


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
        import subprocess  # here, so that no other estimator's command loads it
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
        import select
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

    def _estimate(self, ranges, true_poses):
        return np.array([self._request(r) for r in ranges]).reshape(-1, 3)

    def _request(self, ranges) -> np.ndarray:
        if self._broken:
            raise EstimatorUnavailableError("estimator channel is poisoned")
        if self._proc.poll() is not None:
            self._fail(f"estimator process exited with {self._proc.returncode}")
        req_id = self._next_id
        self._next_id += 1
        payload = " ".join(repr(float(r)) for r in ranges)
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
        return denormalize(np.clip(raw, -1.0, 1.0), self.env.bounds)

    def close(self) -> None:
        import subprocess
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
