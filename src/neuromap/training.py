"""Pose regression: a compact MLP, L1 loss, Adam, and the learning-rate
state machine (staircase exponential decay, plateau reset, convergence).

The model maps a normalised range vector to a pose on the unit cube through
relu hidden layers and a tanh output head. Training runs shuffled
minibatches of 32 with Adam (coupled L2 weight decay), evaluates a held-out
validation split every ``eval_interval`` iterations, and drives the
schedule: learning rate 1e-4 decayed by 0.9998 per iteration in staircase
steps at 1000-iteration boundaries; a 10000-iteration plateau of the
validation metric resets the rate to its initial value; a second plateau
after the reset ends training as converged.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .capture import Dataset, derived_rng
from .inputs import FormatError, InputError, check_finite, check_size, header_line, read_header, read_lines
from .pose import EnvBounds, ang_diff, denormalize, normalize
from .world import EnvironmentSpec, SensorConfig

STREAM_INIT = 10
STREAM_VAL_SPLIT = 11
STREAM_BATCHES = 12

MODEL_MAGIC = "#neuromap-model v1"

IMPROVEMENT_EPS = 1e-12

PHASE_DECAYING = "decaying"
PHASE_POST_RESET = "post-reset"
PHASE_CONVERGED = "converged"

ACTION_CONTINUE = "continue"
ACTION_RESET = "reset"
ACTION_CONVERGED = "converged"

YAW_TANH = "tanh"  # single normalised-yaw output, 3 outputs total
YAW_SINCOS = "sincos"  # (sin, cos) yaw head, 4 outputs, dodges the +-180 seam

DECAY_PER_ITERATION = "per_iteration"  # each stair multiplies by rate^interval
DECAY_PER_INTERVAL = "per_interval"  # each stair multiplies by rate once


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol parameters; defaults follow the reference recipe."""

    batch_size: int = 32
    weight_decay: float = 1e-6
    seed: int = 0
    eval_interval: int = 1000
    max_iterations: int = 200_000
    lr0: float = 1e-4
    decay_mode: str = DECAY_PER_ITERATION
    hidden_dims: tuple = (64, 64)
    val_fraction: float = 0.1
    yaw_mode: str = YAW_TANH
    loss: str = "l1"

    def __post_init__(self) -> None:
        check_finite(self)
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")
        if self.eval_interval < 1:
            raise InputError("eval_interval must be >= 1")
        if not self.lr0 > 0.0:
            raise InputError("lr0 must be positive")
        if not 0.0 < self.val_fraction < 1.0:
            raise InputError("val_fraction must be in (0, 1)")
        if self.weight_decay < 0.0:
            raise InputError("weight_decay must be >= 0")
        if min(self.hidden_dims, default=1) < 1:
            raise InputError(f"hidden widths must be >= 1, got {self.hidden_dims}")
        if self.decay_mode not in (DECAY_PER_ITERATION, DECAY_PER_INTERVAL):
            raise InputError(f"unknown decay_mode {self.decay_mode!r}")
        if self.loss not in ("l1", "l2"):
            raise InputError(f"unknown loss {self.loss!r}")
        if self.yaw_mode not in (YAW_TANH, YAW_SINCOS):
            raise InputError(f"unknown yaw_mode {self.yaw_mode!r}")


class ScheduleContractError(ValueError):
    """lr_tick was driven outside its contract (non-monotone iterations)."""


class TrainingDivergedError(RuntimeError):
    """The loss stopped being finite; training aborted."""


class RegressorModel:
    """A fully connected relu network with a tanh output head.

    ``params`` is one float64 vector laid out W0, b0, W1, b1, ...;
    ``weights[i]`` (fan_out, fan_in) and ``biases[i]`` are views into it.
    The constructor copies the ``params`` it is given. Hidden activations
    are relu, the last layer is tanh. With the default yaw head the output
    dimension is exactly 3: (nx, ny, ntheta). The optional sin/cos head
    uses 4. A model names the world its poses are normalised against
    (``env_name``) and the ``sensor`` it reads, whose ``ray_count`` is the
    input width; a model built in memory may leave both unset, and then no
    estimator takes it.
    """

    def __init__(self, layer_dims, params, yaw_mode=YAW_TANH, env_name="", sensor=None):
        layer_dims = tuple(int(d) for d in layer_dims)
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dims")
        if any(d < 1 for d in layer_dims):
            raise ValueError(f"layer dims must be positive, got {layer_dims}")
        out_dim = head_width(yaw_mode)
        if layer_dims[-1] != out_dim:
            raise ValueError(f"yaw_mode {yaw_mode} needs {out_dim} outputs, got {layer_dims[-1]}")
        if sensor is not None and sensor.ray_count != layer_dims[0]:
            raise ValueError(f"sensor casts {sensor.ray_count} rays, the model takes {layer_dims[0]}")
        params = np.array(params, dtype=np.float64)
        if params.shape != (param_count(layer_dims),):
            raise ValueError(f"params shape {params.shape}, expected ({param_count(layer_dims)},)")
        self.layer_dims = layer_dims
        self.params = params
        self.weights, self.biases = _layer_views(layer_dims, params)
        self.yaw_mode = yaw_mode
        self.env_name = env_name
        self.sensor = sensor

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @classmethod
    def zeros(cls, layer_dims, yaw_mode=YAW_TANH, env_name="", sensor=None):
        return cls(layer_dims, np.zeros(param_count(layer_dims)), yaw_mode, env_name, sensor)

    @classmethod
    def random(cls, layer_dims, rng, yaw_mode=YAW_TANH, env_name="", sensor=None):
        """He-uniform init for the relu hidden layers, Glorot for the tanh head."""
        model = cls.zeros(layer_dims, yaw_mode, env_name, sensor)
        last = len(model.weights) - 1
        for i, w in enumerate(model.weights):
            fan_out, fan_in = w.shape
            limit = math.sqrt(6.0 / (fan_in + fan_out) if i == last else 6.0 / fan_in)
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        return model

    def copy(self) -> "RegressorModel":
        return RegressorModel(self.layer_dims, self.params, self.yaw_mode, self.env_name, self.sensor)


def head_width(yaw_mode) -> int:
    """The network's outputs under ``yaw_mode``: (nx, ny, ntheta) or (nx, ny, sin, cos)."""
    if yaw_mode == YAW_TANH:
        return 3
    if yaw_mode == YAW_SINCOS:
        return 4
    raise ValueError(f"unknown yaw_mode {yaw_mode!r}")


def param_count(layer_dims) -> int:
    """The length of the W0, b0, W1, b1, ... vector of a network of ``layer_dims``."""
    return sum(o * (i + 1) for i, o in zip(layer_dims, layer_dims[1:]))


def _layer_views(layer_dims, flat):
    """(weights, biases): per-layer views of a flat W0, b0, W1, b1, ... vector."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(layer_dims, layer_dims[1:]):
        stop = start + fan_out * fan_in
        weights.append(flat[start:stop].reshape(fan_out, fan_in))
        biases.append(flat[stop : stop + fan_out])
        start = stop + fan_out
    return weights, biases


def _layer_outputs(model: RegressorModel, X: np.ndarray):
    """Yield each layer's activations in turn, relu hidden layers then the tanh head."""
    a = X
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w.T
        a += b  # the bias and the activation work in the product's own buffer
        if i == last:
            np.tanh(a, out=a)
        else:
            np.maximum(a, 0.0, out=a)
        yield a


def forward_batch(model: RegressorModel, X: np.ndarray) -> np.ndarray:
    """(n, input_dim) -> (n, out_dim) activations after the tanh head."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {X.shape} does not match input dim {model.input_dim}")
    for a in _layer_outputs(model, X):  # one layer's activations alive at a time
        pass
    return a


def decode_head(model: RegressorModel, out: np.ndarray, bounds: EnvBounds) -> np.ndarray:
    """The poses (n, 3) of (x, y, theta deg) that network output rows ``out``
    stand for: the tanh head's rows are normalised poses; the sincos head's
    yaw is the angle of its (sin, cos) pair."""
    poses = denormalize(out[:, :3], bounds)
    if model.yaw_mode == YAW_SINCOS:
        poses[:, 2] = np.degrees(np.arctan2(out[:, 2], out[:, 3]))
    return poses


def batch_loss(pred: np.ndarray, target: np.ndarray, kind: str = TrainConfig.loss) -> float:
    """Mean over samples of the per-sample mean component loss."""
    d = pred - target
    if kind == "l1":
        return float(np.mean(np.abs(d)))
    if kind == "l2":
        return float(np.mean(d * d))
    raise ValueError(f"unknown loss {kind!r}")


def backward(model: RegressorModel, X: np.ndarray, target: np.ndarray, kind: str = TrainConfig.loss):
    """Gradient of the batch-mean loss with respect to ``model.params``.

    Returns (loss, grad), with grad a flat vector laid out like ``model.params``.
    Subgradient conventions: d|x|/dx = 0 at x = 0, relu' = 0 at 0.
    """
    X = np.asarray(X, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    acts = [X, *_layer_outputs(model, X)]
    out = acts[-1]
    loss = batch_loss(out, target, kind)
    if kind == "l1":
        g = np.sign(out - target) / out.size
    else:
        g = 2.0 * (out - target) / out.size
    grad = np.empty_like(model.params)
    grad_w, grad_b = _layer_views(model.layer_dims, grad)
    last = len(model.weights) - 1
    for i in range(last, -1, -1):
        if i == last:
            dz = g * (1.0 - acts[i + 1] ** 2)  # tanh'
        else:
            dz = g * (acts[i + 1] > 0.0)  # relu', 0 at the kink: relu(z) > 0 iff z > 0
        np.matmul(dz.T, acts[i], out=grad_w[i])
        dz.sum(axis=0, out=grad_b[i])
        if i > 0:
            g = dz @ model.weights[i]
    return loss, grad


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 16384  # elements per pass of adam_step: 128 KB temporaries


class AdamState:
    """First/second moment accumulators of a flat parameter vector, and the step count."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0


def adam_step(params, grads, state: AdamState, lr: float, weight_decay: float = 0.0):
    """One in-place Adam update of the flat vector ``params``, with coupled L2
    weight decay.

    The decay term is added to the gradient before the moment updates
    (g <- g + wd * param), the classical formulation. The update is
    elementwise, so running it over ``ADAM_BLOCK``-element slices changes no
    bit. At 96-256-256-256-3 on a 2-core x86 VM with one BLAS thread,
    whole-vector temporaries (1.26 MB each) made a step ~8% slower than
    per-layer tensors, and 128 KB slices ~10% faster.

    Raises ValueError, changing nothing, when ``grads`` or the moments are
    not shaped like ``params`` (a mis-shaped gradient would broadcast).
    """
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ValueError(f"grads {grads.shape}, moments {state.m.shape} must match {params.shape}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for lo in range(0, params.size, ADAM_BLOCK):
        p, g, m, v = (a[lo : lo + ADAM_BLOCK] for a in (params, grads, state.m, state.v))
        if weight_decay != 0.0:
            g = g + weight_decay * p
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# The reference recipe's schedule: the rate falls by DECAY_RATE per iteration
# in DECAY_INTERVAL-iteration stairs, and PATIENCE iterations without a
# better validation metric reset it, or end training after a reset.
DECAY_RATE = 0.9998
DECAY_INTERVAL = 1000
PATIENCE = 10000


class LrSchedule:
    """Staircase exponential decay with plateau reset and convergence.

    The rate holds within each ``DECAY_INTERVAL`` stair and drops at the
    boundary; a plateau of ``PATIENCE`` iterations without the validation
    metric improving (strictly, beyond 1e-12) resets the rate to ``lr0``
    and restarts the decay clock; a second plateau after the reset declares
    convergence. Any improvement after a reset resumes normal decaying, so
    reset cycles are unlimited. ``TrainConfig`` checks the settings.
    """

    def __init__(
        self,
        lr0: float = TrainConfig.lr0,
        eval_interval: int = TrainConfig.eval_interval,
        decay_mode: str = TrainConfig.decay_mode,
    ) -> None:
        self.lr0 = lr0
        self.eval_interval = eval_interval
        self.decay_mode = decay_mode
        self.phase = PHASE_DECAYING
        self.best_metric = math.inf
        self.iters_since_improvement = 0
        self.current_lr = lr0
        self.last_reset_iteration = 0
        self._last_tick = -1

    def tick(self, iteration: int, eval_metric: float | None = None):
        """Advance to ``iteration``; returns (lr, action).

        ``eval_metric`` (validation mean position error, lower is better)
        must be supplied exactly on evaluation boundaries.
        """
        if iteration <= self._last_tick:
            raise ScheduleContractError(
                f"iterations must strictly increase, got {iteration} after {self._last_tick}"
            )
        self._last_tick = iteration
        action = ACTION_CONTINUE
        if eval_metric is not None:
            if not math.isfinite(eval_metric):
                raise ValueError(f"eval metric must be finite, got {eval_metric!r}")
            if self.improves(eval_metric):
                self.best_metric = eval_metric
                self.iters_since_improvement = 0
                if self.phase == PHASE_POST_RESET:
                    self.phase = PHASE_DECAYING
            else:
                self.iters_since_improvement += self.eval_interval
                if self.iters_since_improvement >= PATIENCE:
                    if self.phase == PHASE_DECAYING:
                        action = ACTION_RESET
                        self.phase = PHASE_POST_RESET
                        self.last_reset_iteration = iteration
                        self.iters_since_improvement = 0
                    else:
                        action = ACTION_CONVERGED
                        self.phase = PHASE_CONVERGED
        stairs = (iteration - self.last_reset_iteration) // DECAY_INTERVAL
        exponent = stairs * DECAY_INTERVAL if self.decay_mode == DECAY_PER_ITERATION else stairs
        self.current_lr = self.lr0 * DECAY_RATE**exponent
        return self.current_lr, action

    def improves(self, metric: float) -> bool:
        """Whether ``metric`` beats the best so far by more than ``IMPROVEMENT_EPS``."""
        return metric < self.best_metric - IMPROVEMENT_EPS


@dataclass(frozen=True)
class HistoryRow:
    iteration: int
    lr: float
    val_pos_err: float
    val_theta_err: float
    event: str = ""


def _targets(dataset: Dataset, env: EnvironmentSpec, yaw_mode: str) -> np.ndarray:
    poses = dataset.poses_matrix()
    normalized = normalize(poses, env.bounds)
    if yaw_mode == YAW_TANH:
        return normalized
    rad = np.radians(poses[:, 2])
    return np.column_stack([normalized[:, :2], np.sin(rad), np.cos(rad)])


def _val_errors(model: RegressorModel, X: np.ndarray, poses: np.ndarray, env: EnvironmentSpec):
    """Mean denormalised position / yaw error of the model on (X, poses).

    Raises TrainingDivergedError when the model's outputs are not finite.
    """
    est = decode_head(model, forward_batch(model, X), env.bounds)
    pos = np.hypot(est[:, 0] - poses[:, 0], est[:, 1] - poses[:, 1])
    dt = np.abs((est[:, 2] - poses[:, 2] + 180.0) % 360.0 - 180.0)
    pos_err, yaw_err = float(np.mean(pos)), float(np.mean(dt))
    if not (math.isfinite(pos_err) and math.isfinite(yaw_err)):
        raise TrainingDivergedError(f"non-finite validation error {pos_err!r} m, {yaw_err!r} deg")
    return pos_err, yaw_err


# the divergence checks report a blown-up step; numpy need not warn of it too
@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Dataset, env: EnvironmentSpec, cfg: TrainConfig, on_eval=None):
    """Train a regressor on the dataset; returns (best model, history).

    The dataset must belong to ``env``'s world and sensor. A seeded
    ``val_fraction`` split is held out to drive the schedule; the returned
    model is the snapshot with the best validation position error.
    ``on_eval(row, model)`` is called after each evaluation when given.
    """
    env.check_world("dataset", dataset.env_name, dataset.sensor, dataset.poses_matrix())
    n = len(dataset)
    if n < cfg.batch_size:
        raise InputError(f"dataset has {n} samples, need at least batch_size={cfg.batch_size}")
    n_val = max(1, int(round(n * cfg.val_fraction)))
    if n - n_val < cfg.batch_size:
        raise InputError("dataset too small for the validation split")

    X = dataset.ranges_matrix()
    T = _targets(dataset, env, cfg.yaw_mode)
    poses = dataset.poses_matrix()

    perm = derived_rng(cfg.seed, STREAM_VAL_SPLIT).permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    Xv, Pv = X[val_idx], poses[val_idx]

    layer_dims = (dataset.sensor.ray_count, *cfg.hidden_dims, head_width(cfg.yaw_mode))
    # the parameter vector, and a layer's activations over the whole dataset
    what = f"hidden widths {cfg.hidden_dims}"
    check_size(what, param_count(layer_dims))
    check_size(what, n, max(layer_dims))
    model = RegressorModel.random(
        layer_dims,
        derived_rng(cfg.seed, STREAM_INIT),
        yaw_mode=cfg.yaw_mode,
        env_name=env.name,
        sensor=dataset.sensor,
    )
    adam = AdamState(model.params)
    sched = LrSchedule(cfg.lr0, cfg.eval_interval, cfg.decay_mode)
    batch_rng = derived_rng(cfg.seed, STREAM_BATCHES)

    history: list[HistoryRow] = []
    best_model = model.copy()
    n_train = len(train_idx)
    order = batch_rng.permutation(n_train)
    cursor = 0

    def next_batch():
        nonlocal order, cursor
        if cursor + cfg.batch_size > n_train:
            order = batch_rng.permutation(n_train)
            cursor = 0
        rows = train_idx[order[cursor : cursor + cfg.batch_size]]
        cursor += cfg.batch_size
        return X[rows], T[rows]

    for i in range(cfg.max_iterations):
        if i > 0 and i % cfg.eval_interval == 0:
            vp, vt = _val_errors(model, Xv, Pv, env)
            if sched.improves(vp):
                best_model = model.copy()
            lr, action = sched.tick(i, vp)
            row = HistoryRow(i, lr, vp, vt, action if action != ACTION_CONTINUE else "")
            history.append(row)
            if on_eval is not None:
                on_eval(row, model)
            if action == ACTION_CONVERGED:
                break
        else:
            lr, _ = sched.tick(i)
        bx, bt = next_batch()
        loss, grad = backward(model, bx, bt, cfg.loss)
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at iteration {i}: {loss!r}")
        adam_step(model.params, grad, adam, lr, cfg.weight_decay)
    else:  # ran out of iterations mid-window: record a final validation point
        vp, vt = _val_errors(model, Xv, Pv, env)
        if sched.improves(vp):
            best_model = model.copy()
        row = HistoryRow(cfg.max_iterations, sched.current_lr, vp, vt, "final")
        history.append(row)
        if on_eval is not None:
            on_eval(row, best_model)

    return best_model, history


# --- evaluation ----------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    """Pose error statistics over a test set.

    ``per_sample_errors`` is an (n, 2) array of (position error in metres,
    absolute wrap-aware yaw error in degrees), in test-set order.
    """

    mean_pos_err: float
    mean_theta_err: float
    median_pos_err: float
    median_theta_err: float
    per_sample_errors: np.ndarray

    def __post_init__(self) -> None:
        errs = np.asarray(self.per_sample_errors, dtype=np.float64)
        object.__setattr__(self, "per_sample_errors", errs)
        if errs.ndim != 2 or errs.shape[1] != 2:
            raise ValueError(f"per_sample_errors must be (n, 2), got {errs.shape}")
        if np.any(errs < 0.0) or np.any(errs[:, 1] > 180.0):
            raise ValueError("errors must be >= 0 and yaw errors <= 180")


def _median(values: np.ndarray) -> float:
    """``np.median(values)`` bit for bit, without the numpy.ma import that
    its first call costs: the middle of the sorted values, or the mean of
    the middle pair. np.median's mean adds to 0.0, so -0.0 comes out 0.0."""
    s = np.sort(values)
    m = len(s) // 2
    if np.isnan(s[-1]):  # NaNs sort last, and any NaN is the median
        return float(s[-1])
    return float((0.0 + s[m - 1] + s[m]) / 2 if len(s) % 2 == 0 else 0.0 + s[m])


def evaluate(estimator, testset: Dataset, env: EnvironmentSpec) -> Metrics:
    """Per-sample position and yaw error of an ``Estimator`` over a test set.

    The test set and the estimator must belong to ``env``'s world and
    sensor. The whole test set goes to one ``estimate`` call with the true
    poses, which only the oracle reads.
    """
    if len(testset) == 0:
        raise InputError("test set is empty")
    env.check_world("test set", testset.env_name, testset.sensor, testset.poses_matrix())
    env.check_world("estimator", estimator.env_name, estimator.sensor)
    errs = np.empty((len(testset), 2))
    truths = testset.poses_matrix()
    estimates = estimator.estimate(testset.ranges_matrix(), truths)
    # math.hypot, not np.hypot: the two differ in the last bit on some pairs
    for i, ((x, y, theta), (tx, ty, ttheta)) in enumerate(zip(estimates.tolist(), truths.tolist())):
        errs[i, 0] = math.hypot(x - tx, y - ty)
        errs[i, 1] = abs(ang_diff(theta, ttheta))
    return Metrics(
        mean_pos_err=float(np.mean(errs[:, 0])),
        mean_theta_err=float(np.mean(errs[:, 1])),
        median_pos_err=_median(errs[:, 0]),
        median_theta_err=_median(errs[:, 1]),
        per_sample_errors=errs,
    )


# --- file formats ----------------------------------------------------------------


def _fmt12(v: float) -> str:
    return "%.12g" % v


def save_model(model: RegressorModel, path, extra_header: dict | None = None) -> None:
    """Write the model file: magic, JSON header, one line per tensor at
    12 significant digits (enough that save -> load -> save is stable).
    """
    header = {
        "layer_dims": list(model.layer_dims),
        "activation": "relu",
        "env_name": model.env_name,
        "sensor": model.sensor.header(),
        "yaw_mode": model.yaw_mode,
    }
    lines = [MODEL_MAGIC, header_line(header, extra_header)]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"W{i} " + " ".join(_fmt12(v) for v in w.ravel()))
        lines.append(f"b{i} " + " ".join(_fmt12(v) for v in b))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_model(path) -> RegressorModel:
    lines = list(read_lines(path))  # a byte that is not ASCII is refused first
    header = read_header(iter(lines), path, MODEL_MAGIC)
    try:
        layer_dims = tuple(int(d) for d in header["layer_dims"])
        yaw_mode = header["yaw_mode"]
        env_name = header["env_name"]
        sensor_h = header["sensor"]
        activation = header["activation"]
        sensor = SensorConfig.from_header(sensor_h)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(path, 2, f"bad header field: {exc}") from None
    if not (isinstance(env_name, str) and env_name):
        raise FormatError(path, 2, f"env_name must be a non-empty string, got {env_name!r}")
    if activation != "relu":
        raise FormatError(path, 2, f"unsupported activation {activation!r}")
    if min(layer_dims, default=0) < 1:
        raise FormatError(path, 2, f"layer dims must be positive, got {layer_dims}")
    tensors = {}  # name -> (line number, values)
    for line_no, line in enumerate(lines[2:], start=3):
        parts = line.split()
        if not parts:
            raise FormatError(path, line_no, "empty tensor line")
        name = parts[0]
        try:
            values = np.array([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise FormatError(path, line_no, f"bad value: {exc}") from None
        if not np.isfinite(values).all():
            raise FormatError(path, line_no, f"tensor {name} has non-finite values")
        if name in tensors:
            raise FormatError(path, line_no, f"duplicate tensor {name}")
        tensors[name] = line_no, values
    flat = []  # W0, b0, W1, b1, ...
    for i, (fan_in, fan_out) in enumerate(zip(layer_dims, layer_dims[1:])):
        for key, want in ((f"W{i}", fan_out * fan_in), (f"b{i}", fan_out)):
            if key not in tensors:
                raise FormatError(path, None, f"missing tensor {key}")
            line_no, values = tensors[key]
            if values.size != want:
                why = f"tensor {key} has {values.size} values, expected {want}"
                raise FormatError(path, line_no, why)
            flat.append(values)
    if len(tensors) != len(flat):
        extras = sorted(set(tensors) - {f"{p}{i}" for i in range(len(flat) // 2) for p in "Wb"})
        raise FormatError(path, None, f"unexpected tensors {extras}")
    params = np.concatenate(flat) if flat else np.empty(0)
    try:  # the tensors fit the header, so what is left to refuse is in the header
        return RegressorModel(layer_dims, params, yaw_mode, env_name, sensor)
    except ValueError as exc:
        raise FormatError(path, 2, str(exc)) from None


def save_history(history, path, comments=()) -> None:
    """History CSV; optional leading '#' comment lines carry provenance."""
    lines = [f"# {c}" for c in comments]
    lines.append("iteration,lr,val_pos_err,val_theta_err,event")
    for row in history:
        # repr floats: shortest digits that reparse to the same value
        lines.append(
            f"{row.iteration},{row.lr!r},{row.val_pos_err!r},{row.val_theta_err!r},{row.event}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
