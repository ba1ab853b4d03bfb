"""Regressor, loss gradients, Adam, the LR state machine, and evaluation."""

import json
import math
import re

import numpy as np
import pytest

from neuromap.capture import DATASET_MAGIC, Dataset, generate_dataset, load_dataset, save_dataset
from neuromap.estimator import Estimator
from neuromap.inputs import FormatError, InputError, read_lines
from neuromap.training import (
    ACTION_CONTINUE,
    ACTION_CONVERGED,
    ACTION_RESET,
    ADAM_BLOCK,
    DECAY_PER_INTERVAL,
    AdamState,
    MODEL_MAGIC,
    HistoryRow,
    LrSchedule,
    Metrics,
    RegressorModel,
    ScheduleContractError,
    TrainConfig,
    _median,
    adam_step,
    backward,
    batch_loss,
    decode_head,
    evaluate,
    forward_batch,
    load_model,
    save_history,
    save_model,
    train,
)
from neuromap.world import EnvironmentSpec, OccupancyGrid, SensorConfig
from worldgen import model_world, with_metric_box


def small_env(ray_count=16, size=10, res=0.5):
    grid = OccupancyGrid(size, size, res, 0.0, 0.0, np.zeros((size, size), bool))
    sensor = SensorConfig(fov=120.0, ray_count=ray_count, max_range=10.0)
    return EnvironmentSpec("unit-env", grid, sensor)


def random_model(rng, dims=None, yaw_mode="tanh"):
    if dims is None:
        n_hidden = int(rng.integers(0, 3))
        dims = [int(rng.integers(2, 9))]
        dims += [int(rng.integers(2, 17)) for _ in range(n_hidden)]
        dims += [3 if yaw_mode == "tanh" else 4]
    return RegressorModel.random(dims, rng, yaw_mode=yaw_mode, **model_world(dims[0]))


# forward ------------------------------------------------------------------------


def test_zero_model_outputs_origin():
    m = RegressorModel.zeros((8, 4, 3), **model_world(8))
    assert forward_batch(m, np.full((1, 8), 0.7)).tolist() == [[0.0, 0.0, 0.0]]


def test_single_layer_sum_matches_tanh():
    w = np.zeros((3, 4))
    w[0, :] = 1.0
    m = RegressorModel((4, 3), np.concatenate([w.ravel(), np.zeros(3)]), **model_world(4))
    nx, ny, ntheta = forward_batch(m, np.array([[0.1, 0.2, 0.3, 0.4]]))[0]
    assert abs(nx - math.tanh(1.0)) < 1e-15
    assert ny == 0.0 and ntheta == 0.0


def test_outputs_strictly_inside_unit_interval():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = random_model(rng)
        x = rng.uniform(0.0, 1.0, size=(1, m.input_dim))
        assert np.all(np.abs(forward_batch(m, x)) < 1.0)


def test_forward_rejects_dimension_mismatch():
    m = RegressorModel.zeros((8, 3), **model_world(8))
    with pytest.raises(ValueError):
        forward_batch(m, np.zeros((2, 7)))


def test_model_validation():
    world8, world4 = model_world(8), model_world(4)
    with pytest.raises(ValueError):
        RegressorModel.zeros((8, 4), **world8)  # tanh head needs 3 outputs
    with pytest.raises(ValueError):
        RegressorModel.zeros((8, 3), yaw_mode="sincos", **world8)  # sincos needs 4
    with pytest.raises(ValueError):
        RegressorModel((4, 3), np.zeros(16), **world4)  # W0 (3, 4) and b0 (3,) hold 15
    with pytest.raises(ValueError):
        RegressorModel((4, 3), np.zeros((3, 5)), **world4)  # 15 values, but not one flat vector
    with pytest.raises(ValueError, match="sensor casts 4 rays, the model takes 8"):
        RegressorModel.zeros((8, 3), **world4)
    RegressorModel.zeros((8, 4, 4), yaw_mode="sincos", **world8)


def test_sincos_head_yields_valid_normalized_yaw():
    rng = np.random.default_rng(32)
    m = random_model(rng, dims=(6, 8, 4), yaw_mode="sincos")
    out = forward_batch(m, rng.uniform(0, 1, (20, 6)))
    theta = decode_head(m, out, small_env().bounds)[:, 2]
    assert np.all(np.abs(theta / 180.0) <= 1.0)
    assert theta.tolist() == np.degrees(np.arctan2(out[:, 2], out[:, 3])).tolist()


# loss ---------------------------------------------------------------------------


def test_batch_loss_is_mean_over_samples_and_components():
    pred = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    tgt = np.array([[1.0, -1.0, 0.5], [1.0, 1.0, 1.0]])
    assert abs(batch_loss(pred, tgt, "l1") - (2.5 / 6.0)) < 1e-15
    assert abs(batch_loss(pred, tgt, "l2") - ((1 + 1 + 0.25) / 6.0)) < 1e-15


# backward -----------------------------------------------------------------------


def test_zero_loss_batch_has_zero_gradients():
    rng = np.random.default_rng(33)
    m = random_model(rng, dims=(5, 7, 3))
    X = rng.uniform(0, 1, size=(4, 5))
    T = forward_batch(m, X)  # targets equal predictions: loss 0, sign(0) = 0
    loss, grad = backward(m, X, T, "l1")
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_hand_differentiated_single_weight():
    # one input, one effective weight: loss = (tanh(w*x) - t)/3 for t below
    # the prediction, so dL/dw = (1 - tanh(w*x)^2) * x / 3
    w = np.zeros((3, 1))
    w[0, 0] = 0.8
    m = RegressorModel((1, 3), np.concatenate([w.ravel(), np.zeros(3)]), **model_world(1))
    x = 0.6
    t = -0.5
    X = np.array([[x]])
    T = np.array([[t, 0.0, 0.0]])
    loss, grad = backward(m, X, T, "l1")
    pred = math.tanh(0.8 * x)
    assert abs(loss - (pred - t) / 3.0) < 1e-15
    expected = (1.0 - pred**2) * x / 3.0
    assert abs(grad[0] - expected) < 1e-12  # W0[0, 0]
    assert np.all(grad[1:3] == 0.0)  # W0[1:, 0]: sign(0) = 0 on the other outputs


def _kink_margins(model, X, T):
    a = X
    last = len(model.weights) - 1
    m_relu = math.inf
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        if i == last:
            a = np.tanh(z)
        else:
            m_relu = min(m_relu, float(np.min(np.abs(z))))
            a = np.maximum(z, 0.0)
    m_l1 = float(np.min(np.abs(a - T)))
    return m_relu, m_l1


def test_gradients_match_central_finite_differences():
    rng = np.random.default_rng(34)
    h = 1e-5
    instances = 0
    while instances < 100:
        kind = "l1" if instances % 4 else "l2"
        m = random_model(rng)
        bsz = int(rng.integers(1, 5))
        X = rng.uniform(0.0, 1.0, size=(bsz, m.input_dim))
        T = rng.uniform(-0.9, 0.9, size=(bsz, 3))
        m_relu, m_l1 = _kink_margins(m, X, T)
        if m_relu < 5e-3 or m_l1 < 5e-3:
            continue  # perturbation could cross a kink; draw another instance
        _, grad = backward(m, X, T, kind)
        flat = m.params
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lp = batch_loss(forward_batch(m, X), T, kind)
            flat[j] = orig - h
            lm = batch_loss(forward_batch(m, X), T, kind)
            flat[j] = orig
            fd = (lp - lm) / (2.0 * h)
            denom = max(abs(fd), abs(grad[j]), 1e-6)
            assert abs(fd - grad[j]) / denom <= 1e-4, f"param {j}: analytic {grad[j]} vs fd {fd}"
        instances += 1


# adam ---------------------------------------------------------------------------


def test_adam_zero_grad_zero_decay_is_identity():
    params = np.array([1.0, -2.0, 3.0])
    before = params.copy()
    state = AdamState(params)
    adam_step(params, np.zeros(3), state, lr=0.1, weight_decay=0.0)
    assert np.array_equal(params, before)
    assert state.t == 1


def test_adam_first_step_moves_by_lr_sign():
    for g0 in (0.5, -1.7, 3.0):
        params = np.array([0.25])
        state = AdamState(params)
        adam_step(params, np.array([g0]), state, lr=1e-3, weight_decay=0.0)
        delta = params[0] - 0.25
        assert abs(delta + 1e-3 * math.copysign(1.0, g0)) <= 1e-6 * 1e-3


def test_adam_weight_decay_shrinks_params():
    params = np.array([1.0, -1.0])
    state = AdamState(params)
    for _ in range(50):
        adam_step(params, np.zeros(2), state, lr=1e-3, weight_decay=1e-2)
    assert np.all(np.abs(params) < 1.0)
    assert np.all(np.sign(params) == [1.0, -1.0])  # shrinks toward 0, no overshoot
    assert np.all(state.v >= 0.0)


@pytest.mark.parametrize("grad_shape, moment_shape", [((1,), (7,)), ((7,), (6,))])
def test_adam_refuses_mis_shaped_arrays_without_changing_state(grad_shape, moment_shape):
    # a 1-element gradient would broadcast over all 7 params
    params = np.arange(7.0)
    state = AdamState(np.zeros(moment_shape))
    state.m += 0.5
    state.v += 0.25
    before = (params.copy(), state.m.copy(), state.v.copy(), state.t)
    with pytest.raises(ValueError, match="must match"):
        adam_step(params, np.ones(grad_shape), state, lr=1e-3, weight_decay=1e-2)
    assert np.array_equal(params, before[0])
    assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
    assert state.t == before[3] == 0


def test_adam_matches_reference_formula():
    rng = np.random.default_rng(35)
    p = rng.normal(size=7)
    params = p.copy()
    state = AdamState(params)
    m = np.zeros(7)
    v = np.zeros(7)
    ref = p.copy()
    for t in range(1, 6):
        g = rng.normal(size=7)
        adam_step(params, g.copy(), state, lr=2e-3, weight_decay=1e-4)
        ge = g + 1e-4 * ref
        m = 0.9 * m + 0.1 * ge
        v = 0.999 * v + 0.001 * ge * ge
        mhat = m / (1.0 - 0.9**t)
        vhat = v / (1.0 - 0.999**t)
        ref = ref - 2e-3 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(params, ref, atol=1e-15)


# flat parameter vector -------------------------------------------------------------


def test_params_layout_and_copy():
    m = random_model(np.random.default_rng(38), dims=(5, 7, 4, 3))
    tensors = [t for w, b in zip(m.weights, m.biases) for t in (w, b)]  # W0, b0, W1, b1, ...
    start = 0
    for t in tensors:
        assert np.shares_memory(t, m.params)
        assert np.shares_memory(t, m.params[start : start + t.size])
        assert np.array_equal(t.ravel(), m.params[start : start + t.size])
        start += t.size
    assert start == m.params.size
    c = m.copy()
    assert c.params.tobytes() == m.params.tobytes()
    assert not np.shares_memory(c.params, m.params)
    assert not any(np.shares_memory(t, m.params) for t in (*c.weights, *c.biases))
    m.params[0] += 1.0
    assert m.weights[0][0, 0] == m.params[0] and c.weights[0][0, 0] != m.params[0]


def _per_layer_random(layer_dims, rng):
    """The per-layer construction that ``RegressorModel.random`` replaced: He
    or Glorot weight tensors and zero biases, W0, b0, W1, b1, ... in one vector."""
    tensors = []
    last = len(layer_dims) - 2
    for i in range(len(layer_dims) - 1):
        fan_in, fan_out = layer_dims[i], layer_dims[i + 1]
        if i == last:
            limit = math.sqrt(6.0 / (fan_in + fan_out))
        else:
            limit = math.sqrt(6.0 / fan_in)
        tensors += [rng.uniform(-limit, limit, size=(fan_out, fan_in)).ravel(), np.zeros(fan_out)]
    return np.concatenate(tensors)


@pytest.mark.parametrize("dims, yaw_mode", [((96, 256, 256, 256, 3), "tanh"), ((24, 40, 17, 4), "sincos")])
def test_random_init_matches_the_per_layer_construction(dims, yaw_mode):
    m = RegressorModel.random(dims, np.random.default_rng(101), yaw_mode=yaw_mode, **model_world(dims[0]))
    assert m.params.tobytes() == _per_layer_random(dims, np.random.default_rng(101)).tobytes()


@pytest.mark.parametrize("dims, yaw_mode", [((16, 12, 3), "tanh"), ((24, 40, 17, 4), "sincos")])
def test_loaded_params_are_the_file_values_in_tensor_order(tmp_path, dims, yaw_mode):
    m = RegressorModel.random(dims, np.random.default_rng(7), yaw_mode, **model_world(dims[0]))
    path = tmp_path / "m.model"
    save_model(m, path)
    loaded = load_model(path)
    # each tensor line parsed on its own, as a per-layer loader reads it
    values = [float(v) for line in path.read_text().splitlines()[2:] for v in line.split()[1:]]
    assert loaded.params.tobytes() == np.array(values).tobytes()
    save_model(loaded, path)  # 12 digits reparse to the values they were written from
    assert load_model(path).params.tobytes() == loaded.params.tobytes()


def _per_tensor_backward(weights, biases, X, target, kind):
    """Per-tensor reference: grads as a list W0, b0, W1, b1, ..."""
    last = len(weights) - 1
    pre_acts = []
    acts = [X]
    a = X
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        pre_acts.append(z)
        a = np.tanh(z) if i == last else np.maximum(z, 0.0)
        acts.append(a)
    out = acts[-1]
    loss = batch_loss(out, target, kind)
    n_terms = out.shape[0] * out.shape[1]
    if kind == "l1":
        g = np.sign(out - target) / n_terms
    else:
        g = 2.0 * (out - target) / n_terms
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for i in range(last, -1, -1):
        if i == last:
            dz = g * (1.0 - acts[i + 1] ** 2)
        else:
            dz = g * (pre_acts[i] > 0.0)
        grads_w[i] = dz.T @ acts[i]
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            g = dz @ weights[i]
    grads = []
    for gw, gb in zip(grads_w, grads_b):
        grads.append(gw)
        grads.append(gb)
    return loss, grads


def _per_tensor_adam_step(params, grads, m, v, t, lr, weight_decay):
    """Per-tensor reference Adam step at beta1 0.9, beta2 0.999, eps 1e-8."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for p, g, mi, vi in zip(params, grads, m, v):
        if weight_decay != 0.0:
            g = g + weight_decay * p
        mi *= b1
        mi += (1.0 - b1) * g
        vi *= b2
        vi += (1.0 - b2) * (g * g)
        p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)


@pytest.mark.parametrize("yaw_mode", ["tanh", "sincos"])
@pytest.mark.parametrize("kind", ["l1", "l2"])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-6])
def test_flat_core_matches_per_tensor_reference_bit_for_bit(yaw_mode, kind, weight_decay):
    rng = np.random.default_rng(39)
    out_dim = 3 if yaw_mode == "tanh" else 4
    m = RegressorModel.random((48, 256, 96, out_dim), rng, yaw_mode=yaw_mode, **model_world(48))
    assert m.params.size > 2 * ADAM_BLOCK  # adam_step crosses block boundaries
    weights = [w.copy() for w in m.weights]
    biases = [b.copy() for b in m.biases]
    ref = [t for w, b in zip(weights, biases) for t in (w, b)]
    ref_m = [np.zeros_like(p) for p in ref]
    ref_v = [np.zeros_like(p) for p in ref]
    state = AdamState(m.params)
    for step in range(1, 21):
        X = rng.uniform(0.0, 1.0, size=(8, 48))
        T = rng.uniform(-0.9, 0.9, size=(8, out_dim))
        lr = 1e-3 * 0.9**step
        loss, grad = backward(m, X, T, kind)
        ref_loss, ref_grads = _per_tensor_backward(weights, biases, X, T, kind)
        assert loss == ref_loss
        assert grad.tobytes() == np.concatenate([g.ravel() for g in ref_grads]).tobytes()
        adam_step(m.params, grad, state, lr, weight_decay)
        _per_tensor_adam_step(ref, ref_grads, ref_m, ref_v, step, lr, weight_decay)
        assert state.t == step
        assert m.params.tobytes() == np.concatenate([p.ravel() for p in ref]).tobytes()
        assert state.m.tobytes() == np.concatenate([p.ravel() for p in ref_m]).tobytes()
        assert state.v.tobytes() == np.concatenate([p.ravel() for p in ref_v]).tobytes()


# lr schedule ---------------------------------------------------------------------


def test_lr_initial_and_staircase_values():
    s = LrSchedule()
    lr, action = s.tick(0)
    assert lr == 1e-4 and action == ACTION_CONTINUE
    lr, _ = s.tick(999)
    assert lr == 1e-4  # the stair holds until the boundary
    lr, _ = s.tick(1000, eval_metric=1.0)
    assert abs(lr - 1e-4 * 0.9998**1000) < 1e-19
    lr, _ = s.tick(2500)
    assert abs(lr - 1e-4 * 0.9998**2000) < 1e-19


def test_lr_per_interval_mode():
    s = LrSchedule(decay_mode=DECAY_PER_INTERVAL)
    lr, _ = s.tick(5000)
    assert abs(lr - 1e-4 * 0.9998**5) < 1e-19


def test_plateau_reset_then_convergence():
    s = LrSchedule()
    lr, action = s.tick(1000, eval_metric=0.5)  # first eval always improves
    assert action == ACTION_CONTINUE
    for k in range(2, 11):  # nine stale evals: not yet at patience
        lr, action = s.tick(1000 * k, eval_metric=0.5)
        assert action == ACTION_CONTINUE, f"eval {k}"
    lr, action = s.tick(11000, eval_metric=0.5)  # 10th stale eval: 10000 iters
    assert action == ACTION_RESET
    assert lr == 1e-4  # exactly the initial value
    assert s.phase == "post-reset"
    for k in range(12, 21):
        lr, action = s.tick(1000 * k, eval_metric=0.5)
        assert action == ACTION_CONTINUE
    lr, action = s.tick(21000, eval_metric=0.5)
    assert action == ACTION_CONVERGED
    assert s.phase == "converged"


def test_decay_clock_restarts_at_reset():
    s = LrSchedule()
    s.tick(1000, eval_metric=1.0)
    for k in range(2, 12):
        lr, action = s.tick(1000 * k, eval_metric=1.0)
    assert action == ACTION_RESET  # at iteration 11000
    lr, _ = s.tick(11999)
    assert lr == 1e-4  # fresh stair right after the reset
    lr, _ = s.tick(12000)
    assert abs(lr - 1e-4 * 0.9998**1000) < 1e-19


def test_improvement_rules_are_strict():
    s = LrSchedule()
    s.tick(1000, eval_metric=0.5)
    assert s.iters_since_improvement == 0
    s.tick(2000, eval_metric=0.5)  # equal: no improvement
    assert s.iters_since_improvement == 1000
    s.tick(3000, eval_metric=0.5 - 1e-13)  # within epsilon: still stale
    assert s.iters_since_improvement == 2000
    s.tick(4000, eval_metric=0.5 - 1e-6)  # real improvement
    assert s.iters_since_improvement == 0
    assert s.best_metric == 0.5 - 1e-6


def test_post_reset_improvement_returns_to_decaying():
    s = LrSchedule()
    s.tick(1000, eval_metric=1.0)
    k = 2
    while s.phase != "post-reset":
        s.tick(1000 * k, eval_metric=1.0)
        k += 1
    s.tick(1000 * k, eval_metric=0.2)
    assert s.phase == "decaying"
    # a later plateau can reset again: cycles are unlimited
    k += 1
    for _ in range(25):
        _, action = s.tick(1000 * k, eval_metric=0.2)
        k += 1
        if action == ACTION_RESET:
            break
    assert action == ACTION_RESET and s.phase == "post-reset"


def test_tick_requires_monotone_iterations():
    s = LrSchedule()
    s.tick(5)
    with pytest.raises(ScheduleContractError):
        s.tick(5)
    with pytest.raises(ScheduleContractError):
        s.tick(4)
    with pytest.raises(ValueError):
        s.tick(6, eval_metric=math.nan)


def test_schedule_validation():
    # TrainConfig checks the settings it hands LrSchedule
    with pytest.raises(InputError):
        TrainConfig(lr0=0.0)
    with pytest.raises(InputError):
        TrainConfig(eval_interval=0)
    with pytest.raises(InputError):
        TrainConfig(decay_mode="bogus")


# train ---------------------------------------------------------------------------


def _train_setup(n=800, seed=5, ray_count=16):
    env = small_env(ray_count=ray_count)
    grid = with_metric_box(env.grid, 1.5, 1.5, 2.5, 3.5)
    env = EnvironmentSpec(env.name, grid, env.sensor)
    data = generate_dataset(env, n, seed=seed)
    return env, data


def _val_split(data, cfg, env):
    from neuromap.capture import derived_rng
    from neuromap.training import STREAM_VAL_SPLIT

    n = len(data)
    n_val = max(1, int(round(n * cfg.val_fraction)))
    perm = derived_rng(cfg.seed, STREAM_VAL_SPLIT).permutation(n)
    vi = np.sort(perm[:n_val])
    return data.ranges_matrix()[vi], data.poses_matrix()[vi]


def test_training_beats_untrained_baseline():
    # fixed-heading corridor: with yaw pinned the observation-to-position map
    # is smooth, so a small net makes real validation progress in seconds
    from neuromap.capture import raycast

    grid = OccupancyGrid(60, 10, 0.2, 0.0, 0.0, np.zeros((10, 60), bool))
    grid = with_metric_box(grid, 2.0, 0.0, 2.6, 0.8)
    grid = with_metric_box(grid, 8.0, 1.4, 8.6, 2.0)
    sensor = SensorConfig(fov=120.0, ray_count=16, max_range=15.0)
    env = EnvironmentSpec("corridor", grid, sensor)
    rng = np.random.default_rng(7)
    poses = []
    while len(poses) < 1500:
        x = float(rng.uniform(0.05, 11.95))
        y = float(rng.uniform(0.05, 1.95))
        if env.grid.is_free(x, y):
            poses.append((x, y, 0.0))
    data = Dataset(env.name, sensor, 7, poses, raycast(env, np.array(poses)))

    cfg = TrainConfig(seed=3, max_iterations=6000, eval_interval=1000, hidden_dims=(32,), lr0=1e-3)
    model, history = train(data, env, cfg)
    from neuromap.training import _val_errors  # noqa: PLC0415

    Xv, Pv = _val_split(data, cfg, env)
    zeros_pos, _ = _val_errors(RegressorModel.zeros(model.layer_dims, env_name=env.name, sensor=sensor),
                               Xv, Pv, env)
    best_pos, best_theta = _val_errors(model, Xv, Pv, env)
    assert best_pos <= 0.6 * zeros_pos, f"trained {best_pos} vs untrained {zeros_pos}"
    assert best_theta < 5.0  # constant yaw is trivially learned
    assert len(history) >= 5


def test_training_is_deterministic():
    env, data = _train_setup(n=400)
    cfg = TrainConfig(seed=11, max_iterations=600, eval_interval=200)
    m1, h1 = train(data, env, cfg)
    m2, h2 = train(data, env, cfg)
    assert h1 == h2
    assert m1.params.tobytes() == m2.params.tobytes()


def test_history_lr_replays_through_schedule():
    env, data = _train_setup(n=400)
    cfg = TrainConfig(seed=7, max_iterations=2200, eval_interval=400)
    _, history = train(data, env, cfg)
    s = LrSchedule(eval_interval=cfg.eval_interval)
    for row in history:
        if row.event == "final":
            continue
        lr, action = s.tick(row.iteration, eval_metric=row.val_pos_err)
        assert lr == row.lr
        assert (action if action != ACTION_CONTINUE else "") == row.event


def test_best_validation_metric_is_non_increasing():
    env, data = _train_setup(n=400)
    cfg = TrainConfig(seed=9, max_iterations=1500, eval_interval=300)
    model, history = train(data, env, cfg)
    best = math.inf
    bests = []
    for row in history:
        best = min(best, row.val_pos_err)
        bests.append(best)
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))


def test_returned_model_is_best_snapshot():
    env, data = _train_setup(n=400)
    cfg = TrainConfig(seed=13, max_iterations=1200, eval_interval=300)
    model, history = train(data, env, cfg)
    from neuromap.training import _val_errors  # noqa: PLC0415

    # recompute the validation split exactly as train does
    Xv, Pv = _val_split(data, cfg, env)
    vp, _ = _val_errors(model, Xv, Pv, env)
    assert vp <= min(r.val_pos_err for r in history) + 1e-12


def test_on_eval_callback_fires_per_eval():
    env, data = _train_setup(n=400)
    seen = []
    cfg = TrainConfig(seed=1, max_iterations=900, eval_interval=300)
    train(data, env, cfg, on_eval=lambda row, model: seen.append(row.iteration))
    assert seen == [300, 600, 900]  # two boundary evals plus the final row


def test_train_rejects_small_datasets():
    env, data = _train_setup(n=30)
    with pytest.raises(ValueError):
        train(data, env, TrainConfig(batch_size=32, max_iterations=10))


def test_train_refuses_a_dataset_from_another_world():
    # the same layout and sensor under another name: refused before any step
    env, data = _train_setup(n=60)
    moved = Dataset("elsewhere", data.sensor, data.seed, data.poses_matrix(), data.ranges_matrix())
    with pytest.raises(InputError, match="^dataset belongs to world 'elsewhere', not 'unit-env'$"):
        train(moved, env, TrainConfig(max_iterations=10))
    narrow = EnvironmentSpec(env.name, env.grid, SensorConfig(fov=90.0, ray_count=16, max_range=10.0))
    with pytest.raises(InputError, match="^dataset sensor .* does not match"):
        train(data, narrow, TrainConfig(max_iterations=10))
    # the right name and sensor, one pose outside the 5 x 5 m world
    poses = data.poses_matrix().copy()
    poses[7, 1] = 1e6
    far = Dataset(data.env_name, data.sensor, data.seed, poses, data.ranges_matrix())
    with pytest.raises(InputError, match=r"^dataset row 7 at \(.*, 1000000.0\) lies outside world"):
        train(far, env, TrainConfig(max_iterations=10))


# evaluate ------------------------------------------------------------------------


class _TruthEstimator(Estimator):
    """Echoes the true pose, optionally with fixed or noisy offset."""

    def __init__(self, env, offset=(0.0, 0.0, 0.0), noise_sigma=0.0, rng=None):
        self.env_name, self.sensor = env.name, env.sensor
        self.offset = offset
        self.noise_sigma = noise_sigma
        self.rng = rng

    def _estimate(self, ranges, true_poses):
        poses = true_poses + self.offset
        if self.noise_sigma:
            poses[:, :2] += self.rng.normal(0.0, self.noise_sigma, (len(poses), 2))
        return poses


def _fake_testset(env, n, seed=0):
    rng = np.random.default_rng(seed)
    k = env.sensor.ray_count
    b = env.bounds
    poses = [
        (
            float(rng.uniform(b.x_min + 0.2, b.x_max - 0.2)),
            float(rng.uniform(b.y_min + 0.2, b.y_max - 0.2)),
            float(rng.uniform(-180.0, 180.0)),
        )
        for _ in range(n)
    ]
    return Dataset(env.name, env.sensor, seed, poses, np.full((n, k), 0.5))


def test_perfect_estimator_scores_zero():
    env = small_env()
    testset = _fake_testset(env, 50)
    m = evaluate(_TruthEstimator(env), testset, env)
    assert m.mean_pos_err == 0.0 and m.mean_theta_err == 0.0
    assert m.median_pos_err == 0.0 and m.median_theta_err == 0.0
    assert m.per_sample_errors.shape == (50, 2)


def test_fixed_offset_gives_known_errors():
    env = small_env(size=40)  # roomy bounds so the offset stays inside
    testset = _fake_testset(env, 8)
    m = evaluate(_TruthEstimator(env, offset=(3.0, 4.0, 0.0)), testset, env)
    assert abs(m.mean_pos_err - 5.0) < 1e-9
    assert m.mean_theta_err == 0.0


def test_theta_error_is_wrap_aware():
    env = small_env()
    rng = np.random.default_rng(1)
    testset = Dataset(env.name, env.sensor, 0, [(2.0, 2.0, -175.0)], np.full((1, 16), 0.5))

    class Fixed(Estimator):
        env_name, sensor = env.name, env.sensor

        def _estimate(self, ranges, true_poses):
            return np.tile([2.0, 2.0, 175.0], (len(ranges), 1))

    m = evaluate(Fixed(), testset, env)
    assert abs(m.mean_theta_err - 10.0) < 1e-12


def test_noisy_estimator_matches_rayleigh_band():
    # isotropic gaussian position noise sigma: radial error is Rayleigh with
    # mean sigma*sqrt(pi/2) ~ 1.2533*sigma, safely inside [sigma, 2*sigma]
    env = small_env(size=40)
    testset = _fake_testset(env, 10_000)
    sigma = 0.1
    est = _TruthEstimator(env, noise_sigma=sigma, rng=np.random.default_rng(42))
    m = evaluate(est, testset, env)
    assert sigma <= m.mean_pos_err <= 2.0 * sigma
    assert abs(m.mean_pos_err - sigma * math.sqrt(math.pi / 2.0)) < 0.05 * sigma


def test_evaluate_validates_sensors():
    env = small_env(ray_count=16)
    other = small_env(ray_count=8)
    testset = _fake_testset(other, 5)
    with pytest.raises(ValueError, match="test set sensor"):
        evaluate(_TruthEstimator(env), testset, env)
    with pytest.raises(ValueError, match="estimator sensor"):
        evaluate(_TruthEstimator(other), _fake_testset(env, 5), env)
    with pytest.raises(ValueError):
        evaluate(_TruthEstimator(env), _fake_testset(env, 0), env)


def test_evaluate_refuses_inputs_from_another_world():
    # the same layout and sensor under another name: refused, not scored
    env = small_env()
    elsewhere = EnvironmentSpec("elsewhere", env.grid, env.sensor)
    with pytest.raises(InputError, match="^test set belongs to world 'elsewhere', not 'unit-env'$"):
        evaluate(_TruthEstimator(env), _fake_testset(elsewhere, 5), env)
    with pytest.raises(InputError, match="^estimator belongs to world 'elsewhere', not 'unit-env'$"):
        evaluate(_TruthEstimator(elsewhere), _fake_testset(env, 5), env)
    testset = _fake_testset(env, 5)
    poses = testset.poses_matrix().copy()
    poses[3, 0] = -1000.0
    far = Dataset(env.name, env.sensor, 0, poses, testset.ranges_matrix())
    with pytest.raises(InputError, match=r"^test set row 3 at \(-1000.0, .*\) lies outside world"):
        evaluate(_TruthEstimator(env), far, env)


def test_metrics_validation():
    with pytest.raises(ValueError):
        Metrics(1.0, 1.0, 1.0, 1.0, np.array([[1.0, 200.0]]))
    with pytest.raises(ValueError):
        Metrics(1.0, 1.0, 1.0, 1.0, np.array([1.0, 2.0]))


# model files ---------------------------------------------------------------------


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(36)
    sensor = SensorConfig(fov=120.0, ray_count=8, max_range=10.0)
    m = RegressorModel.random((8, 12, 3), rng, env_name="unit-env", sensor=sensor)
    path = tmp_path / "m.model"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.layer_dims == m.layer_dims
    assert loaded.yaw_mode == m.yaw_mode
    assert loaded.env_name == "unit-env"
    assert loaded.sensor == sensor
    assert np.allclose(m.params, loaded.params, rtol=1e-11, atol=1e-15)


def test_model_save_load_save_is_byte_identical(tmp_path):
    rng = np.random.default_rng(37)
    m = RegressorModel.random((6, 10, 3), rng, env_name="unit-env", sensor=small_env(6).sensor)
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_model(m, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


# each fault: how it edits the tensor lines W0, b0, W1, b1 (file lines 3-6)
# of a (4, 2, 3) model, and the line and message it is refused with
TENSOR_FAULTS = {
    "reordered": (lambda t: [t[0], t[2], t[1], t[3]], 4, "expected tensor b0, got 'W1'"),
    "duplicated": (lambda t: [t[0], t[0], *t[1:]], 4, "expected tensor b0, got 'W0'"),
    "missing": (lambda t: t[:1], None, "missing tensor b0"),
    "short": (lambda t: t[:3], None, "missing tensor b1"),
    "extra": (lambda t: [*t, "W9 1 2 3"], 7, "unexpected line after the last tensor"),
    "blank": (lambda t: [t[0], t[1], "", *t[2:]], 5, "expected tensor W1, got ''"),
    "wrong-count": (lambda t: [t[0].rsplit(" ", 1)[0], *t[1:]], 3, "tensor W0 has 7 values, expected 8"),
    "non-finite": (lambda t: [t[0], "b0 1 nan", *t[2:]], 4, "tensor b0 has non-finite values"),
    "bad-value": (lambda t: [t[0], "b0 1 x", *t[2:]], 4,
                  "bad value: could not convert string to float: 'x'"),
}


@pytest.mark.parametrize("fault", TENSOR_FAULTS)
def test_model_file_errors(tmp_path, fault):
    edit, line, why = TENSOR_FAULTS[fault]
    m = RegressorModel.random((4, 2, 3), np.random.default_rng(38), env_name="unit-env",
                              sensor=small_env(4).sensor)
    path = tmp_path / "m.model"
    save_model(m, path)
    magic, header, *tensors = path.read_text().splitlines()
    path.write_text("\n".join([magic, header, *edit(tensors)]) + "\n")
    with pytest.raises(FormatError) as info:
        load_model(path)
    assert (info.value.line, info.value.why) == (line, why)
    where = f"{path}: " if line is None else f"{path}: line {line}: "
    assert str(info.value) == where + why


def test_model_header_names_its_world_and_sensor(tmp_path):
    rng = np.random.default_rng(39)
    m = RegressorModel.random((4, 3), rng, env_name="unit-env", sensor=small_env(4).sensor)
    path = tmp_path / "m.model"
    save_model(m, path)
    magic, header, *tensors = path.read_text().splitlines()
    for key, value, why in [
        ("env_name", "", "env_name must be a non-empty string, got ''"),
        ("env_name", 7, "env_name must be a non-empty string, got 7"),
        ("sensor", None, "bad header field: sensor must be an object, got None"),
        ("sensor", {"fov": 120.0, "ray_count": 5, "max_range": 10.0},
         "sensor casts 5 rays, the model takes 4"),
        ("yaw_mode", "bogus", "unknown yaw_mode 'bogus'"),
        ("yaw_mode", [], "unknown yaw_mode []"),  # unhashable: no dict lookup may raise TypeError
    ]:
        edited = {**json.loads(header), key: value}
        path.write_text("\n".join([magic, json.dumps(edited), *tensors]) + "\n")
        with pytest.raises(FormatError, match=f"m.model: line 2: {re.escape(why)}$"):
            load_model(path)


@pytest.mark.parametrize("fault, line, why", [
    ("magic", None, "not a 'MAGIC' file"),
    ("no-line-2", None, "missing JSON header line"),
    ("bad-json", 2, "bad JSON header: Expecting property name enclosed in double quotes"),
    ("empty-env-name", 2, "env_name must be a non-empty string, got ''"),
], ids=["magic", "no-line-2", "bad-json", "empty-env-name"])
def test_a_header_fault_reads_the_same_in_dataset_and_model_files(tmp_path, fault, line, why):
    sensor = small_env(4).sensor
    files = {
        "dataset": (tmp_path / "d.csv", DATASET_MAGIC, load_dataset),
        "model": (tmp_path / "m.model", MODEL_MAGIC, load_model),
    }
    save_dataset(Dataset("unit-env", sensor, 0, np.zeros((1, 3)), np.ones((1, 4))), files["dataset"][0])
    save_model(RegressorModel.zeros((4, 3), env_name="unit-env", sensor=sensor), files["model"][0])
    for kind, (path, magic, load) in files.items():
        _, header, *body = path.read_text().splitlines()
        lines = {
            "magic": ["#neuromap-other v1", header, *body],
            "no-line-2": [magic],
            "bad-json": [magic, "{not json", *body],
            "empty-env-name": [magic, json.dumps({**json.loads(header), "env_name": ""}), *body],
        }[fault]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            load(path)
        assert exc.value.line == line, kind
        assert exc.value.why.replace(magic, "MAGIC").startswith(why), kind


def test_model_extra_header(tmp_path):
    m = RegressorModel.zeros((4, 3), env_name="unit-env", sensor=small_env(4).sensor)
    path = tmp_path / "m.model"
    save_model(m, path, extra_header={"invocation": "train --x"})
    assert "invocation" in path.read_text().splitlines()[1]
    load_model(path)
    with pytest.raises(ValueError):
        save_model(m, path, extra_header={"yaw_mode": "bogus"})


@pytest.mark.parametrize("unbound, why", [
    ({"sensor": None}, "sensor must be set, got None"),
    ({"env_name": ""}, "env_name must be a non-empty string, got ''"),
    ({"env_name": 7}, "env_name must be a non-empty string, got 7"),
    ({"env_name": None}, "env_name must be a non-empty string, got None"),
], ids=["no-sensor", "empty-env-name", "int-env-name", "no-env-name"])
def test_a_model_is_bound_to_a_world_and_sensor_when_it_is_built(unbound, why):
    bound = model_world(4)
    params = np.zeros(15)
    for build in (lambda **w: RegressorModel((4, 3), params, **w),
                  lambda **w: RegressorModel.zeros((4, 3), **w),
                  lambda **w: RegressorModel.random((4, 3), np.random.default_rng(40), **w)):
        with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
            build(**{**bound, **unbound})
        for key in bound:  # each is required, and by keyword
            with pytest.raises(TypeError, match=key):
                build(**{k: v for k, v in bound.items() if k != key})
    with pytest.raises(TypeError):
        RegressorModel((4, 3), params, "tanh", "unit-env", bound["sensor"])
    m = RegressorModel((4, 3), params, **bound)
    assert (m.env_name, m.sensor) == (bound["env_name"], bound["sensor"])
    assert (m.copy().env_name, m.copy().sensor) == (m.env_name, m.sensor)


def test_history_round_trip(tmp_path):
    rows = [
        HistoryRow(1000, 1e-4, 0.5, 12.0, ""),
        HistoryRow(2000, 1e-4 * 0.9998**1000, 0.4, 9.0, "reset"),
    ]
    path = tmp_path / "h.csv"
    save_history(rows, path, comments=("invocation: train --seed 1",))
    text = path.read_text()
    assert text.startswith("# invocation")
    lines = list(read_lines(path))
    assert lines[:2] == ["# invocation: train --seed 1", "iteration,lr,val_pos_err,val_theta_err,event"]
    loaded = []
    for line in lines[2:]:
        it, lr, vp, vt, event = line.split(",")
        loaded.append(HistoryRow(int(it), float(lr), float(vp), float(vt), event))
    assert loaded == rows  # repr serialisation reparses bit-exactly


@pytest.mark.parametrize("n", [*range(1, 10), 500])
@np.errstate(over="ignore")  # 1e308 + 1e308, in both
def test_median_is_np_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    pools = ([-0.0, 0.0], [-0.0, 0.0, 0.5, 2.0, -1.5], [0.0, 1e308, -0.0, np.nan], [0.1, 0.2, 0.3])
    for pool in pools:
        for _ in range(50):
            values = rng.choice(pool, n)
            assert np.float64(_median(values)).tobytes() == np.median(values).tobytes(), values
    values = rng.standard_normal(n)
    assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()
