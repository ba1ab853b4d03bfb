"""Command line interface.

Subcommands: gen, walk, train, eval, navigate, plot, bench. Every output
file embeds the invocation, tool version and seed, and (bench excepted,
being a wall-clock measurement) every command is a pure function of its
flags, so rerunning an invocation reproduces its outputs byte for byte.

Exit codes: 0 success, 1 usage error, 2 input validation error (including
inputs captured in another world, and worlds with no room to sample),
3 runtime abort (collision, estimator failure, tick budget, diverged
training).

Option values resolve as flags > JSON config file (--config) > defaults.
"""

import argparse
import json
import math
import shlex
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .capture import (
    Dataset,
    DatasetFormatError,
    InfeasibleEnvironmentError,
    WalkConfig,
    generate_dataset,
    load_dataset,
    random_walk_capture,
    save_dataset,
)
from .estimator import (
    EstimatorUnavailableError,
    ExternalEstimator,
    KnnConfig,
    KnnEstimator,
    OracleConfig,
    OracleEstimator,
    RegressorEstimator,
)
from .navigate import (
    NavConfig,
    OdometryConfig,
    load_trace,
    load_waypoints,
    navigate_waypoints,
    save_trace,
)
from .pose import Pose2D
from .report import (
    coverage_summary,
    metrics_table,
    save_metrics,
    svg_coverage,
    svg_route,
)
from .training import (
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    load_model,
    save_history,
    save_model,
    train,
)
from .world import DEFAULT_SENSOR, GridFormatError, SensorConfig, load_environment
from .worlds import APARTMENT_LOOP, BUILDERS, bundled_environment


class UsageError(Exception):
    """Bad flags or malformed spec strings; exit code 1."""


class InputError(Exception):
    """Missing or malformed input files / values; exit code 2."""


class RuntimeAbort(Exception):
    """The run itself failed (collision, estimator outage); exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract reserves 2 for
    # input validation, so route usage failures through UsageError.
    def error(self, message):
        raise UsageError(message)


BUNDLED_WAYPOINTS = {"apartment_loop": APARTMENT_LOOP}


# --- config plumbing ---------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One command's fully merged option set.

    ``options`` holds every value after flag/config-file/default
    resolution; referenced files are checked at build time so missing
    inputs fail before any work starts.
    """

    command: str
    options: dict
    argv: tuple

    def __getattr__(self, name):
        try:
            return self.options[name]
        except KeyError:
            raise AttributeError(name) from None

    def provenance(self) -> dict:
        return {
            "tool": f"neuromap {__version__}",
            "invocation": shlex.join(["neuromap", *self.argv]),
            "seed": self.options.get("seed"),
        }

    def provenance_lines(self) -> tuple:
        p = self.provenance()
        return (f"tool: {p['tool']}", f"invocation: {p['invocation']}", f"seed: {p['seed']}")


def _merge_options(args, argv, defaults, file_keys=()):
    """flags > config file > defaults; unknown config keys are rejected."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise InputError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise InputError(f"{path}: config must be a JSON object")
        for key, value in loaded.items():
            if key not in defaults:
                raise InputError(f"{path}: unknown option {key!r} for this command")
            merged[key] = value
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    cfg = RunConfig(args.command, merged, tuple(argv))
    for key in file_keys:
        value = merged.get(key)
        if value is not None and value not in BUNDLED_WAYPOINTS and value not in BUILDERS:
            if not Path(value).is_file():
                raise InputError(f"{key}: no such file: {value}")
    return cfg


def _resolve_env(cfg: RunConfig):
    """--env is either a bundled name or a grid file path."""
    name = cfg.options.get("env")
    if name is None:
        raise UsageError("--env is required")
    overrides = {
        k: cfg.options[k] for k in ("fov", "rays", "max_range") if cfg.options.get(k) is not None
    }
    if name in BUILDERS:
        env = bundled_environment(name)
        if overrides:
            sensor = SensorConfig(
                fov=overrides.get("fov", env.sensor.fov),
                ray_count=overrides.get("rays", env.sensor.ray_count),
                max_range=overrides.get("max_range", env.sensor.max_range),
            )
            env = type(env)(name=env.name, bounds=env.bounds, grid=env.grid, sensor=sensor)
        return env
    sensor = SensorConfig(
        fov=overrides.get("fov", DEFAULT_SENSOR.fov),
        ray_count=overrides.get("rays", DEFAULT_SENSOR.ray_count),
        max_range=overrides.get("max_range", DEFAULT_SENSOR.max_range),
    )
    return load_environment(name, sensor=sensor)


def _out_dir(cfg: RunConfig) -> Path:
    out = cfg.options.get("out")
    if out is None:
        raise UsageError("--out is required")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path, payload: dict, cfg: RunConfig) -> None:
    payload = dict(payload)
    payload["provenance"] = cfg.provenance()
    path.write_text(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n")


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None  # strict JSON has no Infinity
    return value


# --- estimator spec strings --------------------------------------------------------


def _parse_kv(text, casts):
    out = {}
    for item in filter(None, text.split(",")):
        key, sep, raw = item.partition("=")
        if not sep or key not in casts:
            raise UsageError(f"bad estimator option {item!r}; known: {sorted(casts)}")
        try:
            out[key] = casts[key](raw)
        except ValueError:
            raise UsageError(f"bad value for estimator option {key!r}: {raw!r}") from None
    return out


def build_estimator(spec: str, env):
    """Build an estimator from a spec string.

    Forms: ``oracle[:sigma_pos=..,sigma_theta=..,seed=..]``,
    ``knn:DB[,k=..,weighting=..]``, ``model:PATH``,
    ``external:COMMAND LINE``.
    """
    kind, _, rest = spec.partition(":")
    if kind == "oracle":
        opts = _parse_kv(rest, {"sigma_pos": float, "sigma_theta": float, "seed": int})
        return OracleEstimator(OracleConfig(**opts), env)
    if kind == "knn":
        db_path, _, tail = rest.partition(",")
        if not db_path:
            raise UsageError("knn spec needs a database path: knn:DB[,k=..,weighting=..]")
        if not Path(db_path).is_file():
            raise InputError(f"knn database not found: {db_path}")
        opts = _parse_kv(tail, {"k": int, "weighting": str})
        db = load_dataset(db_path)
        if db.env_name != env.name:
            raise InputError(
                f"knn database was captured in {db.env_name!r}, not {env.name!r}; "
                "its poses belong to another world"
            )
        return KnnEstimator(db, KnnConfig(**opts))
    if kind == "model":
        if not rest:
            raise UsageError("model spec needs a file path: model:PATH")
        if not Path(rest).is_file():
            raise InputError(f"model file not found: {rest}")
        return RegressorEstimator(load_model(rest), env)
    if kind == "external":
        if not rest:
            raise UsageError("external spec needs a command line: external:CMD ARGS..")
        return ExternalEstimator(shlex.split(rest), env)
    raise UsageError(f"unknown estimator kind {kind!r}; use oracle/knn/model/external")


# --- commands ----------------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    env = _resolve_env(cfg)
    out = _out_dir(cfg)
    dataset = generate_dataset(env, cfg.n, cfg.seed)
    save_dataset(dataset, out / "dataset.csv", extra_header={"provenance": cfg.provenance()})
    cov = coverage_summary(env, dataset)
    _write_json(out / "coverage.json", {"coverage": cov.to_dict()}, cfg)
    svg_coverage(env, dataset, out / "coverage.svg", comments=cfg.provenance_lines())
    print(f"gen: {len(dataset)} samples in {env.name}; coverage {cov.fraction:.1%} "
          f"of {cov.free_cells} free cells")
    return 0


def cmd_walk(cfg: RunConfig) -> int:
    env = _resolve_env(cfg)
    out = _out_dir(cfg)
    walk_cfg = WalkConfig(
        capture_dist=cfg.capture_dist,
        capture_rot=cfg.capture_rot,
        step_len=cfg.step_len,
        clearance_radius=cfg.clearance,
        max_steps=cfg.steps,
    )
    result = random_walk_capture(env, walk_cfg, cfg.seed)
    save_dataset(result.dataset, out / "dataset.csv", extra_header={"provenance": cfg.provenance()})
    cov = coverage_summary(env, result.dataset)
    _write_json(
        out / "coverage.json",
        {"coverage": cov.to_dict(), "wedged": result.wedged, "steps": result.steps},
        cfg,
    )
    svg_coverage(env, result.dataset, out / "coverage.svg", comments=cfg.provenance_lines())
    print(f"walk: {result.steps} steps, {len(result.dataset)} captures in {env.name}"
          + (" (wedged)" if result.wedged else ""))
    return 0


def _parse_hidden(text):
    if isinstance(text, (tuple, list)):
        return tuple(int(v) for v in text)
    try:
        return tuple(int(v) for v in str(text).split(",") if v)
    except ValueError:
        raise UsageError(f"bad --hidden value {text!r}; expected e.g. 64,64") from None


def cmd_train(cfg: RunConfig) -> int:
    env = _resolve_env(cfg)
    out = _out_dir(cfg)
    dataset = load_dataset(cfg.dataset)
    if dataset.env_name != env.name:
        raise InputError(
            f"dataset was captured in {dataset.env_name!r}, not {env.name!r}; "
            "pose normalisation would be wrong"
        )
    if dataset.sensor != env.sensor:
        raise InputError("dataset sensor does not match the environment sensor")
    train_cfg = TrainConfig(
        seed=cfg.seed,
        max_iterations=cfg.iterations,
        eval_interval=cfg.eval_interval,
        batch_size=cfg.batch_size,
        lr0=cfg.lr0,
        weight_decay=cfg.weight_decay,
        decay_mode=cfg.decay_mode,
        hidden_dims=_parse_hidden(cfg.hidden),
        val_fraction=cfg.val_fraction,
        yaw_mode=cfg.yaw_mode,
        loss=cfg.loss,
    )

    evals_seen = 0

    def checkpoint(row, model):
        nonlocal evals_seen
        evals_seen += 1
        if evals_seen % 10 == 0:
            save_model(model, out / "checkpoint.model",
                       extra_header={"provenance": cfg.provenance(), "iteration": row.iteration})

    model, history = train(dataset, env, train_cfg, on_eval=checkpoint)
    save_model(model, out / "model.model", extra_header={"provenance": cfg.provenance()})
    save_history(history, out / "history.csv", comments=cfg.provenance_lines())
    best = min((r.val_pos_err for r in history), default=float("nan"))
    print(f"train: {history[-1].iteration} iterations, best val pos err {best:.4f} m")
    return 0


def _knn_ablation(estimator, sizes, testset, env):
    rows = {}
    for size in sizes:
        if size > len(estimator.db):
            raise InputError(f"ablation size {size} exceeds database size {len(estimator.db)}")
        subset = Dataset(
            estimator.db.env_name, estimator.db.sensor, estimator.db.seed,
            estimator.db.samples[:size],
        )
        rows[f"knn@{size}"] = evaluate(KnnEstimator(subset, estimator.cfg), testset, env)
    return rows


def cmd_eval(cfg: RunConfig) -> int:
    env = _resolve_env(cfg)
    out = _out_dir(cfg)
    testset = load_dataset(cfg.testset)
    if testset.env_name != env.name:
        raise InputError(
            f"test set was captured in {testset.env_name!r}, not {env.name!r}; "
            "pose normalisation would be wrong"
        )
    estimator = build_estimator(cfg.estimator, env)
    try:
        results = {cfg.estimator: evaluate(estimator, testset, env)}
        if cfg.ablate:
            key, _, raw = str(cfg.ablate).partition("=")
            if key != "sizes" or not raw:
                raise UsageError("--ablate expects sizes=N1,N2,..")
            if not isinstance(estimator, KnnEstimator):
                raise UsageError("--ablate requires a knn estimator")
            sizes = [int(v) for v in raw.split(",") if v]
            results.update(_knn_ablation(estimator, sizes, testset, env))
    finally:
        close = getattr(estimator, "close", None)
        if close:
            close()
    save_metrics(results, out / "metrics.json", provenance=cfg.provenance())
    table = metrics_table(results, comments=cfg.provenance_lines())
    (out / "table.txt").write_text(table)
    print(table, end="")
    return 0


def _parse_start(text) -> Pose2D:
    parts = str(text).split(",")
    if len(parts) != 3:
        raise UsageError(f"bad --start value {text!r}; expected x,y,theta")
    try:
        x, y, theta = (float(v) for v in parts)
    except ValueError:
        raise UsageError(f"bad --start value {text!r}; expected numbers") from None
    return Pose2D(x, y, theta)


def cmd_navigate(cfg: RunConfig) -> int:
    env = _resolve_env(cfg)
    out = _out_dir(cfg)
    if cfg.waypoints in BUNDLED_WAYPOINTS:
        waypoints = list(BUNDLED_WAYPOINTS[cfg.waypoints])
    else:
        waypoints = load_waypoints(cfg.waypoints)
    nav_cfg = NavConfig(
        T_d=cfg.td, T_a=cfg.ta, max_step=cfg.max_step,
        linear_speed=cfg.linear_speed, angular_speed=cfg.angular_speed,
        dt=cfg.dt, max_ticks=cfg.max_ticks, footprint_radius=cfg.footprint,
        leg_tolerance=cfg.leg_tolerance,
    )
    odo = OdometryConfig(
        sigma_lin_frac=cfg.odo_lin, sigma_ang_per_step=cfg.odo_ang, seed=cfg.seed,
    )
    estimator = build_estimator(cfg.estimator, env)
    try:
        trace, report = navigate_waypoints(
            waypoints, estimator, env, _parse_start(cfg.start), nav_cfg, odo
        )
    finally:
        close = getattr(estimator, "close", None)
        if close:
            close()

    save_trace(trace, out / "trace.csv", comments=cfg.provenance_lines())
    _write_json(
        out / "report.json",
        {
            "success": report.success,
            "abort_reason": report.abort_reason,
            "tick_count": report.tick_count,
            "mean_closest_true": report.mean_closest_true,
            "mean_closest_est": report.mean_closest_est,
            "waypoints": [
                {
                    "x": wx, "y": wy, "reached": r.reached,
                    "closest_true_dist": r.closest_true_dist,
                    "closest_est_dist": r.closest_est_dist,
                }
                for (wx, wy), r in zip(waypoints, report.waypoints)
            ],
        },
        cfg,
    )
    svg_route(env, trace, waypoints, out / "route.svg", comments=cfg.provenance_lines())
    status = "ok" if report.success else f"abort: {report.abort_reason}"
    print(f"navigate: {status}; {report.tick_count} ticks, "
          f"mean closest approach {report.mean_closest_true:.3f} m")
    if not report.success:
        raise RuntimeAbort(report.abort_reason)
    return 0


def cmd_plot(cfg: RunConfig) -> int:
    env = _resolve_env(cfg)
    out = _out_dir(cfg)
    if (cfg.dataset is None) == (cfg.trace is None):
        raise UsageError("plot needs exactly one of --dataset or --trace")
    if cfg.dataset is not None:
        dataset = load_dataset(cfg.dataset)
        svg_coverage(env, dataset, out / "coverage.svg", comments=cfg.provenance_lines())
        print(f"plot: coverage.svg with {len(dataset)} samples")
    else:
        trace = load_trace(cfg.trace)
        waypoints = []
        if cfg.waypoints:
            if cfg.waypoints in BUNDLED_WAYPOINTS:
                waypoints = list(BUNDLED_WAYPOINTS[cfg.waypoints])
            else:
                waypoints = load_waypoints(cfg.waypoints)
        svg_route(env, trace, waypoints, out / "route.svg", comments=cfg.provenance_lines())
        print(f"plot: route.svg with {len(trace)} trace rows")
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    env = _resolve_env(cfg)
    frames = generate_dataset(env, cfg.frames, cfg.seed)
    estimator = build_estimator(cfg.estimator, env)
    inject = getattr(estimator, "set_true_pose", None)
    rates = []
    try:
        for _ in range(cfg.repeats):
            t0 = time.perf_counter()
            for sample in frames:
                if inject is not None:
                    inject(sample.pose)
                estimator.estimate(sample.observation)
            rates.append(len(frames) / (time.perf_counter() - t0))
    finally:
        close = getattr(estimator, "close", None)
        if close:
            close()
    mean = float(np.mean(rates))
    std = float(np.std(rates))
    print(f"bench: {cfg.estimator}: {mean:.1f} +/- {std:.1f} estimates/s "
          f"({cfg.frames} frames x {cfg.repeats} repeats)")
    if cfg.options.get("out"):
        _write_json(
            _out_dir(cfg) / "bench.json",
            {"estimator": cfg.estimator, "frames": cfg.frames, "repeats": cfg.repeats,
             "rate_mean": mean, "rate_std": std, "rates": rates},
            cfg,
        )
    return 0


# --- parser ------------------------------------------------------------------------


COMMANDS = {
    "gen": (
        cmd_gen,
        {"env": None, "out": None, "seed": 0, "n": 1000,
         "fov": None, "rays": None, "max_range": None},
        ("env",),
    ),
    "walk": (
        cmd_walk,
        {"env": None, "out": None, "seed": 0, "steps": 1000,
         "capture_dist": 0.10, "capture_rot": 10.0, "step_len": 0.1, "clearance": 0.5,
         "fov": None, "rays": None, "max_range": None},
        ("env",),
    ),
    "train": (
        cmd_train,
        {"env": None, "out": None, "seed": 0, "dataset": None,
         "iterations": 200_000, "eval_interval": 1000, "batch_size": 32,
         "lr0": 1e-4, "weight_decay": 1e-6, "decay_mode": "per_iteration",
         "hidden": "64,64", "val_fraction": 0.1, "yaw_mode": "tanh", "loss": "l1",
         "fov": None, "rays": None, "max_range": None},
        ("env", "dataset"),
    ),
    "eval": (
        cmd_eval,
        {"env": None, "out": None, "seed": 0, "estimator": None, "testset": None,
         "ablate": None, "fov": None, "rays": None, "max_range": None},
        ("env", "testset"),
    ),
    "navigate": (
        cmd_navigate,
        {"env": None, "out": None, "seed": 0, "estimator": None, "waypoints": None,
         "start": None, "td": 0.5, "ta": 5.0, "max_step": 1.0, "linear_speed": 0.5,
         "angular_speed": 30.0, "dt": 0.1, "max_ticks": 100_000, "footprint": 0.5,
         "leg_tolerance": None, "odo_lin": 0.01, "odo_ang": 0.5,
         "fov": None, "rays": None, "max_range": None},
        ("env", "waypoints"),
    ),
    "plot": (
        cmd_plot,
        {"env": None, "out": None, "seed": 0, "dataset": None, "trace": None,
         "waypoints": None, "fov": None, "rays": None, "max_range": None},
        ("env", "dataset", "trace", "waypoints"),
    ),
    "bench": (
        cmd_bench,
        {"env": None, "out": None, "seed": 0, "estimator": None, "frames": 100,
         "repeats": 5, "fov": None, "rays": None, "max_range": None},
        ("env",),
    ),
}

_FLAG_TYPES = {
    "seed": int, "n": int, "steps": int, "iterations": int, "eval_interval": int,
    "batch_size": int, "max_ticks": int, "frames": int, "repeats": int, "rays": int,
    "capture_dist": float, "capture_rot": float, "step_len": float, "clearance": float,
    "lr0": float, "weight_decay": float, "val_fraction": float, "fov": float,
    "max_range": float, "td": float, "ta": float, "max_step": float,
    "linear_speed": float, "angular_speed": float, "dt": float, "footprint": float,
    "leg_tolerance": float, "odo_lin": float, "odo_ang": float,
}


def _build_parser():
    parser = _Parser(prog="neuromap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"neuromap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, defaults, _) in COMMANDS.items():
        p = sub.add_parser(name, prog=f"neuromap {name}")
        p.add_argument("--config", help="JSON file with option defaults")
        for key in defaults:
            flag = "--" + key.replace("_", "-")
            # argparse default None so the config merge can tell
            # "flag given" from "fell back to default"
            p.add_argument(flag, type=_FLAG_TYPES.get(key, str), default=None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        func, defaults, file_keys = COMMANDS[args.command]
        cfg = _merge_options(args, argv, defaults, file_keys)
        return func(cfg)
    except UsageError as exc:
        print(f"neuromap: usage error: {exc}", file=sys.stderr)
        return 1
    except (
        InputError, DatasetFormatError, GridFormatError, InfeasibleEnvironmentError,
        ValueError, OSError,
    ) as exc:
        print(f"neuromap: input error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeAbort, EstimatorUnavailableError, TrainingDivergedError) as exc:
        print(f"neuromap: runtime abort: {exc}", file=sys.stderr)
        return 3


def entry():  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
