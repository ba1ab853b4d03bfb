"""Command line interface.

Subcommands: gen, walk, train, eval, navigate, plot, bench. Every output
file embeds the invocation, tool version and seed, and (bench excepted,
being a wall-clock measurement) every command is a pure function of its
flags, so rerunning an invocation reproduces its outputs byte for byte.

Exit codes: 0 success, 1 usage error, 2 input validation error (an
``InputError`` or ``OSError``: refused values and files, inputs captured in
another world, worlds with no room to sample), 3 runtime abort (collision,
estimator failure, tick budget, diverged training, out of memory), 130
interrupted (Ctrl-C: 128 + SIGINT). Any other exception is a bug and ends
in a traceback.

Option values resolve as flags > JSON config file (--config) > defaults;
the options and estimator spec keys that set a library config are its
fields, read with their defaults from it.
"""

import argparse
import json
import shlex
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .capture import (
    Dataset,
    WalkConfig,
    generate_dataset,
    load_dataset,
    random_walk_capture,
    save_dataset,
)
from .estimator import (
    Estimator,
    EstimatorUnavailableError,
    ExternalEstimator,
    KnnConfig,
    KnnEstimator,
    OracleConfig,
    OracleEstimator,
    RegressorEstimator,
)
from .inputs import InputError
from .navigate import (
    NavConfig,
    OdometryConfig,
    load_trace,
    load_waypoints,
    navigate_waypoints,
    save_trace,
)
from .pose import Pose2D
from .report import (CoverageSummary, coverage_summary, metrics_table, printable, save_json,
                     svg_coverage, svg_route)
from .training import (
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    load_model,
    save_history,
    save_model,
    train,
)
from .world import SensorConfig, load_environment
from .worlds import route_file, world_file, world_sensor


class UsageError(Exception):
    """Bad flags or malformed spec strings; exit code 1."""


class RuntimeAbort(Exception):
    """The run itself failed (collision, estimator outage); exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract reserves 2 for
    # input validation, so route usage failures through UsageError.
    def error(self, message):
        raise UsageError(message)


# --- config plumbing ---------------------------------------------------------------


def _merge_options(args, argv) -> None:
    """Resolve every option of ``args.command`` onto ``args``: flags > config
    file > defaults. Unknown config keys are rejected, a required option
    that neither gives is a usage error, a bundled world (``--env``) or route
    (``--waypoints``) name becomes its shipped file, and every input file and
    the nearest existing path of ``--out``, which must be a directory, are
    checked here, so a run that cannot read or write fails before any work. Adds
    ``args.provenance`` and its comment-line form ``args.comments``."""
    _, defaults, required, file_keys = COMMANDS[args.command]
    loaded = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise InputError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise InputError(f"{path}: config must be a JSON object")
        for key, value in raw.items():
            if key not in defaults:
                raise InputError(f"{path}: unknown option {key!r} for this command")
            loaded[key] = _config_value(path, key, value, defaults[key])
    for key, default in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, loaded.get(key, default))
    for key in required:
        if getattr(args, key) is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")
    if args.seed < 0:
        raise InputError(f"seed must be >= 0, got {args.seed}")
    for key in file_keys:
        value = getattr(args, key)
        if value is None:
            continue
        if key in _SHIPPED:
            value = _SHIPPED[key](value)
            setattr(args, key, value)
        if not Path(value).is_file():
            raise InputError(f"{key}: no such file: {value}")
    if args.out is not None:
        out = Path(args.out)
        near = next((p for p in (out, *out.parents) if p.exists() or p.is_symlink()), None)
        if near is not None and not near.is_dir():
            raise InputError(f"--out {out}: {near} is not a directory")
    args.provenance = {
        "tool": f"neuromap {__version__}",
        "invocation": shlex.join(["neuromap", *argv]),
        "seed": args.seed,
    }
    args.comments = tuple(printable(f"{k}: {v}") for k, v in args.provenance.items())


def _config_value(path, key, value, default):
    """``value`` as its flag would give it. int keys take ints, float keys ints
    or floats, str keys strings (``hidden`` also a list of ints); JSON true and
    false are not numbers, and null is taken only where the default is unset."""
    kind = _flag_type(key, default)
    if value is None and default is None:
        return None
    if key == "hidden" and type(value) is list and all(type(v) is int for v in value):
        return value
    if type(value) is kind or (kind is float and type(value) is int):
        try:
            return kind(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise InputError(f"{path}: option {key!r} must be of type {kind.__name__}, got {value!r}")


# the config fields whose option has another name; any other field's option
# is the field's own name
_FLAG_NAMES = {"max_steps": "steps", "clearance_radius": "clearance", "max_iterations": "iterations",
               "hidden_dims": "hidden", "T_d": "td", "T_a": "ta", "footprint_radius": "footprint",
               "sigma_lin_frac": "odo_lin", "sigma_ang_per_step": "odo_ang", "ray_count": "rays"}


def _flag(field) -> str:
    return _FLAG_NAMES.get(field.name, field.name)


def _settings(cls) -> dict:
    """The options that set library config ``cls``, each with its field's default."""
    return {_flag(f): f.default for f in fields(cls)}


def _config(cls, args, **given):
    """Library config ``cls`` from the options on ``args``, but ``given`` fields as given."""
    return cls(**{f.name: getattr(args, _flag(f)) for f in fields(cls)} | given)


def _resolve_env(args):
    """The world in the --env grid file; --fov, --rays and --max-range
    override its sensor (a bundled world's own, else the default one)."""
    given = {f.name: v for f in fields(SensorConfig) if (v := getattr(args, _flag(f))) is not None}
    return load_environment(args.env, sensor=replace(world_sensor(args.env), **given))


def _out_dir(args) -> Path:
    """The --out directory, created once the work that could refuse the run
    has run: a refused run leaves no --out."""
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _save_capture(args, env, dataset, **extra) -> CoverageSummary:
    """Write a captured dataset, its coverage.json (with ``extra`` keys) and
    coverage.svg into --out."""
    out = _out_dir(args)
    save_dataset(dataset, out / "dataset.csv", extra_header={"provenance": args.provenance})
    poses = dataset.poses_matrix()
    cov = coverage_summary(env, poses)
    save_json(out / "coverage.json", {"coverage": asdict(cov), **extra}, args.provenance)
    svg_coverage(env, poses, out / "coverage.svg", comments=args.comments)
    return cov


# --- estimator spec strings --------------------------------------------------------


def _parse_kv(text, cls) -> dict:
    """The fields of library config ``cls`` that ``text`` (key=value,..) sets,
    each cast to the type of the field's default."""
    casts = {f.name: type(f.default) for f in fields(cls)}
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


def build_estimator(spec: str, env) -> Estimator:
    """Build an estimator from a spec string.

    Forms: ``oracle[:sigma_pos=..,sigma_theta=..,seed=..]``,
    ``knn:DB[,k=N,weighting=inverse-distance|uniform]``, ``model:PATH``,
    ``external:COMMAND LINE``.
    """
    kind, _, rest = spec.partition(":")
    if kind == "oracle":
        return OracleEstimator(OracleConfig(**_parse_kv(rest, OracleConfig)), env)
    if kind == "knn":
        db_path, _, tail = rest.partition(",")
        if not db_path:
            raise UsageError("knn spec needs a database path: knn:DB[,k=..,weighting=..]")
        if not Path(db_path).is_file():
            raise InputError(f"knn database not found: {db_path}")
        opts = _parse_kv(tail, KnnConfig)
        db = load_dataset(db_path)
        env.check_world("estimator", db.env_name, db.sensor, db.poses_matrix())
        return KnnEstimator(db, KnnConfig(**opts))
    if kind == "model":
        if not rest:
            raise UsageError("model spec needs a file path: model:PATH")
        if not Path(rest).is_file():
            raise InputError(f"model file not found: {rest}")
        return RegressorEstimator(load_model(rest), env)
    if kind == "external":
        try:
            argv = shlex.split(rest)
        except ValueError as exc:
            raise UsageError(f"bad external command line {rest!r}: {exc}") from None
        if not argv:
            raise UsageError("external spec needs a command line: external:CMD ARGS..")
        return ExternalEstimator(argv, env)
    raise UsageError(f"unknown estimator kind {kind!r}; use oracle/knn/model/external")


# --- commands ----------------------------------------------------------------------


def cmd_gen(args) -> int:
    env = _resolve_env(args)
    dataset = generate_dataset(env, args.n, args.seed)
    cov = _save_capture(args, env, dataset)
    print(f"gen: {len(dataset)} samples in {env.name}; coverage {cov.fraction:.1%} "
          f"of {cov.free_cells} free cells")
    return 0


def cmd_walk(args) -> int:
    env = _resolve_env(args)
    result = random_walk_capture(env, _config(WalkConfig, args), args.seed)
    _save_capture(args, env, result.dataset, wedged=result.wedged, steps=result.steps)
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


def cmd_train(args) -> int:
    env = _resolve_env(args)
    train_cfg = _config(TrainConfig, args, hidden_dims=_parse_hidden(args.hidden))
    dataset = load_dataset(args.dataset)
    evals_seen = 0

    def checkpoint(row, model):
        nonlocal evals_seen
        evals_seen += 1
        if evals_seen % 10 == 0:
            save_model(model, _out_dir(args) / "checkpoint.model",
                       extra_header={"provenance": args.provenance, "iteration": row.iteration})

    model, history = train(dataset, env, train_cfg, on_eval=checkpoint)
    out = _out_dir(args)
    save_model(model, out / "model.model", extra_header={"provenance": args.provenance})
    save_history(history, out / "history.csv", comments=args.comments)
    best = min((r.val_pos_err for r in history), default=float("nan"))
    print(f"train: {history[-1].iteration} iterations, best val pos err {best:.4f} m")
    return 0


def _parse_ablate(text) -> list:
    """The database sizes of ``--ablate sizes=N1,N2,..``; none when unset."""
    if not text:
        return []
    key, _, raw = str(text).partition("=")
    try:
        sizes = [int(v) for v in raw.split(",") if v]
    except ValueError:
        sizes = []
    if key != "sizes" or not sizes or min(sizes) < 1:
        raise UsageError(f"bad --ablate value {text!r}; expected sizes=N1,N2,.. with each N >= 1")
    return sizes


def cmd_eval(args) -> int:
    sizes = _parse_ablate(args.ablate)
    env = _resolve_env(args)
    testset = load_dataset(args.testset)
    with build_estimator(args.estimator, env) as estimator:
        if sizes:
            if not isinstance(estimator, KnnEstimator):
                raise UsageError("--ablate requires a knn estimator")
            if max(sizes) > len(estimator.db):
                raise InputError(
                    f"ablation size {max(sizes)} exceeds database size {len(estimator.db)}"
                )
            if min(sizes) < estimator.cfg.k:
                raise InputError(f"k={estimator.cfg.k} exceeds database size {min(sizes)}")
        results = {args.estimator: evaluate(estimator, testset, env)}
        for size in dict.fromkeys(sizes):  # k-NN over the database's first `size` rows
            db = estimator.db
            subset = Dataset(
                db.env_name, db.sensor, db.seed, db.poses_matrix()[:size], db.ranges_matrix()[:size]
            )
            results[f"knn@{size}"] = evaluate(KnnEstimator(subset, estimator.cfg), testset, env)
    out = _out_dir(args)
    metrics = {name: asdict(m) for name, m in results.items()}
    save_json(out / "metrics.json", {"metrics": metrics}, args.provenance)
    table = metrics_table(results, comments=args.comments)
    (out / "table.txt").write_text(table, encoding="ascii")
    print(table, end="")
    return 0


def _parse_start(text) -> Pose2D:
    parts = str(text).split(",")
    if len(parts) != 3:
        raise UsageError(f"bad --start value {text!r}; expected x,y,theta")
    try:
        return Pose2D(*(float(v) for v in parts))
    except ValueError:  # not a number, or not finite
        raise UsageError(f"bad --start value {text!r}; expected finite numbers") from None


def cmd_navigate(args) -> int:
    env = _resolve_env(args)
    start = _parse_start(args.start)
    waypoints = load_waypoints(args.waypoints)
    nav_cfg = _config(NavConfig, args)
    odo = _config(OdometryConfig, args)
    with build_estimator(args.estimator, env) as estimator:
        trace, report = navigate_waypoints(waypoints, estimator, env, start, nav_cfg, odo)
    out = _out_dir(args)
    save_trace(trace, out / "trace.csv", comments=args.comments)
    save_json(out / "report.json", asdict(report), args.provenance)
    svg_route(env, trace, waypoints, out / "route.svg", comments=args.comments)
    status = "ok" if report.success else f"abort: {report.abort_reason}"
    print(f"navigate: {status}; {report.tick_count} ticks, "
          f"mean closest approach {report.mean_closest_true:.3f} m")
    if not report.success:
        raise RuntimeAbort(report.abort_reason)
    return 0


def cmd_plot(args) -> int:
    if (args.dataset is None) == (args.trace is None):
        raise UsageError("plot needs exactly one of --dataset or --trace")
    if args.waypoints is not None and args.trace is None:
        raise UsageError("plot draws --waypoints only with --trace")
    env = _resolve_env(args)
    if args.dataset is not None:
        dataset = load_dataset(args.dataset)
        env.check_world("dataset", dataset.env_name, dataset.sensor, dataset.poses_matrix())
        svg_coverage(env, dataset.poses_matrix(), _out_dir(args) / "coverage.svg",
                     comments=args.comments)
        print(f"plot: coverage.svg with {len(dataset)} samples")
    else:
        trace = load_trace(args.trace)
        waypoints = load_waypoints(args.waypoints) if args.waypoints else []
        svg_route(env, trace, waypoints, _out_dir(args) / "route.svg", comments=args.comments)
        print(f"plot: route.svg with {len(trace)} trace rows")
    return 0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise InputError(f"repeats must be >= 1, got {args.repeats}")
    env = _resolve_env(args)
    frames = generate_dataset(env, args.frames, args.seed)
    rates = []
    with build_estimator(args.estimator, env) as estimator:
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            evaluate(estimator, frames, env)
            rates.append(len(frames) / (time.perf_counter() - t0))
    mean = float(np.mean(rates))
    std = float(np.std(rates))
    print(f"bench: {args.estimator}: {mean:.1f} +/- {std:.1f} estimates/s "
          f"({args.frames} frames x {args.repeats} repeats)")
    if args.out:
        save_json(
            _out_dir(args) / "bench.json",
            {"estimator": args.estimator, "frames": args.frames, "repeats": args.repeats,
             "rate_mean": mean, "rate_std": std, "rates": rates},
            args.provenance,
        )
    return 0


# --- parser ------------------------------------------------------------------------


# Each command: its function, its options and their defaults, the options it
# requires, and the options that name an input file, each stated once. The
# options that set a library config are read from its fields. An option takes
# its default's type, a string where the default is unset (None), or its
# _FLAG_TYPES entry.
COMMON = {"env": None, "out": None, "seed": 0, "fov": None, "rays": None, "max_range": None}
_FLAG_TYPES = {"rays": int, "fov": float, "max_range": float, "leg_tolerance": float, "hidden": str}
# the file options that also take a bundled name, and the map to its file
_SHIPPED = {"env": world_file, "waypoints": route_file}

COMMANDS = {
    "gen": (cmd_gen, {**COMMON, "n": 1000}, ("env", "out"), ("env",)),
    "walk": (cmd_walk, {**COMMON, **_settings(WalkConfig)}, ("env", "out"), ("env",)),
    "train": (
        cmd_train,
        {**COMMON, "dataset": None, **_settings(TrainConfig)},
        ("env", "out", "dataset"),
        ("env", "dataset"),
    ),
    "eval": (
        cmd_eval,
        {**COMMON, "estimator": None, "testset": None, "ablate": None},
        ("env", "out", "estimator", "testset"),
        ("env", "testset"),
    ),
    "navigate": (
        cmd_navigate,
        {**COMMON, "estimator": None, "waypoints": None, "start": None,
         **_settings(NavConfig), **_settings(OdometryConfig)},
        ("env", "out", "estimator", "waypoints", "start"),
        ("env", "waypoints"),
    ),
    "plot": (
        cmd_plot,
        {**COMMON, "dataset": None, "trace": None, "waypoints": None},
        ("env", "out"),
        ("env", "dataset", "trace", "waypoints"),
    ),
    "bench": (cmd_bench, {**COMMON, "estimator": None, "frames": 100, "repeats": 5},
              ("env", "estimator"), ("env",)),
}


def _flag_type(key, default):
    return _FLAG_TYPES.get(key) or (str if default is None else type(default))


def _build_parser():
    parser = _Parser(prog="neuromap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"neuromap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, defaults, _, _) in COMMANDS.items():
        p = sub.add_parser(name, prog=f"neuromap {name}")
        p.add_argument("--config", help="JSON file with option defaults")
        for key, default in defaults.items():
            # argparse default None so the config merge can tell
            # "flag given" from "fell back to default"
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=_flag_type(key, default), default=None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        _merge_options(args, argv)
        return args.func(args)
    except UsageError as exc:
        print(f"neuromap: usage error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"neuromap: input error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeAbort, EstimatorUnavailableError, TrainingDivergedError) as exc:
        print(f"neuromap: runtime abort: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"neuromap: runtime abort: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("neuromap: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
