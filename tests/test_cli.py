"""CLI behaviour: subcommand plumbing, exit codes, provenance, determinism.

Commands run in-process through ``main(argv)``; only the console-script
wiring test shells out. A downsampled 16-ray apartment keeps dataset
generation fast.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from neuromap.capture import Dataset, load_dataset, save_dataset
from neuromap.cli import build_estimator, main
from neuromap.estimator import Estimator, KnnEstimator, OracleEstimator, PoseEstimate
from neuromap.pose import Pose2D
from neuromap.training import RegressorModel, load_history, load_model, save_model
from neuromap.world import Observation, SensorConfig, save_environment
from neuromap.worlds import apartment

STUB = str(Path(__file__).parent / "external_stub.py")

ENV_FLAGS = ["--env", "apartment", "--rays", "16"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Pre-generated datasets shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen", *ENV_FLAGS, "--n", "800", "--seed", "11", "--out", str(root / "db")]) == 0
    assert main(["gen", *ENV_FLAGS, "--n", "60", "--seed", "12", "--out", str(root / "test")]) == 0
    return root


@pytest.fixture(scope="module")
def two_worlds(tmp_path_factory):
    """Worlds a.grid and b.grid share a layout and sensor but not a name;
    each has a 20-sample dataset captured in it."""
    root = tmp_path_factory.mktemp("worlds")
    for world in ("a", "b"):
        save_environment(apartment(), root / f"{world}.grid")
        assert main(["gen", "--env", str(root / f"{world}.grid"), "--rays", "16",
                     "--n", "20", "--out", str(root / world)]) == 0
    return root


def read(path):
    return Path(path).read_bytes()


# --- gen ---------------------------------------------------------------------------


def test_gen_outputs_and_count(workspace):
    out = workspace / "db"
    dataset = load_dataset(out / "dataset.csv")
    assert len(dataset) == 800
    assert dataset.sensor.ray_count == 16  # --rays override reached the sensor
    cov = json.loads((out / "coverage.json").read_text())
    assert cov["provenance"]["tool"].startswith("neuromap ")
    assert "gen" in cov["provenance"]["invocation"]
    assert cov["provenance"]["seed"] == 11
    assert 0.0 < cov["coverage"]["fraction"] <= 1.0
    assert (out / "coverage.svg").read_text().count('class="sample"') == 800


def test_gen_rerun_is_byte_identical(tmp_path):
    argv = ["gen", *ENV_FLAGS, "--n", "50", "--seed", "5", "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    first = {p.name: read(p) for p in (tmp_path / "o").iterdir()}
    assert main(argv) == 0
    second = {p.name: read(p) for p in (tmp_path / "o").iterdir()}
    assert first == second
    assert set(first) == {"dataset.csv", "coverage.json", "coverage.svg"}


def test_gen_bytes_do_not_depend_on_cpu_count(tmp_path, monkeypatch):
    # 600 samples of the default 96-ray sensor span two raycast chunks
    argv = ["gen", "--env", "apartment", "--n", "600", "--seed", "5", "--out", str(tmp_path / "o")]
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)), raising=False)
        assert main(argv) == 0
        runs.append({p.name: read(p) for p in (tmp_path / "o").iterdir()})
    assert runs[0] == runs[1]
    assert set(runs[0]) == {"dataset.csv", "coverage.json", "coverage.svg"}
    argv[argv.index("600")] = "50"
    assert main(argv) == 0
    rows = (tmp_path / "o" / "dataset.csv").read_text().splitlines()[2:]
    assert len(rows) == 50
    assert rows == runs[0]["dataset.csv"].decode().splitlines()[2:52]


def test_gen_dense_sampling_covers_map(tmp_path):
    assert main(["gen", *ENV_FLAGS, "--n", "20000", "--seed", "3",
                 "--out", str(tmp_path / "o")]) == 0
    cov = json.loads((tmp_path / "o" / "coverage.json").read_text())
    assert cov["coverage"]["fraction"] >= 0.99


# --- walk --------------------------------------------------------------------------


def test_walk_outputs(tmp_path):
    out = tmp_path / "w"
    assert main(["walk", *ENV_FLAGS, "--steps", "400", "--seed", "2", "--out", str(out)]) == 0
    dataset = load_dataset(out / "dataset.csv")
    assert len(dataset) > 1
    cov = json.loads((out / "coverage.json").read_text())
    assert cov["steps"] == 400
    assert (out / "coverage.svg").exists()


def test_walk_zero_steps_single_capture(tmp_path):
    out = tmp_path / "w0"
    assert main(["walk", *ENV_FLAGS, "--steps", "0", "--seed", "2", "--out", str(out)]) == 0
    assert len(load_dataset(out / "dataset.csv")) == 1


def test_walk_avoids_obstacles_more_than_gen(workspace, tmp_path):
    # the walk keeps a 0.5 m clearance, uniform sampling does not, so the
    # walk's samples must sit further from obstacles
    from neuromap.report import near_obstacle_fraction

    out = tmp_path / "w"
    assert main(["walk", *ENV_FLAGS, "--steps", "2000", "--seed", "8", "--out", str(out)]) == 0
    env = apartment()
    walk_near = near_obstacle_fraction(env, load_dataset(out / "dataset.csv").poses_matrix(), 0.3)
    gen_db = load_dataset(workspace / "db" / "dataset.csv")
    gen_near = near_obstacle_fraction(env, gen_db.poses_matrix(), 0.3)
    assert walk_near < gen_near


# --- train -------------------------------------------------------------------------


def test_train_outputs_and_checkpoint(workspace, tmp_path):
    out = tmp_path / "t"
    argv = [
        "train", *ENV_FLAGS, "--dataset", str(workspace / "db" / "dataset.csv"),
        "--iterations", "1000", "--eval-interval", "100", "--hidden", "16",
        "--seed", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    model = load_model(out / "model.model")
    assert model.layer_dims == (16, 16, 3)
    history = load_history(out / "history.csv")
    assert history[-1].iteration == 1000
    assert (out / "checkpoint.model").exists()  # written on the 10th eval
    first = {p.name: read(p) for p in out.iterdir()}
    assert main(argv) == 0
    assert {p.name: read(p) for p in out.iterdir()} == first


def test_train_rejects_wrong_environment(workspace, tmp_path):
    rc = main([
        "train", "--env", "cabin", "--dataset", str(workspace / "db" / "dataset.csv"),
        "--iterations", "100", "--out", str(tmp_path / "t"),
    ])
    assert rc == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_train_divergence_is_runtime_abort(workspace, tmp_path, capsys):
    rc = main(["train", *ENV_FLAGS, "--dataset", str(workspace / "test" / "dataset.csv"),
               "--iterations", "50", "--eval-interval", "10", "--hidden", "4",
               "--lr0", "1e200", "--out", str(tmp_path / "t")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("neuromap: runtime abort: non-finite loss") and err.count("\n") == 1


def test_train_rejects_malformed_dataset(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not a dataset\n")
    rc = main(["train", *ENV_FLAGS, "--dataset", str(bad), "--out", str(tmp_path / "t")])
    assert rc == 2


# --- eval --------------------------------------------------------------------------


def test_eval_oracle_zero_table(workspace, tmp_path):
    out = tmp_path / "e"
    assert main(["eval", *ENV_FLAGS, "--estimator", "oracle",
                 "--testset", str(workspace / "test" / "dataset.csv"), "--out", str(out)]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    m = doc["metrics"]["oracle"]
    assert m["mean_pos_err"] == 0.0 and m["mean_theta_err"] == 0.0
    table = (out / "table.txt").read_text()
    assert "oracle" in table and "0.0000" in table


def test_eval_knn_with_ablation(workspace, tmp_path):
    out = tmp_path / "e"
    db = str(workspace / "db" / "dataset.csv")
    assert main(["eval", *ENV_FLAGS, "--estimator", f"knn:{db},k=3",
                 "--testset", str(workspace / "test" / "dataset.csv"),
                 "--ablate", "sizes=100,400,800", "--out", str(out)]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    names = set(doc["metrics"])
    assert {"knn@100", "knn@400", "knn@800"} <= names
    table = (out / "table.txt").read_text()
    assert "knn@400" in table


def _fail_if_evaluated(monkeypatch):
    def evaluate(*args):
        raise AssertionError("evaluated before --ablate was checked")

    monkeypatch.setattr("neuromap.cli.evaluate", evaluate)


def test_eval_ablation_requires_knn(workspace, tmp_path, monkeypatch, capsys):
    _fail_if_evaluated(monkeypatch)
    rc = main(["eval", *ENV_FLAGS, "--estimator", "oracle",
               "--testset", str(workspace / "test" / "dataset.csv"),
               "--ablate", "sizes=10", "--out", str(tmp_path / "e")])
    assert rc == 1
    assert capsys.readouterr().err == "neuromap: usage error: --ablate requires a knn estimator\n"
    assert not (tmp_path / "e" / "metrics.json").exists()


def test_eval_ablation_beyond_the_database_fails_before_evaluating(
    workspace, tmp_path, monkeypatch, capsys
):
    _fail_if_evaluated(monkeypatch)
    rc = main(["eval", *ENV_FLAGS, "--estimator", f"knn:{workspace / 'db' / 'dataset.csv'}",
               "--testset", str(workspace / "test" / "dataset.csv"),
               "--ablate", "sizes=100,1000000", "--out", str(tmp_path / "e")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("neuromap: input error: ablation size 1000000 exceeds database size")
    assert err.count("\n") == 1
    assert not (tmp_path / "e" / "metrics.json").exists()


@pytest.mark.parametrize(
    "value", ["sizes=oops", "sizes=", "sizes=,", "size=10", "sizes=0", "sizes=-3"]
)
def test_eval_bad_ablate_is_usage_error_before_any_work(workspace, tmp_path, capsys, value):
    # the test set is not a dataset: loading it would exit 2
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("not a dataset\n")
    rc = main(["eval", *ENV_FLAGS, "--estimator", f"knn:{workspace / 'db' / 'dataset.csv'}",
               "--testset", str(garbage), "--ablate", value, "--out", str(tmp_path / "e")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"neuromap: usage error: bad --ablate value {value!r}")
    assert err.count("\n") == 1
    assert not (tmp_path / "e" / "metrics.json").exists()


@pytest.mark.parametrize("command", ["eval", "bench", "navigate"])
def test_knn_database_from_another_world_is_input_error(two_worlds, tmp_path, capsys, command):
    argv = {
        "eval": ["--testset", str(two_worlds / "b" / "dataset.csv")],
        "bench": ["--frames", "2", "--repeats", "1"],
        "navigate": ["--waypoints", "apartment_loop", "--start", "1.5,1.5,0"],
    }[command]
    rc = main([command, "--env", str(two_worlds / "b.grid"), "--rays", "16",
               "--estimator", f"knn:{two_worlds / 'a' / 'dataset.csv'}", *argv,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "knn database was captured in 'a', not 'b'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "bench", "navigate"])
def test_knn_database_with_another_sensor_is_input_error(workspace, tmp_path, capsys, command):
    db = tmp_path / "fov90"
    assert main(["gen", *ENV_FLAGS, "--fov", "90", "--n", "20", "--out", str(db)]) == 0
    argv = {
        "eval": ["--testset", str(workspace / "test" / "dataset.csv")],
        "bench": ["--frames", "2", "--repeats", "1"],
        "navigate": ["--waypoints", "apartment_loop", "--start", "1.5,1.5,0"],
    }[command]
    capsys.readouterr()
    rc = main([command, *ENV_FLAGS, "--estimator", f"knn:{db / 'dataset.csv'}", *argv,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "knn database sensor SensorConfig(fov=90.0" in err and err.count("\n") == 1


def test_eval_testset_from_another_world_is_input_error(two_worlds, tmp_path, capsys):
    rc = main(["eval", "--env", str(two_worlds / "b.grid"), "--rays", "16",
               "--estimator", f"knn:{two_worlds / 'b' / 'dataset.csv'}",
               "--testset", str(two_worlds / "a" / "dataset.csv"), "--out", str(tmp_path / "e")])
    assert rc == 2
    assert "test set was captured in 'a', not 'b'" in capsys.readouterr().err
    assert not (tmp_path / "e" / "metrics.json").exists()


def test_eval_external_estimator(workspace, tmp_path):
    out = tmp_path / "e"
    spec = f"external:{sys.executable} {STUB} --mode const --nx 0.0 --ny 0.0 --ntheta 0.0"
    assert main(["eval", *ENV_FLAGS, "--estimator", spec,
                 "--testset", str(workspace / "test" / "dataset.csv"), "--out", str(out)]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    (metrics,) = doc["metrics"].values()
    assert metrics["mean_pos_err"] > 0.0  # constant centre guess is wrong on average


# --- navigate ----------------------------------------------------------------------


def test_navigate_success(tmp_path):
    out = tmp_path / "n"
    assert main(["navigate", "--env", "apartment", "--estimator", "oracle",
                 "--waypoints", "apartment_loop", "--start", "1.5,1.5,0",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["success"] is True
    assert len(report["waypoints"]) == 8
    assert all(w["reached"] for w in report["waypoints"])
    svg = (out / "route.svg").read_text()
    assert 'stroke="green"' in svg and 'stroke="blue"' in svg
    assert svg.count('class="waypoint"') == 8
    assert (out / "trace.csv").exists()


def test_navigate_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "n"
    argv = ["navigate", "--env", "apartment", "--estimator",
            "oracle:sigma_pos=0.05,seed=4", "--waypoints", "apartment_loop",
            "--start", "1.5,1.5,0", "--seed", "9", "--out", str(out)]
    assert main(argv) == 0
    first = {p.name: read(p) for p in out.iterdir()}
    assert main(argv) == 0
    assert {p.name: read(p) for p in out.iterdir()} == first


def test_navigate_abort_exit_code_and_trace(tmp_path):
    out = tmp_path / "n"
    rc = main(["navigate", "--env", "apartment", "--estimator", "external:/bin/false",
               "--waypoints", "apartment_loop", "--start", "1.5,1.5,0", "--out", str(out)])
    assert rc == 3
    report = json.loads((out / "report.json").read_text())
    assert report["success"] is False
    assert report["abort_reason"] == "estimator-failure"
    assert (out / "trace.csv").exists()  # retained up to the abort


def test_navigate_bad_start_usage_error(tmp_path):
    rc = main(["navigate", "--env", "apartment", "--estimator", "oracle",
               "--waypoints", "apartment_loop", "--start", "nope",
               "--out", str(tmp_path / "n")])
    assert rc == 1


# --- plot --------------------------------------------------------------------------


def test_plot_dataset_marker_count(workspace, tmp_path):
    out = tmp_path / "p"
    assert main(["plot", *ENV_FLAGS, "--dataset", str(workspace / "test" / "dataset.csv"),
                 "--out", str(out)]) == 0
    assert (out / "coverage.svg").read_text().count('class="sample"') == 60


def test_plot_empty_dataset_grid_only(tmp_path):
    empty = tmp_path / "empty.csv"
    sensor = SensorConfig(fov=360.0, ray_count=16, max_range=12.0)
    save_dataset(Dataset("apartment", sensor, 0, np.zeros((0, 3)), np.zeros((0, 16))), empty)
    out = tmp_path / "p"
    assert main(["plot", *ENV_FLAGS, "--dataset", str(empty), "--out", str(out)]) == 0
    svg = (out / "coverage.svg").read_text()
    assert 'class="sample"' not in svg and 'class="cell"' in svg


def test_plot_trace_route(tmp_path):
    nav_out = tmp_path / "n"
    assert main(["navigate", "--env", "apartment", "--estimator", "oracle",
                 "--waypoints", "apartment_loop", "--start", "1.5,1.5,0",
                 "--out", str(nav_out)]) == 0
    out = tmp_path / "p"
    assert main(["plot", "--env", "apartment", "--trace", str(nav_out / "trace.csv"),
                 "--waypoints", "apartment_loop", "--out", str(out)]) == 0
    svg = (out / "route.svg").read_text()
    assert 'class="truth"' in svg and svg.count('class="waypoint"') == 8


def test_plot_requires_exactly_one_source(workspace, tmp_path):
    rc = main(["plot", *ENV_FLAGS, "--out", str(tmp_path / "p")])
    assert rc == 1
    rc = main(["plot", *ENV_FLAGS, "--dataset", str(workspace / "test" / "dataset.csv"),
               "--trace", str(workspace / "test" / "dataset.csv"), "--out", str(tmp_path / "p")])
    assert rc == 1


# --- bench -------------------------------------------------------------------------


def test_bench_report(workspace, tmp_path, capsys):
    out = tmp_path / "b"
    db = str(workspace / "db" / "dataset.csv")
    assert main(["bench", *ENV_FLAGS, "--estimator", f"knn:{db}", "--frames", "40",
                 "--repeats", "2", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "bench.json").read_text())
    assert doc["rate_mean"] > 0 and doc["frames"] == 40 and len(doc["rates"]) == 2
    assert "estimates/s" in capsys.readouterr().out


def test_bench_knn_slows_with_database_size(workspace):
    # wall-clock. With the screened k-NN, 800 rows query only ~6-21% slower
    # than 10, inside timer noise; tiling the rows to >= 16,000 makes each
    # query ~3.5-6x slower than with 10, and interleaving the two estimators'
    # passes exposes both to the same machine load
    db = load_dataset(workspace / "db" / "dataset.csv")
    small = Dataset(db.env_name, db.sensor, db.seed,
                    db.poses_matrix()[:10], db.ranges_matrix()[:10])
    reps = -(-16_000 // len(db))
    large = Dataset(db.env_name, db.sensor, db.seed,
                    np.tile(db.poses_matrix(), (reps, 1)), np.tile(db.ranges_matrix(), (reps, 1)))

    from neuromap.capture import generate_dataset

    env = apartment()
    env = type(env)(name=env.name, bounds=env.bounds, grid=env.grid,
                    sensor=SensorConfig(fov=360.0, ray_count=16, max_range=12.0))
    frames = [Observation(r) for r in generate_dataset(env, 40, seed=2).ranges_matrix()]

    # best of 5 passes: with cheap queries one pass is mostly fixed
    # per-call overhead, so a single timing is at the mercy of noise
    estimators = {"fast": KnnEstimator(small), "slow": KnnEstimator(large)}
    best = dict.fromkeys(estimators, float("inf"))
    for _ in range(5):
        for name, est in estimators.items():
            t0 = time.perf_counter()
            for obs in frames:
                est.estimate(obs)
            best[name] = min(best[name], time.perf_counter() - t0)
    fast, slow = (len(frames) / best[name] for name in ("fast", "slow"))
    assert slow < fast


# --- spec strings and option plumbing ----------------------------------------------


def test_build_estimator_specs(workspace):
    env = apartment()
    env = type(env)(name=env.name, bounds=env.bounds, grid=env.grid,
                    sensor=SensorConfig(fov=360.0, ray_count=16, max_range=12.0))
    oracle = build_estimator("oracle:sigma_pos=0.1,seed=3", env)
    assert isinstance(oracle, OracleEstimator)
    assert oracle.cfg.sigma_pos == 0.1 and oracle.cfg.seed == 3
    knn = build_estimator(f"knn:{workspace / 'db' / 'dataset.csv'},k=7,weighting=uniform", env)
    assert isinstance(knn, KnnEstimator)
    assert knn.cfg.k == 7 and knn.cfg.weighting == "uniform"


@pytest.mark.parametrize("kind", ["oracle", "knn", "model", "external"])
def test_every_estimator_spec_follows_the_protocol(workspace, tmp_path, kind):
    env = apartment()
    env = type(env)(name=env.name, bounds=env.bounds, grid=env.grid,
                    sensor=SensorConfig(fov=360.0, ray_count=16, max_range=12.0))
    model = tmp_path / "m.model"
    save_model(RegressorModel.zeros((16, 3), env_name=env.name, sensor=env.sensor), model)
    spec = {
        "oracle": "oracle:sigma_pos=0.1,seed=3",
        "knn": f"knn:{workspace / 'db' / 'dataset.csv'}",
        "model": f"model:{model}",
        "external": f"external:{sys.executable} {STUB}",
    }[kind]
    test = load_dataset(workspace / "test" / "dataset.csv")
    obs, truth = Observation(test.ranges_matrix()[0]), Pose2D(*test.poses_matrix()[0])
    with build_estimator(spec, env) as est:
        assert isinstance(est, Estimator)
        assert est.sensor == env.sensor
        assert isinstance(est.estimate(obs, truth), PoseEstimate)


def test_unknown_estimator_kind_is_usage_error(workspace, tmp_path):
    rc = main(["eval", *ENV_FLAGS, "--estimator", "psychic",
               "--testset", str(workspace / "test" / "dataset.csv"),
               "--out", str(tmp_path / "e")])
    assert rc == 1


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["gen", "--env", "apartment", "--bogus", "1", "--out", str(tmp_path)]) == 1


def test_missing_input_file_is_input_error(tmp_path):
    rc = main(["eval", *ENV_FLAGS, "--estimator", "oracle",
               "--testset", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "e")])
    assert rc == 2


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 7, "seed": 30}))
    out = tmp_path / "a"
    assert main(["gen", *ENV_FLAGS, "--config", str(cfg), "--out", str(out)]) == 0
    assert len(load_dataset(out / "dataset.csv")) == 7  # config beats default
    out2 = tmp_path / "b"
    assert main(["gen", *ENV_FLAGS, "--config", str(cfg), "--n", "9",
                 "--out", str(out2)]) == 0
    assert len(load_dataset(out2 / "dataset.csv")) == 9  # flag beats config
    assert load_dataset(out2 / "dataset.csv").seed == 30


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bananas": 1}))
    assert main(["gen", *ENV_FLAGS, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, config", [
    ("gen", {"n": "5"}),
    ("gen", {"seed": 1.5}),
    ("gen", {"n": True}),
    ("gen", {"n": None}),
    ("gen", {"fov": "90"}),
    ("gen", {"fov": False}),
    ("gen", {"env": 3}),
    ("train", {"iterations": "50"}),
    ("train", {"lr0": [1e-3]}),
    ("train", {"lr0": 10**400}),
    ("train", {"hidden": 64}),
    ("train", {"hidden": [64, "x"]}),
])
def test_config_file_rejects_wrongly_typed_values(tmp_path, capsys, command, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    argv = [command, *ENV_FLAGS, "--config", str(cfg), "--out", str(out)]
    if command == "train":
        argv += ["--dataset", str(cfg)]  # any existing file: the config fails first
    assert main(argv) == 2
    err = capsys.readouterr().err
    (key,) = config
    assert len(err.splitlines()) == 1 and repr(key) in err
    assert not out.exists()


def test_config_file_takes_ints_for_floats_and_null_for_unset_options(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 3, "max_range": 12, "fov": None}))
    assert main(["gen", *ENV_FLAGS, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    data = load_dataset(tmp_path / "o" / "dataset.csv")
    assert len(data) == 3 and type(data.sensor.max_range) is float  # as --max-range 12 gives


def test_config_file_rejects_bad_json(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{nope")
    assert main(["gen", *ENV_FLAGS, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_gen_in_world_without_free_cell_is_input_error(tmp_path, monkeypatch, capsys):
    from neuromap import capture
    from neuromap.world import OccupancyGrid, environment_from_grid

    monkeypatch.setattr(capture, "REJECTION_BUDGET", 100)  # 10^6 draws take seconds
    blocked = OccupancyGrid(4, 4, 1.0, 0.0, 0.0, np.ones((4, 4), bool))
    save_environment(environment_from_grid(blocked, "blocked"), tmp_path / "blocked.grid")
    rc = main(["gen", "--env", str(tmp_path / "blocked.grid"), "--n", "5",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("neuromap: input error: no free pose") and err.count("\n") == 1


@pytest.mark.parametrize("occupied, clearance", [(True, "0.5"), (False, "2.5")])
def test_walk_in_world_without_room_fails_fast(tmp_path, capsys, occupied, clearance):
    # a fully occupied grid, or a 4 m world too narrow for a 5 m footprint:
    # the first rejected start pose ends the walk, not 10^6 more draws
    from neuromap.world import OccupancyGrid, environment_from_grid

    grid = OccupancyGrid(4, 4, 1.0, 0.0, 0.0, np.full((4, 4), occupied))
    save_environment(environment_from_grid(grid, "blocked"), tmp_path / "blocked.grid")
    t0 = time.perf_counter()
    rc = main(["walk", "--env", str(tmp_path / "blocked.grid"), "--clearance", clearance,
               "--out", str(tmp_path / "o")])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("neuromap: input error: no start pose") and err.count("\n") == 1


def test_env_file_path_and_unknown_name(tmp_path):
    from neuromap.world import save_environment

    save_environment(apartment(), tmp_path / "flat.grid")
    out = tmp_path / "o"
    assert main(["gen", "--env", str(tmp_path / "flat.grid"), "--rays", "8",
                 "--n", "5", "--out", str(out)]) == 0
    assert load_dataset(out / "dataset.csv").env_name == "flat"
    assert main(["gen", "--env", "atlantis", "--n", "5", "--out", str(out)]) == 2


def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "neuromap.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("neuromap ")
