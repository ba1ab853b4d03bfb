"""CLI behaviour: subcommand plumbing, exit codes, provenance, determinism.

Commands run in-process through ``main(argv)``; only the console-script
wiring test shells out. A downsampled 16-ray apartment keeps dataset
generation fast.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from neuromap import estimator as estimator_module
from neuromap.capture import Dataset, WalkConfig, load_dataset, save_dataset
from neuromap import cli
from neuromap.cli import COMMANDS, _flag_type, build_estimator, main
from neuromap.estimator import Estimator, KnnConfig, KnnEstimator, OracleConfig, OracleEstimator
from neuromap.navigate import NavConfig, OdometryConfig
from neuromap.inputs import read_lines
from neuromap.pose import HEADING_EPS
from neuromap.training import (
    DECAY_PER_INTERVAL, YAW_SINCOS, RegressorModel, TrainConfig, load_model, save_model,
)
from neuromap.world import SensorConfig
from neuromap.worlds import bundled_environment
from worldgen import grid_text, near_obstacle_fraction, save_environment

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
        save_environment(bundled_environment("apartment"), root / f"{world}.grid")
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


def test_eval_bytes_do_not_depend_on_cpu_count(workspace, tmp_path, monkeypatch):
    # k-NN screen blocks of 7 of the 60 queries, each scored in three tiles
    # of the 800-row database, run on one or two threads, and one block of
    # all 60 in one tile gives the same bytes
    argv = ["eval", *ENV_FLAGS, "--estimator", f"knn:{workspace / 'db' / 'dataset.csv'},k=5",
            "--testset", str(workspace / "test" / "dataset.csv"), "--out", str(tmp_path / "o")]
    runs = []
    for cpus, block, tile_bytes in ((1, 7, 8), (2, 7, 8), (2, 60, 60 * 8 * 800)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)), raising=False)
        monkeypatch.setattr(estimator_module, "SCREEN_QUERIES", block)
        monkeypatch.setattr(estimator_module, "SCREEN_TILE_BYTES", tile_bytes)
        assert main(argv) == 0
        runs.append({p.name: read(p) for p in (tmp_path / "o").iterdir()})
    assert runs[0] == runs[1] == runs[2]
    assert set(runs[0]) == {"metrics.json", "table.txt"}


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
    out = tmp_path / "w"
    assert main(["walk", *ENV_FLAGS, "--steps", "2000", "--seed", "8", "--out", str(out)]) == 0
    env = bundled_environment("apartment")
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
    history = list(read_lines(out / "history.csv"))
    assert history[-1].split(",")[0] == "1000"
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


@pytest.mark.filterwarnings("error::RuntimeWarning")  # train keeps numpy's warnings to itself
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


def test_eval_ablation_below_k_fails_before_evaluating(workspace, tmp_path, monkeypatch, capsys):
    _fail_if_evaluated(monkeypatch)
    rc = main(["eval", *ENV_FLAGS, "--estimator", f"knn:{workspace / 'db' / 'dataset.csv'},k=5",
               "--testset", str(workspace / "test" / "dataset.csv"),
               "--ablate", "sizes=100,3", "--out", str(tmp_path / "e")])
    assert rc == 2
    assert capsys.readouterr().err == "neuromap: input error: k=5 exceeds database size 3\n"
    assert not (tmp_path / "e" / "metrics.json").exists()


def test_eval_repeated_ablation_size_is_evaluated_once(workspace, tmp_path, monkeypatch):
    evaluate, calls = cli.evaluate, []

    def counted(estimator, *rest):
        calls.append(len(estimator.db))
        return evaluate(estimator, *rest)

    monkeypatch.setattr(cli, "evaluate", counted)
    runs = []
    for sizes in ("sizes=100,400", "sizes=100,400,100,400"):
        calls.clear()
        assert main(["eval", *ENV_FLAGS, "--estimator", f"knn:{workspace / 'db' / 'dataset.csv'},k=3",
                     "--testset", str(workspace / "test" / "dataset.csv"),
                     "--ablate", sizes, "--out", str(tmp_path / "e")]) == 0
        assert calls == [800, 100, 400]
        out = tmp_path / "e"
        table = [s for s in (out / "table.txt").read_text().splitlines() if "--ablate" not in s]
        runs.append((json.loads((out / "metrics.json").read_text())["metrics"], table))
    assert runs[0] == runs[1]  # all but the invocation line


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


def _moved(dataset, out, field, value):
    """A copy of ``dataset`` whose row 1 has its x (field 1) or y (field 2)
    set to ``value``; the file stays well formed."""
    out.write_text(_replace_field(Path(dataset).read_text(), 3, field, value))
    return out


def _outside(what, x, y, world="b"):
    """The refusal of row 1 at (x, y), outside the 8 x 8 m apartment."""
    return (f"neuromap: input error: {what} row 1 at ({x}, {y}) lies outside world "
            f"'{world}': x [0.0, 8.0], y [0.0, 8.0]\n")


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
    assert capsys.readouterr().err == "neuromap: input error: estimator belongs to world 'a', not 'b'\n"
    # b's own database with one pose moved out of the world
    db = load_dataset(two_worlds / "b" / "dataset.csv")
    far = _moved(two_worlds / "b" / "dataset.csv", tmp_path / "far.csv", 1, "-1000")
    rc = main([command, "--env", str(two_worlds / "b.grid"), "--rays", "16",
               "--estimator", f"knn:{far}", *argv, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == _outside("estimator", -1000.0, db.poses_matrix()[1, 1])


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
    assert "estimator sensor SensorConfig(fov=90.0" in err and err.count("\n") == 1


def test_eval_testset_from_another_world_is_input_error(two_worlds, tmp_path, capsys):
    rc = main(["eval", "--env", str(two_worlds / "b.grid"), "--rays", "16",
               "--estimator", f"knn:{two_worlds / 'b' / 'dataset.csv'}",
               "--testset", str(two_worlds / "a" / "dataset.csv"), "--out", str(tmp_path / "e")])
    assert rc == 2
    assert capsys.readouterr().err == "neuromap: input error: test set belongs to world 'a', not 'b'\n"
    assert not (tmp_path / "e" / "metrics.json").exists()
    # b's own test set with one pose moved out of the world
    test = load_dataset(two_worlds / "b" / "dataset.csv")
    far = _moved(two_worlds / "b" / "dataset.csv", tmp_path / "far.csv", 1, "-1000")
    rc = main(["eval", "--env", str(two_worlds / "b.grid"), "--rays", "16",
               "--estimator", "knn:" + str(two_worlds / "b" / "dataset.csv") + ",k=1",
               "--testset", str(far), "--out", str(tmp_path / "e")])
    assert rc == 2
    assert capsys.readouterr().err == _outside("test set", -1000.0, test.poses_matrix()[1, 1])
    assert not (tmp_path / "e" / "metrics.json").exists()


@pytest.mark.parametrize("key, value, why", [
    ("env_name", "", "env_name must be a non-empty string, got ''"),
    ("sensor", None, "bad header field: sensor must be an object, got None"),
    ("sensor", {"fov": 360.0, "ray_count": 8, "max_range": 12.0},
     "sensor casts 8 rays, the model takes 16"),
    ("yaw_mode", [], "unknown yaw_mode []"),
], ids=["empty-env-name", "null-sensor", "input-width", "list-yaw-mode"])
def test_model_that_does_not_name_its_world_is_input_error(two_worlds, tmp_path, capsys,
                                                           key, value, why):
    # a model trained in 'a' whose header is edited; 'a' is the world it is scored in
    path = tmp_path / "m.model"
    sensor = SensorConfig(fov=360.0, ray_count=16, max_range=12.0)
    save_model(RegressorModel.zeros((16, 4, 3), env_name="a", sensor=sensor), path)
    magic, header, *tensors = path.read_text().splitlines()
    path.write_text("\n".join([magic, json.dumps({**json.loads(header), key: value}), *tensors]) + "\n")
    rc = main(["eval", "--env", str(two_worlds / "a.grid"), "--rays", "16",
               "--estimator", f"model:{path}", "--testset", str(two_worlds / "a" / "dataset.csv"),
               "--out", str(tmp_path / "e")])
    assert rc == 2
    assert capsys.readouterr().err == f"neuromap: input error: {path}: line 2: {why}\n"
    assert not (tmp_path / "e" / "metrics.json").exists()


def test_plot_dataset_from_another_world_is_input_error(two_worlds, tmp_path, capsys):
    rc = main(["plot", "--env", str(two_worlds / "b.grid"), "--rays", "16",
               "--dataset", str(two_worlds / "a" / "dataset.csv"), "--out", str(tmp_path / "p")])
    assert rc == 2
    assert capsys.readouterr().err == "neuromap: input error: dataset belongs to world 'a', not 'b'\n"
    assert not (tmp_path / "p" / "coverage.svg").exists()
    # b's own dataset with one pose moved out of the world
    data = load_dataset(two_worlds / "b" / "dataset.csv")
    far = _moved(two_worlds / "b" / "dataset.csv", tmp_path / "far.csv", 2, "1e6")
    rc = main(["plot", "--env", str(two_worlds / "b.grid"), "--rays", "16",
               "--dataset", str(far), "--out", str(tmp_path / "p")])
    assert rc == 2
    assert capsys.readouterr().err == _outside("dataset", data.poses_matrix()[1, 0], 1000000.0)
    assert not (tmp_path / "p" / "coverage.svg").exists()


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


def test_a_tiny_fov_prints_no_warning(tmp_path, capsys):
    # rays whose direction component is subnormal overflow to the inf that
    # the raycast wants; no RuntimeWarning may reach stderr on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["navigate", "--env", "apartment", "--estimator", "oracle",
                     "--waypoints", "apartment_loop", "--start", "1.5,1.5,0",
                     "--fov", "1e-320", "--out", str(tmp_path / "n")]) == 0
    assert capsys.readouterr().err == ""


def test_navigate_abort_exit_code_and_trace(tmp_path):
    out = tmp_path / "n"
    rc = main(["navigate", "--env", "apartment", "--estimator", "external:/bin/false",
               "--waypoints", "apartment_loop", "--start", "1.5,1.5,0", "--out", str(out)])
    assert rc == 3
    report = json.loads((out / "report.json").read_text())
    assert report["success"] is False
    assert report["abort_reason"] == "estimator-failure"
    assert (out / "trace.csv").exists()  # retained up to the abort


def _nan_model(path):
    """A 16-ray apartment model file with finite parameters whose every
    output is NaN: the hidden layer overflows to inf, and the head
    subtracts inf from inf."""
    sensor = SensorConfig(fov=360.0, ray_count=16, max_range=12.0)
    model = RegressorModel.zeros((16, 2, 3), env_name="apartment", sensor=sensor)
    model.weights[0][:] = 1e308
    model.weights[1][:] = [1e300, -1e300]
    save_model(model, path)
    return f"model:{path}"


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow warns nothing
def test_eval_non_finite_model_output_is_runtime_abort(workspace, tmp_path, capsys):
    out = tmp_path / "e"
    rc = main(["eval", *ENV_FLAGS, "--estimator", _nan_model(tmp_path / "nan.model"),
               "--testset", str(workspace / "test" / "dataset.csv"), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "neuromap: runtime abort: estimate for observation 0 is not finite: [nan, nan, nan]\n"
    assert not (out / "metrics.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_navigate_non_finite_model_output_aborts_estimator_failure(tmp_path, capsys):
    out = tmp_path / "n"
    rc = main(["navigate", *ENV_FLAGS, "--estimator", _nan_model(tmp_path / "nan.model"),
               "--waypoints", "apartment_loop", "--start", "1.5,1.5,0", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == "neuromap: runtime abort: estimator-failure\n"
    assert json.loads((out / "report.json").read_text())["abort_reason"] == "estimator-failure"
    assert (out / "trace.csv").exists()


@pytest.mark.parametrize("command", ["eval", "navigate"])
@pytest.mark.parametrize("name", ["sigma_pos", "sigma_theta"])
def test_oracle_sigma_whose_ten_sigma_draw_overflows_is_input_error(
    workspace, tmp_path, capsys, command, name
):
    spec = f"oracle:{name}=1e308,seed=3"
    argv = {
        "eval": ["eval", *ENV_FLAGS, "--estimator", spec,
                 "--testset", str(workspace / "test" / "dataset.csv")],
        "navigate": ["navigate", "--env", "apartment", "--estimator", spec,
                     "--waypoints", "apartment_loop", "--start", "1.5,1.5,0"],
    }[command]
    err = _refused(capsys, argv, tmp_path / "o")
    assert err == f"neuromap: input error: {name} = 1e+308: a 10-sigma draw overflows\n"


@pytest.mark.parametrize("command, key, value", [
    ("eval", "estimator", "oracle:sigma_pos=%s,seed=3"),
    ("eval", "estimator", "oracle:sigma_theta=%s,seed=3"),
    ("navigate", "estimator", "oracle:sigma_pos=%s,seed=3"),
    ("navigate", "estimator", "oracle:sigma_theta=%s,seed=3"),
    ("navigate", "odo_lin", "%s"),
    ("navigate", "odo_ang", "%s"),
])
def test_a_noise_setting_of_negative_zero_runs_as_zero(workspace, tmp_path, command, key, value):
    # numpy's normal refuses a scale whose sign bit is set. One config file
    # path keeps the invocation, and so the provenance, the same; eval's
    # outputs also name the estimator by its spec
    base = {"eval": ["--testset", str(workspace / "test" / "dataset.csv")],
            "navigate": ["--waypoints", "apartment_loop", "--start", "1.5,1.5,0"]}[command]
    cfg, out = tmp_path / "run.json", tmp_path / "o"
    runs = []
    for zero in ("-0", "0"):
        setting = value % zero
        config = {"estimator": setting} if key == "estimator" else {"estimator": "oracle",
                                                                    key: float(setting)}
        cfg.write_text(json.dumps(config))
        assert main([command, *ENV_FLAGS, *base, "--config", str(cfg), "--out", str(out)]) == 0
        name = setting.encode() if key == "estimator" else b"\0"
        runs.append({p.name: read(p).replace(name, b"SPEC") for p in out.iterdir()})
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command, spec", [
    ("eval", "knn:{db},k=1e400"),
    ("navigate", "oracle:seed=x"),
])
def test_a_bad_estimator_spec_creates_no_out(workspace, tmp_path, capsys, command, spec):
    base = {"eval": ["--testset", str(workspace / "test" / "dataset.csv")],
            "navigate": ["--waypoints", "apartment_loop", "--start", "1.5,1.5,0"]}[command]
    estimator = spec.format(db=workspace / "db" / "dataset.csv")
    err = _refused(capsys, [command, *ENV_FLAGS, *base, "--estimator", estimator], tmp_path / "o")
    assert err.startswith("neuromap: usage error: bad value for estimator option")


NAVIGATE_LOOP = ["navigate", "--env", "apartment", "--estimator", "oracle",
                 "--waypoints", "apartment_loop"]


NAVIGATE_TURN = [*NAVIGATE_LOOP, "--start", "1.5,1.5,180"]


def _overflow(name, step, sigma):
    return (f"neuromap: input error: {name} = {step} per tick, noise sigma {sigma}: "
            "the sum over max_ticks=100000 ticks overflows")


@pytest.mark.parametrize("argv, rc, line", [
    (["walk", "--env", "apartment", "--step-len", "1e308", "--steps", "5"], 0,
     "walk: 5 steps, 5 captures in apartment"),
    ([*NAVIGATE_LOOP, "--start", "1.5,1.5,0", "--linear-speed", "1e308", "--max-ticks", "2"], 3,
     "neuromap: runtime abort: collision"),
    ([*NAVIGATE_LOOP, "--start", "1.5,1.5,0", "--dt", "5e307", "--angular-speed", "1",
      "--max-ticks", "2"], 3,
     "neuromap: runtime abort: collision"),
    ([*NAVIGATE_LOOP, "--start", "1e308,1.5,0"], 2,
     "neuromap: input error: start pose is not footprint-free"),
    ([*NAVIGATE_TURN, "--dt", "1e307"], 2, _overflow("angular_speed * dt", "inf", "0.5")),
    ([*NAVIGATE_TURN, "--angular-speed", "1e308", "--dt", "10"], 2,
     _overflow("angular_speed * dt", "inf", "0.5")),
    ([*NAVIGATE_TURN, "--odo-ang", "1e308"], 2, _overflow("angular_speed * dt", "3.0", "1e+308")),
    ([*NAVIGATE_LOOP, "--start", "1.5,1.5,0", "--linear-speed", "1e308"], 2,
     _overflow("linear_speed * dt", "1.0000000000000001e+307", "1.0000000000000001e+305")),
    ([*NAVIGATE_TURN, "--dt", "1e300"], 3, "neuromap: runtime abort: tick-budget"),
], ids=["walk-step-len", "navigate-linear-speed", "navigate-dt", "navigate-start",
        "navigate-dt-overflow", "navigate-angular-speed-overflow", "navigate-odo-ang-overflow",
        "navigate-linear-speed-overflow", "navigate-dt-1e300"])
def test_positions_far_outside_the_world_are_not_free(tmp_path, capsys, argv, rc, line):
    # finite but huge settings. The first four move or start the robot
    # 1e307 m or more away, where the cell coordinate overflows to inf: the
    # point is not free, so the step is blocked or the start refused (a
    # two-tick budget keeps their summed steps finite). The next four sum
    # per-tick steps or odometry noise to inf over the tick budget and are
    # refused before the run; at dt = 1e300 the sums stay finite and the
    # robot turns in place until the budget runs out.
    assert main([*argv, "--out", str(tmp_path / "o")]) == rc
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert (out if rc == 0 else err).splitlines()[-1:] == [line]
    assert err.count("\n") == (rc != 0)


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
    assert not (tmp_path / "p").exists()
    rc = main(["plot", *ENV_FLAGS, "--dataset", str(workspace / "test" / "dataset.csv"),
               "--trace", str(workspace / "test" / "dataset.csv"), "--out", str(tmp_path / "p")])
    assert rc == 1


def test_plot_refuses_waypoints_without_a_trace(workspace, tmp_path, capsys):
    # a coverage plot draws no route, so the option would be ignored
    rc = main(["plot", *ENV_FLAGS, "--dataset", str(workspace / "test" / "dataset.csv"),
               "--waypoints", "apartment_loop", "--out", str(tmp_path / "p")])
    assert rc == 1
    assert capsys.readouterr().err == "neuromap: usage error: plot draws --waypoints only with --trace\n"
    assert not (tmp_path / "p").exists()


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

    env = bundled_environment("apartment")
    env = type(env)(env.name, env.grid, SensorConfig(fov=360.0, ray_count=16, max_range=12.0))
    frames = generate_dataset(env, 40, seed=2).ranges_matrix()

    # best of 5 passes: with cheap queries one pass is mostly fixed
    # per-call overhead, so a single timing is at the mercy of noise
    estimators = {"fast": KnnEstimator(small), "slow": KnnEstimator(large)}
    best = dict.fromkeys(estimators, float("inf"))
    for _ in range(5):
        for name, est in estimators.items():
            t0 = time.perf_counter()
            for i in range(len(frames)):  # one query per call
                est.estimate(frames[i : i + 1])
            best[name] = min(best[name], time.perf_counter() - t0)
    fast, slow = (len(frames) / best[name] for name in ("fast", "slow"))
    assert slow < fast


# --- spec strings and option plumbing ----------------------------------------------


def test_build_estimator_specs(workspace):
    env = bundled_environment("apartment")
    env = type(env)(env.name, env.grid, SensorConfig(fov=360.0, ray_count=16, max_range=12.0))
    oracle = build_estimator("oracle:sigma_pos=0.1,seed=3", env)
    assert isinstance(oracle, OracleEstimator)
    assert oracle.cfg.sigma_pos == 0.1 and oracle.cfg.seed == 3
    knn = build_estimator(f"knn:{workspace / 'db' / 'dataset.csv'},k=7,weighting=uniform", env)
    assert isinstance(knn, KnnEstimator)
    assert knn.cfg.k == 7 and knn.cfg.weighting == "uniform"


@pytest.mark.parametrize("kind", ["oracle", "knn", "model", "external"])
def test_every_estimator_spec_follows_the_protocol(workspace, tmp_path, kind):
    env = bundled_environment("apartment")
    env = type(env)(env.name, env.grid, SensorConfig(fov=360.0, ray_count=16, max_range=12.0))
    model = tmp_path / "m.model"
    save_model(RegressorModel.zeros((16, 3), env_name=env.name, sensor=env.sensor), model)
    spec = {
        "oracle": "oracle:sigma_pos=0.1,seed=3",
        "knn": f"knn:{workspace / 'db' / 'dataset.csv'}",
        "model": f"model:{model}",
        "external": f"external:{sys.executable} {STUB}",
    }[kind]
    test = load_dataset(workspace / "test" / "dataset.csv")
    with build_estimator(spec, env) as est:
        assert isinstance(est, Estimator)
        assert (est.env_name, est.sensor) == (env.name, env.sensor)
        poses = est.estimate(test.ranges_matrix()[:3], test.poses_matrix()[:3])
        assert poses.dtype == np.float64 and poses.shape == (3, 3)
        assert np.isfinite(poses).all() and np.all((-180.0 < poses[:, 2]) & (poses[:, 2] <= 180.0))


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


# --- the option table ----------------------------------------------------------------

# every numeric option, stated apart from the CLI: (int options, real-valued options)
NUMERIC_OPTIONS = {
    "gen": ("seed n rays", "fov max_range"),
    "walk": ("seed steps rays", "fov max_range capture_dist capture_rot step_len clearance"),
    "train": ("seed rays iterations eval_interval batch_size",
              "fov max_range lr0 weight_decay val_fraction"),
    "eval": ("seed rays", "fov max_range"),
    "navigate": ("seed rays max_ticks", "fov max_range td ta max_step linear_speed "
                 "angular_speed dt footprint leg_tolerance odo_lin odo_ang"),
    "plot": ("seed rays", "fov max_range"),
    "bench": ("seed rays frames repeats", "fov max_range"),
}


# each command's options, stated apart from the library configs that most of
# them are read from
FLAGS = {command: set(("env out seed fov rays max_range " + names).split()) for command, names in {
    "gen": "n",
    "walk": "steps capture_dist capture_rot step_len clearance",
    "train": "dataset iterations eval_interval batch_size lr0 weight_decay decay_mode hidden "
             "val_fraction yaw_mode loss",
    "eval": "estimator testset ablate",
    "navigate": "estimator waypoints start td ta max_step linear_speed angular_speed dt max_ticks "
                "footprint leg_tolerance odo_lin odo_ang",
    "plot": "dataset trace waypoints",
    "bench": "estimator frames repeats",
}.items()}

# the library config fields whose option is named otherwise
RENAMED = {"max_steps": "steps", "clearance_radius": "clearance", "max_iterations": "iterations",
           "hidden_dims": "hidden", "T_d": "td", "T_a": "ta", "footprint_radius": "footprint",
           "sigma_lin_frac": "odo_lin", "sigma_ang_per_step": "odo_ang"}
# a value other than the default for each string field
OTHER_STRINGS = {"decay_mode": DECAY_PER_INTERVAL, "yaw_mode": YAW_SINCOS, "loss": "l2",
                 "weighting": "uniform"}


def _other_value(field):
    """A valid value of ``field`` other than its default."""
    default = field.default
    if isinstance(default, str):
        return OTHER_STRINGS[field.name]
    if isinstance(default, tuple):
        return (8, 8)
    if isinstance(default, int):
        return default + 1
    return 2.0 * default if default else 0.25


def test_each_command_keeps_its_options():
    assert {command: set(spec[1]) for command, spec in COMMANDS.items()} == FLAGS


class _Built(Exception):
    pass


@pytest.mark.parametrize("cls, command, runner", [
    (WalkConfig, "walk", "random_walk_capture"),
    (TrainConfig, "train", "train"),
    (NavConfig, "navigate", "navigate_waypoints"),
    (OdometryConfig, "navigate", "navigate_waypoints"),
], ids=["walk", "train", "nav", "odometry"])
def test_every_config_field_is_an_option_with_its_default(workspace, monkeypatch, cls, command,
                                                          runner):
    options, argv, expected = COMMANDS[command][1], _valid_runs(workspace)[command], {}
    for field in dataclasses.fields(cls):
        flag = RENAMED.get(field.name, field.name)
        assert flag in options and options[flag] == field.default, (cls.__name__, field.name)
        value = expected[field.name] = _other_value(field)
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        argv = [*argv, "--" + flag.replace("_", "-"), text]
    built = []

    def capture(*args, **kwargs):
        built.extend(a for a in args if isinstance(a, cls))
        raise _Built

    monkeypatch.setattr(cli, runner, capture)
    with pytest.raises(_Built):
        main([command, *argv, "--out", str(workspace / "unused")])
    assert [dataclasses.asdict(c) for c in built] == [expected]


@pytest.mark.parametrize("cls, kind", [(OracleConfig, "oracle:"), (KnnConfig, "knn:{db},")],
                         ids=["oracle", "knn"])
def test_every_spec_config_field_is_a_spec_key(workspace, cls, kind):
    env = bundled_environment("apartment")
    env = type(env)(env.name, env.grid, SensorConfig(fov=360.0, ray_count=16, max_range=12.0))
    kind = kind.format(db=workspace / "db" / "dataset.csv")
    expected = {f.name: _other_value(f) for f in dataclasses.fields(cls)}
    with build_estimator(kind.rstrip(":,"), env) as estimator:
        assert estimator.cfg == cls()
    spec = kind + ",".join(f"{key}={value}" for key, value in expected.items())
    with build_estimator(spec, env) as estimator:
        assert dataclasses.asdict(estimator.cfg) == expected


@pytest.mark.parametrize("command", sorted(NUMERIC_OPTIONS))
def test_option_types(command):
    from neuromap.cli import COMMANDS, UsageError, _build_parser

    ints, reals = (set(names.split()) for names in NUMERIC_OPTIONS[command])
    for key in COMMANDS[command][1]:
        flag = "--" + key.replace("_", "-")
        if key in ints:
            with pytest.raises(UsageError):
                _build_parser().parse_args([command, flag, "0.5"])
            continue
        value = getattr(_build_parser().parse_args([command, flag, "0.5"]), key)
        assert value == (0.5 if key in reals else "0.5"), key
        assert type(value) is (float if key in reals else str), key


@pytest.mark.parametrize("command", sorted(NUMERIC_OPTIONS))
def test_numeric_options_refuse_non_numbers(tmp_path, capsys, command):
    cfg = tmp_path / "run.json"
    for key in " ".join(NUMERIC_OPTIONS[command]).split():
        assert main([command, "--" + key.replace("_", "-"), "abc"]) == 1, key
        capsys.readouterr()
        cfg.write_text(json.dumps({key: "abc"}))
        assert main([command, "--config", str(cfg)]) == 2, key
        assert f"option {key!r} must be of type" in capsys.readouterr().err


# a run of each command that succeeds; an option appended after it overrides
# its value there, as argparse keeps the last one
def _valid_runs(workspace):
    test = str(workspace / "test" / "dataset.csv")
    return {
        "gen": [*ENV_FLAGS, "--n", "5"],
        "walk": [*ENV_FLAGS, "--steps", "5"],
        "train": [*ENV_FLAGS, "--dataset", test, "--iterations", "2", "--eval-interval", "1",
                  "--hidden", "4"],
        "eval": [*ENV_FLAGS, "--estimator", "oracle", "--testset", test],
        "navigate": [*ENV_FLAGS, "--estimator", "oracle", "--waypoints", "apartment_loop",
                     "--start", "1.5,1.5,0"],
        "plot": [*ENV_FLAGS, "--dataset", test],
        "bench": [*ENV_FLAGS, "--estimator", "oracle", "--frames", "2", "--repeats", "1"],
    }


# options whose library config takes 0, so their invalid edge is -1
ZERO_ALLOWED = {"seed", "steps", "weight_decay", "footprint", "odo_lin", "odo_ang"}


def _refused(capsys, argv, out):
    """main(argv) refuses: exit 1 or 2, one stderr line, and no ``out``."""
    rc = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc in (1, 2) and len(err.splitlines()) == 1 and "Traceback" not in err, (argv, rc, err)
    assert not out.exists(), (argv, rc)
    return err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_numeric_option_refuses_its_invalid_values(workspace, tmp_path, capsys, command):
    base = _valid_runs(workspace)[command]
    assert main([command, *base, "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    for key, default in COMMANDS[command][1].items():
        edge = "-1" if key in ZERO_ALLOWED else "0"
        kind = _flag_type(key, default)
        values = {int: [edge], float: ["nan", "inf", "-inf", edge]}.get(kind, [])
        for value in values:
            flag = "--" + key.replace("_", "-")
            _refused(capsys, [command, *base, flag, value], tmp_path / f"{key}{value}")


@pytest.mark.parametrize("argv, why", [
    (["gen", "--env", "{tmp}/full.grid", "--n", "5"],
     "no free pose with clearance 0.0 in 'full': no room"),
    (["walk", "--env", "{tmp}/full.grid", "--steps", "5"],
     f"no free pose with clearance {WalkConfig.clearance_radius} in 'full': no room"),
    (["train", "--env", "{b}", "--rays", "16", "--dataset", "{a_data}", "--iterations", "2"],
     "dataset belongs to world 'a', not 'b'"),
    (["eval", "--env", "{b}", "--rays", "16", "--estimator", "oracle", "--testset", "{a_data}"],
     "test set belongs to world 'a', not 'b'"),
    (["plot", "--env", "{b}", "--rays", "16", "--dataset", "{a_data}"],
     "dataset belongs to world 'a', not 'b'"),
    (["navigate", "--env", "apartment", "--estimator", "oracle", "--waypoints", "apartment_loop",
      "--start", "4,4,0"],  # on the central island
     "start pose is not footprint-free"),
], ids=["gen-full-grid", "walk-full-grid", "train-other-world", "eval-other-world",
        "plot-other-world", "navigate-blocked-start"])
def test_a_run_refused_while_working_creates_no_out(two_worlds, tmp_path, capsys, argv, why):
    # each refusal is found by the command's work, not by the options
    (tmp_path / "full.grid").write_text("4 4 1.0 0.0 0.0\n" + "####\n" * 4)
    paths = {"tmp": tmp_path, "b": two_worlds / "b.grid", "a_data": two_worlds / "a" / "dataset.csv"}
    err = _refused(capsys, [a.format(**paths) for a in argv], tmp_path / "o")
    assert err == f"neuromap: input error: {why}\n"


def test_a_td_below_heading_eps_is_refused(tmp_path, capsys):
    # a waypoint 5e-10 m from the start: with T_d = 1e-10 the run would ask
    # heading() for a bearing it refuses, so NavConfig refuses the T_d
    waypoints = tmp_path / "wp.txt"
    waypoints.write_text("1.5000000005,1.5\n")
    argv = ["navigate", "--env", "apartment", "--estimator", "oracle", "--waypoints", str(waypoints),
            "--start", "1.5,1.5,0", "--td", "1e-10"]
    err = _refused(capsys, argv, tmp_path / "o")
    assert err == f"neuromap: input error: T_d must be >= {HEADING_EPS}, got 1e-10\n"


@pytest.mark.parametrize("argv, out", [
    (["gen", "--env", "cabin", "--n", "20000"], "afile"),
    (["gen", "--env", "cabin", "--n", "20000"], "afile/sub"),
    (["train", "--env", "cabin", "--dataset", "{afile}"], "afile"),
], ids=["gen-file", "gen-under-file", "train-file"])
def test_an_out_that_is_a_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, out):
    def no_work(*args, **kwargs):
        raise AssertionError("the run's work started")

    monkeypatch.setattr(cli, "generate_dataset", no_work)
    monkeypatch.setattr(cli, "train", no_work)
    afile = tmp_path / "afile"
    afile.write_bytes(b"not a directory\n")
    argv = [a.format(afile=afile) for a in argv]
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == (
        f"neuromap: input error: --out {tmp_path / out}: {afile} is not a directory\n")
    assert afile.read_bytes() == b"not a directory\n"
    assert list(tmp_path.iterdir()) == [afile]


# every option a command cannot run without, stated apart from the CLI
REQUIRED = [
    ("gen", "env"), ("gen", "out"), ("walk", "env"), ("walk", "out"),
    ("train", "env"), ("train", "out"), ("train", "dataset"),
    ("eval", "env"), ("eval", "out"), ("eval", "estimator"), ("eval", "testset"),
    ("navigate", "env"), ("navigate", "out"), ("navigate", "estimator"),
    ("navigate", "waypoints"), ("navigate", "start"),
    ("plot", "env"), ("plot", "out"), ("bench", "env"), ("bench", "estimator"),
]


@pytest.mark.parametrize("command, key", REQUIRED)
def test_missing_required_option_is_one_usage_line(workspace, tmp_path, capsys, command, key):
    flag = "--" + key
    argv = [command, *_valid_runs(workspace)[command], "--out", str(tmp_path / "o")]
    i = argv.index(flag)
    del argv[i:i + 2]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"neuromap: usage error: {flag} is required\n"
    assert list(tmp_path.iterdir()) == []


def test_config_file_can_supply_a_required_option(workspace, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"estimator": "oracle"}))
    out = tmp_path / "e"
    assert main(["eval", *ENV_FLAGS, "--config", str(cfg),
                 "--testset", str(workspace / "test" / "dataset.csv"), "--out", str(out)]) == 0
    assert (out / "metrics.json").is_file()


@pytest.mark.parametrize("key, argv", [
    ("testset", ["eval", "--env", "cabin", "--estimator", "oracle", "--testset", "cabin"]),
    ("waypoints", ["navigate", "--env", "apartment", "--estimator", "oracle",
                   "--waypoints", "cabin", "--start", "1.5,1.5,0"]),
    ("env", ["gen", "--env", "apartment_loop"]),
], ids=["testset-cabin", "waypoints-cabin", "env-apartment_loop"])
def test_bundled_name_is_a_file_only_for_its_own_option(tmp_path, capsys, key, argv):
    # a world name is a grid file only for --env, a route name a waypoint
    # file only for --waypoints; anywhere else it is a path like any other
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    value = argv[argv.index("--" + key) + 1]
    assert capsys.readouterr().err == f"neuromap: input error: {key}: no such file: {value}\n"
    assert not out.exists()


def _good_files(workspace, tmp_path):
    """One valid file of each format, and the command line that reads it."""
    rng = np.random.default_rng(3)
    sensor = SensorConfig(fov=360.0, ray_count=16, max_range=12.0)
    save_model(RegressorModel.random((16, 4, 3), rng, env_name="apartment", sensor=sensor),
               tmp_path / "good.model")
    test = str(workspace / "test" / "dataset.csv")
    trace = (
        "# tool: neuromap\n"
        "tick,time,true_x,true_y,true_theta,est_x,est_y,est_theta,waypoint_idx,event\n"
        "0,0.0,1.5,1.5,0.0,1.5,1.5,0.0,0,estimate\n"
        "1,0.1,1.5,1.5,3.0,1.5,1.5,0.0,0,rotate\n"
    )
    return {
        "dataset": (read(test), lambda p: ["plot", *ENV_FLAGS, "--dataset", p]),
        "model": (read(tmp_path / "good.model"),
                  lambda p: ["eval", *ENV_FLAGS, "--estimator", f"model:{p}", "--testset", test]),
        "grid": (grid_text(bundled_environment("apartment").grid).encode(),
                 lambda p: ["gen", "--env", p, "--n", "5"]),
        "trace": (trace.encode(), lambda p: ["plot", "--env", "apartment", "--trace", p]),
        "waypoints": (b"# loop\n4.0,1.3\n6.5,1.5\n",
                      lambda p: ["navigate", "--env", "apartment", "--estimator", "oracle",
                                 "--waypoints", p, "--start", "1.5,1.5,0"]),
    }


def _replace_field(text, line, field, value, sep=","):
    lines = text.split("\n")
    parts = lines[line].split(sep)
    if value is None:
        del parts[field]
    else:
        parts[field] = value
    lines[line] = sep.join(parts)
    return "\n".join(lines)


# per format: a wrong magic or header, a non-finite value, a wrong column
# count, and any refusal of that format alone, each a function of the valid text
MALFORMED = {
    "dataset": {
        "header": lambda t: t.replace("v1", "v2", 1),
        "nan": lambda t: _replace_field(t, 4, 6, "nan"),
        "columns": lambda t: _replace_field(t, 4, 6, None),
        "ray-count": lambda t: t.replace('"ray_count": 16', '"ray_count": 1000000000', 1),
    },
    "model": {
        "header": lambda t: t.replace("v1", "v0", 1),
        "nan": lambda t: _replace_field(t, 2, 3, "nan", " "),
        "columns": lambda t: _replace_field(t, 2, 3, None, " "),
    },
    "grid": {
        "header": lambda t: _replace_field(t, 0, 4, None, " "),
        "nan": lambda t: _replace_field(t, 0, 3, "nan", " "),
        "columns": lambda t: t.replace("\n.", "\n", 1),  # the first row one cell short
    },
    "trace": {
        "header": lambda t: t.replace("tick,time", "tick,times", 1),
        "nan": lambda t: _replace_field(t, 3, 2, "nan"),
        "columns": lambda t: _replace_field(t, 3, 9, None),
        "partial-estimate": lambda t: _replace_field(t, 2, 5, ""),  # est_x blank only
    },
    "waypoints": {
        "header": lambda t: "x,y\n" + t,
        "nan": lambda t: _replace_field(t, 2, 1, "nan"),
        "columns": lambda t: _replace_field(t, 2, 1, "1.5,0.0"),
    },
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_files_are_input_errors_naming_the_path(workspace, tmp_path, capsys, kind):
    good, command = _good_files(workspace, tmp_path)[kind]
    path = tmp_path / f"good.{kind}"
    path.write_bytes(good)
    assert main([*command(str(path)), "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    text = good.decode()
    cases = {
        "empty": b"",
        "truncated": good[: len(good) // 2],
        "0xff": good.replace(b"\n", b"\n\xff", 2),
        **{name: make(text).encode() for name, make in MALFORMED[kind].items()},
    }
    for name, data in cases.items():
        bad = tmp_path / f"{name}.{kind}"
        bad.write_bytes(data)
        err = _refused(capsys, command(str(bad)), tmp_path / name)
        assert err.startswith("neuromap: input error: ") and str(bad) in err, (name, err)
    folder = tmp_path / f"folder.{kind}"
    folder.mkdir()
    err = _refused(capsys, command(str(folder)), tmp_path / "folder")
    assert err.startswith("neuromap: input error: ") and str(folder) in err


def _capture_call(monkeypatch, name):
    """Replace the library call ``name`` bound in the CLI by one that records
    its arguments and aborts the run."""
    from neuromap import cli

    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        raise cli.RuntimeAbort("captured")

    monkeypatch.setattr(cli, name, record)
    return calls


def test_command_defaults_are_the_library_defaults(workspace, tmp_path, monkeypatch):
    from neuromap.navigate import NavConfig, OdometryConfig
    from neuromap.training import TrainConfig

    calls = _capture_call(monkeypatch, "random_walk_capture")
    assert main(["walk", "--env", "apartment", "--out", str(tmp_path / "w")]) == 3
    assert calls[0][1] == WalkConfig()

    calls = _capture_call(monkeypatch, "train")
    assert main(["train", *ENV_FLAGS, "--dataset", str(workspace / "db" / "dataset.csv"),
                 "--out", str(tmp_path / "t")]) == 3
    assert calls[0][2] == TrainConfig()

    calls = _capture_call(monkeypatch, "navigate_waypoints")
    assert main(["navigate", "--env", "apartment", "--estimator", "oracle",
                 "--waypoints", "apartment_loop", "--start", "1.5,1.5,0",
                 "--out", str(tmp_path / "n")]) == 3
    assert calls[0][4:] == (NavConfig(), OdometryConfig())


@pytest.mark.parametrize("argv, occupied, clearance", [
    (["gen", "--n", "5"], True, 0.0),
    (["walk", "--clearance", "0.5"], True, 0.5),
    (["walk", "--clearance", "2.5"], False, 2.5),
], ids=["gen-occupied", "walk-occupied", "walk-too-narrow"])
def test_world_without_room_fails_fast(tmp_path, capsys, argv, occupied, clearance):
    # a fully occupied grid, or a 4 m world too narrow for a 5 m footprint:
    # the first rejected pose ends the run, not 10^6 more draws
    from neuromap.world import EnvironmentSpec, OccupancyGrid

    grid = OccupancyGrid(4, 4, 1.0, 0.0, 0.0, np.full((4, 4), occupied))
    save_environment(EnvironmentSpec("blocked", grid), tmp_path / "blocked.grid")
    t0 = time.perf_counter()
    rc = main([*argv, "--env", str(tmp_path / "blocked.grid"), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert capsys.readouterr().err == (
        f"neuromap: input error: no free pose with clearance {clearance} in 'blocked': no room\n"
    )


# every size here makes an array of more bytes than an intp holds, which no
# host could allocate: the refusal must come before numpy is asked
@pytest.mark.parametrize("argv, why", [
    (["gen", "--env", "cabin", "--n", "99999999999999999999999"],
     "n = 99999999999999999999999 samples: an array of 99999999999999999999999 x 99 floats"),
    (["gen", "--env", "cabin", "--rays", "16", "--n", str(2**59)],
     f"n = {2**59} samples: an array of {2**59} x 19 floats"),
    (["bench", "--env", "cabin", "--estimator", "oracle", "--frames", str(2**63)],
     f"n = {2**63} samples: an array of {2**63} x 99 floats"),
    (["walk", "--env", "cabin", "--rays", str(2**60)], f"ray_count: an array of {2**60} floats"),
    (["train", "--env", "cabin", "--rays", "16", "--dataset", "{data}", "--hidden", f"4,{2**63}"],
     f"hidden widths (4, {2**63}): an array of "  # W0 and b0, W1 and b1, W2 and b2
     f"{4 * (16 + 1) + 2**63 * (4 + 1) + 3 * (2**63 + 1)} floats"),
    (["train", "--env", "cabin", "--rays", "16", "--dataset", "{data}",
      "--hidden", "99999999999999999999999"],
     "hidden widths (99999999999999999999999,): an array of 1999999999999999999999983 floats"),
], ids=["gen-n", "gen-n-by-rays", "bench-frames", "walk-rays", "train-hidden", "train-hidden-wide"])
def test_a_size_numpy_cannot_hold_is_input_error(tmp_path, capsys, argv, why):
    data = tmp_path / "d"
    assert main(["gen", "--env", "cabin", "--rays", "16", "--n", "40", "--out", str(data)]) == 0
    capsys.readouterr()
    argv = [a.format(data=data / "dataset.csv") for a in argv]
    err = _refused(capsys, argv, tmp_path / "o")
    assert err == f"neuromap: input error: {why} is larger than numpy can size\n"


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 32.0 GiB for an array with shape (4294967296, 1) and data "
                 "type float64"),
     "out of memory: Unable to allocate 32.0 GiB for an array with shape (4294967296, 1) and "
     "data type float64"),
    (MemoryError(), "out of memory: an allocation failed"),
], ids=["numpy", "bare"])
def test_memory_error_is_one_line_runtime_abort(tmp_path, capsys, monkeypatch, exc, line):
    # an array numpy can size but the host cannot hold
    def refuse(*args):
        raise exc

    monkeypatch.setattr(cli, "generate_dataset", refuse)
    rc = main(["gen", "--env", "cabin", "--n", "5", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == f"neuromap: runtime abort: {line}\n"
    assert not (tmp_path / "o").exists()


def test_an_interrupt_is_one_line_and_exit_130(tmp_path, capsys, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "generate_dataset", interrupt)
    rc = main(["gen", "--env", "cabin", "--n", "5", "--out", str(tmp_path / "o")])
    assert rc == 130
    assert capsys.readouterr().err == "neuromap: interrupted\n"


@pytest.mark.parametrize("name, escaped", [("r\u00e9", "r\\xe9"), ("nav\nx", "nav\\nx")],
                         ids=["non-ascii", "newline"])
def test_argv_beyond_printable_ascii_leaves_ascii_outputs(workspace, tmp_path, capsys, name,
                                                          escaped):
    db = tmp_path / f"d{name}" / "db.csv"
    db.parent.mkdir()
    db.write_bytes(read(workspace / "db" / "dataset.csv"))
    runs = {
        "gen": ["gen", *ENV_FLAGS, "--n", "20"],
        "train": ["train", *ENV_FLAGS, "--dataset", str(db), "--iterations", "200",
                  "--eval-interval", "100", "--hidden", "4"],
        "eval": ["eval", *ENV_FLAGS, "--estimator", f"knn:{db}",
                 "--testset", str(workspace / "test" / "dataset.csv")],
        "navigate": ["navigate", "--env", "apartment", "--estimator", "oracle",
                     "--waypoints", "apartment_loop", "--start", "1.5,1.5,0"],
    }
    for command, argv in runs.items():
        out = tmp_path / f"{command}-{name}"
        assert main([*argv, "--out", str(out)]) == 0, command
        for path in out.iterdir():
            text = path.read_bytes().decode("ascii")  # UnicodeDecodeError if not ASCII
            if path.suffix == ".svg":
                ElementTree.fromstring(text)
            comments = [ln for ln in text.splitlines() if ln.startswith(("# ", "<!-- "))]
            if comments:
                assert [ln.split(":")[0] for ln in comments] in (
                    ["# tool", "# invocation", "# seed"], ["<!-- tool", "<!-- invocation", "<!-- seed"]
                ), path
                assert escaped in comments[1], path
    assert f"knn:{tmp_path}/d{escaped}/db.csv" in read(tmp_path / f"eval-{name}" / "table.txt").decode()
    capsys.readouterr()
    trace = tmp_path / f"navigate-{name}" / "trace.csv"
    assert main(["plot", "--env", "apartment", "--trace", str(trace), "--out", str(tmp_path / "p")]) == 0
    assert capsys.readouterr().err == ""


def test_a_ray_count_numpy_cannot_size_is_input_error(tmp_path, capsys):
    # a bearing per ray, or an empty (0, ray_count) ranges array, would end
    # in numpy's own ValueError; the sensor refuses the count first
    huge = 10**30
    why = f"ray_count must be <= {np.iinfo(np.intp).max}, got {huge}"
    err = _refused(capsys, ["gen", "--env", "cabin", "--n", "5", "--rays", str(huge)], tmp_path / "g")
    assert err == f"neuromap: input error: {why}\n"
    dataset = tmp_path / "header-only.csv"
    header = {"env_name": "cabin", "fov": 120.0, "max_range": 20.0, "n": 0, "ray_count": huge, "seed": 1}
    dataset.write_text(f"#neuromap-dataset v1\n{json.dumps(header, sort_keys=True)}\n")
    err = _refused(capsys, ["plot", "--env", "cabin", "--dataset", str(dataset)], tmp_path / "p")
    assert err == f"neuromap: input error: {dataset}: line 2: bad header field: {why}\n"


def test_env_file_path_and_unknown_name(tmp_path):
    save_environment(bundled_environment("apartment"), tmp_path / "flat.grid")
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


def test_eval_leaves_numpy_ma_unimported(workspace, tmp_path):
    # np.median's first call imports numpy.ma, which nothing else in eval needs
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["eval", *ENV_FLAGS, "--estimator", f"knn:{workspace / 'db' / 'dataset.csv'}",
            "--testset", str(workspace / "test" / "dataset.csv"), "--out", str(tmp_path / "e")]
    script = ("import sys; from neuromap.cli import main; rc = main(sys.argv[1:]); "
              "print(rc, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr
