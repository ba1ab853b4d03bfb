"""A seeded fuzz of the files the commands read.

Each case takes one small valid input file, applies one mutation to its
bytes, and runs the command that reads it. The readers are a dataset read as
a test set, as a k-NN database and as a training set, a model, a trace, a
waypoint file and a grid. The mutations are a replaced byte, a truncation, a
deleted, duplicated or swapped line, and a token of one line replaced by an
edge value. For every case the rules of ``test_cli_fuzz`` hold:

- no exception escapes ``main``, with warnings raised as errors;
- the exit code is 0, 1, 2 or 3;
- a non-zero exit prints exactly one stderr line;

and one more: a refused input (exit 2) leaves no ``--out``. A mutated file
that the reader accepts may run to exit 0, or to exit 3 when a mutated route
aborts. A per-case alarm stops a case that runs too long.
"""

import random
import re
import signal

import pytest

from neuromap.cli import main
from neuromap.worlds import bundled_environment
from test_cli_fuzz import _alarm, _run_case
from worldgen import save_environment

SEED = 31
CASES = 300  # per reader

# edge values put in place of one token
TOKENS = ["nan", "inf", "-inf", "1e999", "-0", "0", "-1", "1e-320", "1e23", str(2**64 + 5),
          "é", "\0", "{}", "[]", "null", "", "x", ",", "#", "0.5"]
MUTATIONS = ("byte", "truncate", "delete", "duplicate", "swap", "token")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A 16-ray world saved as a grid file, with a dataset, a test set, a
    model and a trace made in it, and a two-waypoint route."""
    root = tmp_path_factory.mktemp("files")
    save_environment(bundled_environment("apartment"), root / "world.grid")
    env = ["--env", str(root / "world.grid"), "--rays", "16"]
    (root / "route.waypoints").write_text("2.5,1.5\n2.5,2.5\n")
    for argv in (
        ["gen", *env, "--n", "40", "--seed", "3", "--out", str(root / "db")],
        ["gen", *env, "--n", "10", "--seed", "4", "--out", str(root / "test")],
        ["train", *env, "--dataset", str(root / "db" / "dataset.csv"), "--iterations", "10",
         "--eval-interval", "5", "--hidden", "4", "--batch-size", "8", "--out", str(root / "m")],
        ["navigate", *env, "--estimator", "oracle", "--waypoints", str(root / "route.waypoints"),
         "--start", "1.5,1.5,0", "--out", str(root / "nav")],
    ):
        assert main(argv) == 0
    return root


def _readers(root):
    """reader -> (the valid file it mutates, argv of a run that reads the file
    at ``{}``)."""
    env = ["--env", str(root / "world.grid"), "--rays", "16"]
    db, test = root / "db" / "dataset.csv", str(root / "test" / "dataset.csv")
    return {
        "testset": (db, ["eval", *env, "--estimator", "oracle", "--testset", "{}"]),
        "knn-database": (db, ["eval", *env, "--estimator", "knn:{}", "--testset", test]),
        "training-set": (db, ["train", *env, "--dataset", "{}", "--iterations", "10",
                              "--eval-interval", "5", "--hidden", "4", "--batch-size", "8"]),
        "model": (root / "m" / "model.model",
                  ["eval", *env, "--estimator", "model:{}", "--testset", test]),
        "trace": (root / "nav" / "trace.csv",
                  ["plot", *env, "--trace", "{}", "--waypoints", str(root / "route.waypoints")]),
        "waypoints": (root / "route.waypoints",
                      ["navigate", *env, "--estimator", "oracle", "--waypoints", "{}",
                       "--start", "1.5,1.5,0", "--max-ticks", "100"]),
        "grid": (root / "world.grid", ["gen", "--env", "{}", "--rays", "16", "--n", "20"]),
    }


def _mutate(rng, data: bytes) -> bytes:
    kind = rng.choice(MUTATIONS)
    if kind == "byte":
        i = rng.randrange(len(data))
        return data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    lines = data.splitlines(keepends=True)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        spans = [m.span() for m in re.finditer(rb"[^,\s]+", lines[i])] or [(0, 0)]
        a, b = rng.choice(spans)
        lines[i] = lines[i][:a] + rng.choice(TOKENS).encode() + lines[i][b:]
    return b"".join(lines)


@pytest.mark.parametrize("reader", ["testset", "knn-database", "training-set", "model", "trace",
                                    "waypoints", "grid"])
def test_fuzzed_files_fail_in_one_line(workspace, tmp_path, capsys, reader):
    rng = random.Random(f"{SEED}:{reader}")
    valid, template = _readers(workspace)[reader]
    data = valid.read_bytes()

    def argv(path):
        return [word.replace("{}", str(path)) for word in template]

    previous = signal.signal(signal.SIGALRM, _alarm)
    failures = []
    try:
        assert _run_case(capsys, argv(valid), tmp_path / "base") == (0, [])
        for case in range(CASES):
            path = tmp_path / f"case{case}" / valid.name  # a grid's name is its world's
            path.parent.mkdir()
            path.write_bytes(_mutate(rng, data))
            out = tmp_path / f"out{case}"
            rc, faults = _run_case(capsys, argv(path), out)
            if rc == 2 and out.exists():
                faults.append("a refused input left --out")
            if faults:
                failures.append((case, argv(path), faults))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, "\n".join(map(repr, failures))
