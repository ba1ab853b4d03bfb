"""A seeded fuzz of the command line.

Each case starts from a small run of one command that succeeds and adds one
or two mutations: an option of that command set to a value drawn for its
type, an estimator spec with one key set to a drawn value, or a ``--config``
file that sets one or two options to drawn JSON values. Option names come
from ``COMMANDS``, their types from ``_flag_type``, and spec keys from the
fields of ``OracleConfig`` and ``KnnConfig``. For every case:

- no exception escapes ``main``, with warnings raised as errors;
- the exit code is 0, 1, 2 or 3;
- a non-zero exit prints exactly one stderr line;
- a usage error (exit 1) creates no ``--out``.

Run-length options (steps, iterations, repeats, max_ticks, frames) draw only
small or refused values, so every case ends quickly, and a per-case alarm
stops one that does not. No value is a size some host could allocate: a
count is small, or so large that no array of it fits an intp. No option sets
a thread or process count.
"""

import dataclasses
import json
import random
import signal
import warnings

import pytest

from neuromap.cli import COMMANDS, _flag_type, main
from neuromap.estimator import KnnConfig, OracleConfig

SEED = 24
CASES = 300  # per command
ALARM_S = 10

ENV_FLAGS = ["--env", "apartment", "--rays", "16"]
# a waypoint a metre from the start, so a navigate run takes a few ticks
WAYPOINTS = "2.5,1.5\n"

# edge values, and two ordinary ones so that some cases run; no value lies
# between ~2 m and the world's width, where a walk's clearance disc fits no
# pose and the walk spends 10^6 draws before it exits 2
TEXTS = ["nan", "inf", "-inf", "0", "-0", "1e308", "1e-320", str(2**63), str(2**64 + 5),
         "1e23", "", "x", "1,2", "1", "0.5"]
JSON_VALUES = [float("nan"), float("inf"), float("-inf"), 0, -0.0, 1e308, 1e-320, 2**63,
               2**64 + 5, 1e23, "", "x", "1,2", None, True, [1, 2], {}, 1, 0.5]
# options whose value sets how long a run goes on: small values, or refused ones
RUN_LENGTH = {"steps", "iterations", "repeats", "max_ticks", "frames"}
SMALL_TEXTS = ["-1", "0", "-0", "1", "2", "nan", "inf", "1e23", "", "x", "1,2"]
SMALL_JSON_VALUES = [-1, 0, 1, 2, -0.0, 1e23, float("nan"), "x", None, True]
SPEC_KEYS = {"oracle": [f.name for f in dataclasses.fields(OracleConfig)],
             "knn": [f.name for f in dataclasses.fields(KnnConfig)]}


class _CaseTimeout(BaseException):
    """A case outran its alarm (not an ``Exception``, so ``main`` cannot catch it)."""


def _alarm(signum, frame):
    raise _CaseTimeout


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["gen", *ENV_FLAGS, "--n", "40", "--seed", "3", "--out", str(root / "db")]) == 0
    (root / "near.waypoints").write_text(WAYPOINTS)
    return root


def _base_runs(root):
    """A small run of each command that succeeds."""
    db = str(root / "db" / "dataset.csv")
    return {
        "gen": [*ENV_FLAGS, "--n", "20"],
        "walk": [*ENV_FLAGS, "--steps", "30"],
        "train": [*ENV_FLAGS, "--dataset", db, "--iterations", "10", "--eval-interval", "5",
                  "--hidden", "4", "--batch-size", "8"],
        "eval": [*ENV_FLAGS, "--estimator", "oracle", "--testset", db],
        "navigate": [*ENV_FLAGS, "--estimator", "oracle", "--waypoints",
                     str(root / "near.waypoints"), "--start", "1.5,1.5,0", "--max-ticks", "100"],
        "plot": [*ENV_FLAGS, "--dataset", db],
        "bench": [*ENV_FLAGS, "--estimator", "oracle", "--frames", "5", "--repeats", "2"],
    }


def _mutation(rng, command, root, config_path):
    """argv words for one mutation of a ``command`` run."""
    options = {k: v for k, v in COMMANDS[command][1].items() if k != "out"}
    kinds = ["option"] * 3 + ["config"] + ["spec"] * ("estimator" in options)
    kind = rng.choice(kinds)
    if kind == "option":
        key = rng.choice(sorted(options))
        texts = SMALL_TEXTS if key in RUN_LENGTH else TEXTS
        if _flag_type(key, options[key]) is str:
            texts = texts + ["oracle", "uniform", "l2"]
        return ["--" + key.replace("_", "-"), rng.choice(texts)]
    if kind == "spec":
        estimator = rng.choice(sorted(SPEC_KEYS))
        key = rng.choice(SPEC_KEYS[estimator] + ["bogus"])
        head = "oracle:" if estimator == "oracle" else f"knn:{root / 'db' / 'dataset.csv'},"
        return ["--estimator", f"{head}{key}={rng.choice(TEXTS)}"]
    keys = rng.sample(sorted(options), rng.randint(1, 2))
    doc = {k: rng.choice(SMALL_JSON_VALUES if k in RUN_LENGTH else JSON_VALUES) for k in keys}
    config_path.write_text(json.dumps(doc))
    return ["--config", str(config_path)]


def _run_case(capsys, argv, out):
    """The exit code of one case (None if none came) and its faults, as a list
    of strings (empty when the case holds)."""
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*argv, "--out", str(out)])
    except _CaseTimeout:
        return None, [f"ran past {ALARM_S} s"]
    except Exception as exc:  # noqa: BLE001 - any escape is the fault looked for
        return None, [f"{type(exc).__name__} escaped main: {exc}"]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    err = capsys.readouterr().err
    faults = []
    if rc not in (0, 1, 2, 3):
        faults.append(f"exit code {rc!r}")
    if rc != 0 and len(err.splitlines()) != 1:
        faults.append(f"exit {rc} printed {err!r}")
    if rc == 1 and out.exists():
        faults.append("a usage error created --out")
    return rc, faults


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_fuzzed_options_fail_in_one_line(workspace, tmp_path, capsys, command):
    rng = random.Random(f"{SEED}:{command}")
    base = _base_runs(workspace)[command]
    previous = signal.signal(signal.SIGALRM, _alarm)
    failures = []
    try:
        assert _run_case(capsys, [command, *base], tmp_path / "base") == (0, [])
        for case in range(CASES):
            config_path = tmp_path / f"config{case}.json"
            argv = [command, *base]
            for _ in range(rng.randint(1, 2)):
                argv += _mutation(rng, command, workspace, config_path)
            _, faults = _run_case(capsys, argv, tmp_path / f"out{case}")
            if faults:
                config = config_path.read_text() if config_path.exists() else None
                failures.append((argv, config, faults))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, "\n".join(map(repr, failures))
