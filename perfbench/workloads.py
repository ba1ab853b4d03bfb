"""The four workloads: what set-up builds, what each timed run executes, and
how a run's outputs are counted and checked.

Every input comes from the workload seed. The default seed, 101, reproduces
the acceptance gate (tests/test_acceptance.py): the 20k cabin dataset of
seed 101, the 500-query test set of seed 202, training seed 5, and the
apartment loop with oracle seed 1 and odometry seed 101. Other seeds keep
those offsets modulo 2**32, so seed S uses test set S+101 and training seed
S-96.

Runs execute with the work directory as their working directory and refer
to inputs by relative paths, so a run's outputs do not depend on where the
checkout lives.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 101

# mean k-NN position error the gate calibrated for the default seed
GATE_KNN_MEAN_POS = 0.7556

# the first two waypoints of the bundled apartment loop: a short route for smoke runs
SMOKE_ROUTE = ((4.0, 1.3), (6.5, 1.5))
ROUTE_SEED_STRIDE = 7919


@dataclass(frozen=True)
class Sizes:
    gen_n: int
    prefix_n: int  # a separate generation whose rows must equal gen's first rows
    db_n: int
    test_n: int
    hidden: str
    iterations: int
    eval_interval: int
    routes: int
    short_route: bool


FULL = Sizes(gen_n=20_000, prefix_n=500, db_n=20_000, test_n=500, hidden="256,256,256",
             iterations=1000, eval_interval=500, routes=4, short_route=False)
SMOKE = Sizes(gen_n=300, prefix_n=50, db_n=300, test_n=20, hidden="16,16",
              iterations=40, eval_interval=20, routes=2, short_route=True)
SIZES = {"full": FULL, "smoke": SMOKE}


@dataclass(frozen=True)
class Run:
    key: str  # names the inputs: runs with equal keys must write equal outputs
    argv: tuple


class CheckError(Exception):
    """A run's outputs are missing, malformed or wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (ctx) -> list[Run]; runs neuromap commands through ctx.cli
    check: Callable  # (ctx, out_dir) -> items completed by the run
    setup_repeats: int  # set-ups per invocation; setup_s is their median


def shifted(seed: int, gate_seed: int) -> int:
    """The seed that sits where ``gate_seed`` sits relative to the default seed."""
    return (seed - DEFAULT_SEED + gate_seed) % 2**32


def _data_rows(path: Path) -> list:
    lines = path.read_text(encoding="ascii").split("\n")
    return lines[2:-1]  # magic, JSON header ... trailing newline


def _comment_free(path: Path) -> list:
    return [ln for ln in path.read_text(encoding="ascii").splitlines() if not ln.startswith("#")]


# --- gen_cabin ---------------------------------------------------------------------


def gen_setup(ctx) -> list:
    s = ctx.sizes
    seed = str(shifted(ctx.seed, 101))
    ctx.cli(["gen", "--env", "cabin", "--n", str(s.prefix_n), "--seed", seed, "--out", "inputs/prefix"])
    argv = ("gen", "--env", "cabin", "--n", str(s.gen_n), "--seed", seed, "--out", "out")
    return [Run(f"gen_cabin/{ctx.seed}", argv)]


def gen_check(ctx, out: Path) -> int:
    rows = _data_rows(out / "dataset.csv")
    if len(rows) != ctx.sizes.gen_n:
        raise CheckError(f"dataset.csv has {len(rows)} rows, expected {ctx.sizes.gen_n}")
    prefix = _data_rows(ctx.workdir / "inputs/prefix/dataset.csv")
    if rows[: len(prefix)] != prefix:
        raise CheckError(f"the first {len(prefix)} rows differ from a {len(prefix)}-sample "
                         "generation with the same seed (prefix stability)")
    coverage = json.loads((out / "coverage.json").read_text())["coverage"]
    if not 0 < coverage["covered_cells"] <= coverage["free_cells"]:
        raise CheckError(f"implausible coverage {coverage}")
    return len(rows)


# --- eval_knn_cabin ----------------------------------------------------------------

KNN_SPEC = "knn:inputs/db/dataset.csv,k=5"


def eval_setup(ctx) -> list:
    s = ctx.sizes
    ctx.cli(["gen", "--env", "cabin", "--n", str(s.db_n), "--seed", str(shifted(ctx.seed, 101)),
             "--out", "inputs/db"])
    ctx.cli(["gen", "--env", "cabin", "--n", str(s.test_n), "--seed", str(shifted(ctx.seed, 202)),
             "--out", "inputs/test"])
    argv = ("eval", "--env", "cabin", "--estimator", KNN_SPEC,
            "--testset", "inputs/test/dataset.csv", "--out", "out")
    return [Run(f"eval_knn_cabin/{ctx.seed}", argv)]


def eval_check(ctx, out: Path) -> int:
    m = json.loads((out / "metrics.json").read_text())["metrics"][KNN_SPEC]
    n = len(m["per_sample_errors"])
    if n != ctx.sizes.test_n:
        raise CheckError(f"{n} per-sample errors, expected {ctx.sizes.test_n}")
    if not (math.isfinite(m["mean_pos_err"]) and m["mean_pos_err"] >= 0.0):
        raise CheckError(f"mean position error {m['mean_pos_err']!r}")
    if ctx.sizes == FULL and ctx.seed == DEFAULT_SEED and round(m["mean_pos_err"], 4) != GATE_KNN_MEAN_POS:
        raise CheckError(f"mean position error {m['mean_pos_err']:.4f} m, the gate measured "
                         f"{GATE_KNN_MEAN_POS} m")
    return n


# --- train_cabin -------------------------------------------------------------------


def train_setup(ctx) -> list:
    s = ctx.sizes
    ctx.cli(["gen", "--env", "cabin", "--n", str(s.db_n), "--seed", str(shifted(ctx.seed, 101)),
             "--out", "inputs/db"])
    argv = ("train", "--env", "cabin", "--dataset", "inputs/db/dataset.csv", "--hidden", s.hidden,
            "--iterations", str(s.iterations), "--eval-interval", str(s.eval_interval),
            "--seed", str(shifted(ctx.seed, 5)), "--out", "out")
    return [Run(f"train_cabin/{ctx.seed}", argv)]


def train_check(ctx, out: Path) -> int:
    last = _comment_free(out / "history.csv")[-1].split(",")
    if int(last[0]) != ctx.sizes.iterations or last[-1] != "final":
        raise CheckError(f"history ends with {last}, expected a final row at {ctx.sizes.iterations}")
    header = json.loads((out / "model.model").read_text().split("\n", 2)[1])
    dims = [96, *(int(h) for h in ctx.sizes.hidden.split(",")), 3]
    if header["layer_dims"] != dims:
        raise CheckError(f"model layer_dims {header['layer_dims']}, expected {dims}")
    return ctx.sizes.iterations


# --- navigate_apartment ------------------------------------------------------------


def navigate_setup(ctx) -> list:
    ctx.cli(["--version"])
    waypoints = "apartment_loop"
    if ctx.sizes.short_route:
        waypoints = "inputs/route.waypoints"
        route = ctx.workdir / waypoints
        route.parent.mkdir(parents=True, exist_ok=True)
        route.write_text("".join(f"{x!r},{y!r}\n" for x, y in SMOKE_ROUTE), encoding="ascii")
    runs = []
    for j in range(ctx.sizes.routes):
        seed = ctx.seed + ROUTE_SEED_STRIDE * j
        argv = ("navigate", "--env", "apartment",
                "--estimator", f"oracle:sigma_pos=0.05,seed={shifted(seed, 1)}",
                "--waypoints", waypoints, "--start", "1.5,1.5,0",
                "--seed", str(shifted(seed, 101)), "--out", "out")
        runs.append(Run(f"navigate_apartment/{ctx.seed}/route-{j}", argv))
    return runs


def navigate_check(ctx, out: Path) -> int:
    report = json.loads((out / "report.json").read_text())
    if not report["success"]:
        raise CheckError(f"route aborted: {report['abort_reason']}")
    events = [ln.rsplit(",", 1)[1] for ln in _comment_free(out / "trace.csv")[1:]]
    if len(events) != report["tick_count"]:
        raise CheckError(f"trace has {len(events)} rows, report says {report['tick_count']} ticks")
    return events.count("estimate")


# the reason for each workload is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gen_cabin", gen_setup, gen_check, 3),
        Workload("eval_knn_cabin", eval_setup, eval_check, 1),
        Workload("train_cabin", train_setup, train_check, 1),
        Workload("navigate_apartment", navigate_setup, navigate_check, 3),
    )
}
