"""Every command's output bytes, pinned: argv -> SHA-256 of its ``--out``.

Each entry runs one command in-process and digests its ``--out`` directory
with ``perfbench/run.py``'s ``digest``: each file's name and bytes, with the
provenance (the invocation names the ``--out`` path) stripped. The entries
run in table order from one working directory, since later ones read the
datasets and models that earlier ones write; their paths are relative, as
an estimator spec is written into ``metrics.json`` and ``table.txt``.

Every SVG the entries write must also parse as XML.

A change that moves an output byte fails here. Re-pinning an entry is a
declared change of the output format, recorded in CHANGES.md, as a change
to ``perfbench/digests.json`` is.

The ``train-*`` entries, and the ``eval-model-*`` and ``navigate-model``
entries that read their models, keep the bits of BLAS matrix products, so
their pins hold for the numpy/OpenBLAS build they were taken with (numpy
2.4.6), as perfbench's full-size pins do; they read the same with one BLAS
thread and with the default. No other entry keeps a BLAS result: the k-NN
screen's products only pick candidates, which are then ranked exactly.
"""

import json
import os
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

from neuromap.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from run import digest  # noqa: E402

# a 10 x 10 world with one free cell in ten, where most first attempts are
# rejected and drawn again
RETRY_GRID = "10 10 0.5 0.0 0.0\n" + "".join(
    "".join("." if (3 * ix + 7 * iy) % 10 == 0 else "#" for ix in range(10)) + "\n"
    for iy in range(10)
)

CABIN_DB = "gen-cabin/dataset.csv"
CABIN_TEST = "gen-seed-2-64/dataset.csv"
FLAT_DB = "gen-apartment/dataset.csv"
TRAIN = ["train", "--env", "cabin", "--dataset", CABIN_DB, "--iterations", "1100",
         "--eval-interval", "100", "--hidden", "8,8", "--seed", "5"]
EVAL = ["eval", "--env", "cabin", "--testset", CABIN_TEST]
NAVIGATE = ["navigate", "--env", "apartment", "--waypoints", "apartment_loop",
            "--start", "1.5,1.5,0", "--seed", "9"]

# name -> (argv, exit code, digest of --out)
PINS = {
    "gen-cabin": (
        ["gen", "--env", "cabin", "--n", "300", "--seed", "101"], 0,
        "41d7167663d4c853ff6cf16285c99cb1e38a297fb71da667ddc451566735b803"),
    "gen-retry-grid": (
        ["gen", "--env", "retry.grid", "--n", "200", "--seed", "3"], 0,
        "641bbf242b558932cc0b15a6e4bd1a717061c71a98fed13a1ad9b483c328a4ee"),
    "gen-seed-2-64": (
        ["gen", "--env", "cabin", "--n", "40", "--seed", str(2**64 + 5)], 0,
        "e472e0adb199507b615a1b73cb5114ab937290d8704b19698a69f43c1db366d6"),
    "gen-apartment": (
        ["gen", "--env", "apartment", "--n", "1500", "--seed", "11"], 0,
        "2198de028c74d52bbdad3d8df8946823dc1e42eb7cc15af71b570b75cedf4c83"),
    "walk": (
        ["walk", "--env", "apartment", "--steps", "300", "--seed", "40"], 0,
        "e23630f7b4393a505cbcf29f9f71bfbb02d95e237b1b05ab2c7462ddfbcc32fa"),
    "train-l1-tanh": (
        TRAIN, 0,
        "bf1c2388898c1d2b305019855b2d9c485e950eb496a45ccdd60636446ad4b161"),
    "train-l2": (
        [*TRAIN, "--loss", "l2"], 0,
        "e2ac0a78d8fe5eee24fa1f8f2ff4966b3cccb85b80cd724a2ca82a8a42b9faaf"),
    "train-sincos": (
        [*TRAIN, "--yaw-mode", "sincos"], 0,
        "72b54875cd7d0a2d7d1c61b64050c6e4251b979afa0201a7790ab9375952fbb5"),
    "train-per-interval": (
        [*TRAIN, "--decay-mode", "per_interval"], 0,
        "7cf69f78662074cf8532003304bc11c7449115794805608d39e4ac72292f58d8"),
    "train-apartment": (
        ["train", "--env", "apartment", "--dataset", FLAT_DB, "--iterations", "300",
         "--eval-interval", "100", "--hidden", "16", "--seed", "2"], 0,
        "791968e54ee13faa140f3922401fbfa1c220e2c6f383273f07655f9497bef1e0"),
    "eval-knn-k1-uniform": (
        [*EVAL, "--estimator", f"knn:{CABIN_DB},k=1,weighting=uniform"], 0,
        "e978d67073bef0bb7db8b13891e9d84bf702eca69da34cd83c8815aa77ce0553"),
    "eval-knn-ablate": (
        [*EVAL, "--estimator", f"knn:{CABIN_DB}", "--ablate", "sizes=20,150"], 0,
        "ead071ff807ec2d9550df8ca5c267a741475acfd09f8cdb8dc5b8cca172be133"),
    "eval-noisy-oracle": (
        [*EVAL, "--estimator", "oracle:sigma_pos=0.2,sigma_theta=3,seed=4"], 0,
        "2d61d75e91895bf2a0102debcc676938c54168c8c510995bb6e078121e455ede"),
    "eval-model-tanh": (
        [*EVAL, "--estimator", "model:train-l1-tanh/model.model"], 0,
        "8a63aa5f5554cc3318ea9c56c01b66994a7e884263e70862c957599ad3143d4c"),
    "eval-model-sincos": (
        [*EVAL, "--estimator", "model:train-sincos/model.model"], 0,
        "fcb2396287f3427f97081001e821feb84a192d7b0f97f1ec9c99a83a30f28bb1"),
    "navigate-oracle": (
        [*NAVIGATE, "--estimator", "oracle:sigma_pos=0.05,sigma_theta=1,seed=3",
         "--odo-lin", "0.02"], 0,
        "1a50e22117eade60d2477f3d089b69cd1e4b42c01cc70acce46e3b8faf80a284"),
    "navigate-oracle-abort": (
        [*NAVIGATE, "--estimator", "oracle", "--max-ticks", "60"], 3,
        "16aa19d1dc0f1c617586321f7b54fdd3e80df69a1002e8cc713cef827f9007e5"),
    "navigate-knn": (
        [*NAVIGATE, "--estimator", f"knn:{FLAT_DB}", "--max-ticks", "1500"], 3,
        "894d29525115bbf09f27918f909813a81a0dab7e4a56ad7a9ca304bc5d05fc96"),
    "navigate-model": (
        [*NAVIGATE, "--estimator", "model:train-apartment/model.model",
         "--max-ticks", "200"], 3,
        "fe52ebc54d1bd3999615eeca65445dfcc57619e35089f6590c943c967651546b"),
    "plot-dataset": (
        ["plot", "--env", "cabin", "--dataset", CABIN_TEST], 0,
        "f4689b08ab6c4b4db7526b5e5abd9c355c14a7af415381816e31674d63498595"),
    "plot-trace": (
        ["plot", "--env", "apartment", "--trace", "navigate-oracle/trace.csv",
         "--waypoints", "apartment_loop"], 0,
        "59eb9181632ac595a9dc6279ad1b71b125101f73bfb3d4f718d54bfca8bf58b2"),
    "config": (
        ["gen", "--env", "apartment", "--config", "gen.json"], 0,
        "fd9ae0c0754510e5a3bd567d7a0016144c82b6706dfbe554f0773e802a3ef179"),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> (exit code, digest of --out) of every entry, run in order."""
    tmp = tmp_path_factory.mktemp("pins")
    (tmp / "retry.grid").write_text(RETRY_GRID)
    (tmp / "gen.json").write_text(json.dumps({"n": 30, "seed": 8, "rays": 24}))
    out = {}
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for name, (argv, _, _) in PINS.items():
            out[name] = main([*argv, "--out", name]), digest(tmp / name)
            for svg in (tmp / name).glob("*.svg"):
                ElementTree.parse(svg)  # well-formed XML, or a ParseError
    finally:
        os.chdir(cwd)
    return out


@pytest.mark.parametrize("name", PINS)
def test_output_bytes_are_pinned(runs, name):
    _, rc, pin = PINS[name]
    assert runs[name] == (rc, pin)
