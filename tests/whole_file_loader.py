"""The dataset loader as it was before rows were streamed: the whole file
read as one string and split into lines, and every row parsed by one
``np.loadtxt`` call into a structured array. Kept as the oracle that the
streamed ``neuromap.capture.load_dataset`` is compared with."""

import json
import warnings
from pathlib import Path

import numpy as np

from neuromap.capture import DATASET_MAGIC, Dataset
from neuromap.inputs import FormatError
from neuromap.world import SensorConfig


def read_lines(path) -> list[str]:
    try:
        lines = Path(path).read_text(encoding="ascii").split("\n")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FormatError(path, line, f"byte 0x{exc.object[exc.start]:02x} is not ASCII") from None
    if lines[-1] == "":
        lines.pop()
    return lines


def load_dataset(path) -> Dataset:
    lines = read_lines(path)
    if not lines or lines[0] != DATASET_MAGIC:
        raise FormatError(path, None, f"not a '{DATASET_MAGIC}' file")
    if len(lines) < 2:
        raise FormatError(path, None, "missing JSON header line")
    try:
        header = json.loads(lines[1])
    except json.JSONDecodeError as exc:
        raise FormatError(path, 2, f"bad JSON header: {exc}") from None
    try:
        env_name = header["env_name"]
        seed = int(header["seed"])
        sensor = SensorConfig(
            fov=float(header["fov"]),
            ray_count=int(header["ray_count"]),
            max_range=float(header["max_range"]),
        )
        n = int(header["n"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(path, 2, f"bad header field: {exc}") from None
    if not (isinstance(env_name, str) and env_name):
        raise FormatError(path, 2, f"env_name must be a non-empty string, got {env_name!r}")
    del lines[:2]
    if len(lines) != n:
        raise FormatError(path, None, f"header says n={n} but file has {len(lines)} rows")
    row = np.dtype(
        [("id", np.int64), ("pose", np.float64, 3), ("ranges", np.float64, sensor.ray_count)]
    )
    want = 4 + sensor.ray_count
    body = np.empty(0, row)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if n:
                body = np.loadtxt(lines, dtype=row, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning) as exc:
        raise _first_bad_row(path, lines, row, want) or FormatError(path, None, str(exc)) from None
    if len(body) != n:
        raise _first_bad_row(path, lines, row, want) or FormatError(path, None, "blank rows")
    bad_id = body["id"] != np.arange(n)
    if bad_id.any():
        i = int(np.argmax(bad_id))
        raise FormatError(path, i + 3, f"ids must be dense, got {body['id'][i]}")
    poses, ranges = body["pose"], body["ranges"]
    bad_pose = ~np.isfinite(poses).all(axis=1)
    bad_ranges = ~((ranges >= 0.0) & (ranges <= 1.0)).all(axis=1)
    if (bad_pose | bad_ranges).any():
        i = int(np.argmax(bad_pose | bad_ranges))
        what = "ranges must all lie in [0, 1]" if bad_ranges[i] else "pose values must be finite"
        raise FormatError(path, i + 3, what)
    return Dataset(env_name, sensor, seed, poses, ranges)


def _first_bad_row(path, rows, row_dtype, want):
    for line_no, text in enumerate(rows, start=3):
        got = text.count(",") + 1
        if got != want:
            return FormatError(path, line_no, f"expected {want} columns, got {got}")
        try:
            np.loadtxt([text], dtype=row_dtype, delimiter=",", comments=None)
        except ValueError as exc:
            return FormatError(path, line_no, f"bad value: {str(exc).partition(' at row ')[0]}")
    return None
