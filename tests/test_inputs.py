"""The InputError family and the one text reader."""

import math
from dataclasses import dataclass, fields

import numpy as np
import pytest

from neuromap.capture import WalkConfig
from neuromap.estimator import KnnConfig, OracleConfig
from neuromap.inputs import FormatError, InputError, check_config, read_lines
from neuromap.navigate import NavConfig, OdometryConfig
from neuromap.training import TrainConfig
from neuromap.world import SensorConfig


@pytest.mark.parametrize("data, lines", [
    (b"", []),
    (b"a\nb\n", ["a", "b"]),
    (b"a\nb", ["a", "b"]),
    (b"a\n\n", ["a", ""]),
    (b"\n", [""]),
    (b"a\r\nb\n", ["a", "b"]),
])
def test_read_lines_drops_only_the_tail_after_the_final_newline(tmp_path, data, lines):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    assert list(read_lines(path)) == lines


# bytes per read of Python's text reader: files below are large enough to
# cross several reads, with "\r\n" and non-ASCII bytes at the boundaries
READ = 8192


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 1 << 16])
def test_read_lines_splits_as_the_whole_text_does(tmp_path, seed):
    # "\r\n" may straddle two reads, and a line may span many
    rng = np.random.default_rng(seed)
    path = tmp_path / "f.txt"
    for piece in (b"", b"\r\n", b"\r", b"\n", b"\r\r\n", b"a" * (3 * READ)):
        for _ in range(20):
            data = bytearray(rng.choice(list(b"a,\r\n"), int(rng.integers(0, 4 * READ))))
            for boundary in range(READ, len(data), READ):
                at = boundary - int(rng.integers(0, len(piece) + 1))
                data[at : at + len(piece)] = piece
            path.write_bytes(bytes(data))
            want = path.read_text(encoding="ascii").split("\n")
            if want[-1] == "":
                want.pop()
            assert list(read_lines(path)) == want


def test_a_byte_that_is_not_ascii_names_the_path_and_its_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"ok\nstill ok\nbad \xe9 here\nok\n")
    with pytest.raises(FormatError) as info:
        list(read_lines(path))
    assert str(info.value) == f"{path}: line 3: byte 0xe9 is not ASCII"
    assert (info.value.path, info.value.line) == (path, 3)


def _lines_filling(size, newline):
    """Lines that, each followed by ``newline``, fill exactly ``size`` bytes."""
    lines = []
    while size > 40:
        lines.append("ok" * 10)
        size -= 20 + len(newline)
    return [*lines, "o" * (size - len(newline))]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_the_line_of_a_byte_that_is_not_ascii_counts_every_newline(tmp_path, newline):
    # the byte sits at offset ``at``, on either side of a read boundary
    path = tmp_path / "f.txt"
    for at in (READ - 1, READ, READ + 1, 3 * READ):
        good = _lines_filling(at, newline)
        path.write_bytes(newline.join([*good, "\xff bad", "ok"]).encode("latin-1"))
        assert path.read_bytes().index(b"\xff") == at
        lines = read_lines(path)
        assert [next(lines) for _ in good] == good
        with pytest.raises(FormatError, match=f"line {len(good) + 1}: byte 0xff is not ASCII"):
            next(lines)


def test_read_lines_leaves_os_errors_alone(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_lines(tmp_path / "absent.txt")
    with pytest.raises(IsADirectoryError):
        read_lines(tmp_path)


def test_format_error_message_and_family():
    assert str(FormatError("d.csv", 4, "bad value")) == "d.csv: line 4: bad value"
    assert str(FormatError("d.csv", None, "no rows")) == "d.csv: no rows"
    assert issubclass(FormatError, InputError) and issubclass(InputError, ValueError)


@dataclass(frozen=True)
class _Config:
    rate: float = 1.0
    count: int = 3
    label: str = "x"
    limit: float | None = None


def test_check_config_refuses_each_non_finite_real():
    check_config(_Config())
    check_config(_Config(limit=2.5, count=10**400))
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match=f"rate must be finite, got {value!r}"):
            check_config(_Config(rate=value))
        with pytest.raises(InputError, match="limit must be finite"):
            check_config(_Config(limit=value))


# each library config and the fields it bounds: (positive, non-negative)
CONFIG_BOUNDS = {
    SensorConfig: (("max_range",), ()),
    WalkConfig: (("capture_dist", "capture_rot", "step_len", "clearance_radius"), ("max_steps",)),
    NavConfig: (("T_d", "T_a", "max_step", "linear_speed", "angular_speed", "dt", "max_ticks",
                 "leg_tolerance"), ("footprint_radius",)),
    OdometryConfig: ((), ("sigma_lin_frac", "sigma_ang_per_step", "seed")),
    TrainConfig: (("batch_size", "max_iterations", "eval_interval", "lr0"),
                  ("weight_decay", "seed")),
    OracleConfig: ((), ("sigma_pos", "sigma_theta", "seed")),
    KnnConfig: (("k",), ()),
}


def _field_type(cls, name):
    default = getattr(cls(), name)
    return float if default is None else type(default)  # None: an unset optional real


@pytest.mark.parametrize("cls", CONFIG_BOUNDS, ids=lambda cls: cls.__name__)
def test_every_config_refuses_its_bounds_by_field_and_value(cls):
    positive, non_negative = CONFIG_BOUNDS[cls]
    cases = [(name, "must be positive", value) for name in positive for value in (0, -1)]
    cases += [(name, "must be >= 0", -1) for name in non_negative]
    for name, rule, value in cases:
        value = _field_type(cls, name)(value)
        with pytest.raises(InputError) as err:
            cls(**{name: value})
        assert str(err.value) == f"{name} {rule}, got {value!r}"
    for name in non_negative:
        if _field_type(cls, name) is float:
            assert math.copysign(1.0, getattr(cls(**{name: -0.0}), name)) == 1.0
    reals = [f.name for f in fields(cls) if _field_type(cls, f.name) is float]
    for name in reals:
        with pytest.raises(InputError) as err:
            cls(**{name: math.nan})
        assert str(err.value) == f"{name} must be finite, got nan"


@pytest.mark.parametrize("cls, kwargs, why", [
    (NavConfig, {"T_d": 1.0}, "T_d must be smaller than max_step 1.0, got 1.0"),
    (TrainConfig, {"val_fraction": 1.0}, "val_fraction must be in (0, 1), got 1.0"),
    (SensorConfig, {"ray_count": 1}, "ray_count must be >= 2 for fov 120.0, got 1"),
], ids=["NavConfig", "TrainConfig", "SensorConfig"])
def test_range_refusals_name_their_value(cls, kwargs, why):
    with pytest.raises(InputError) as err:
        cls(**kwargs)
    assert str(err.value) == why
