"""The InputError family, the one text reader and the one text writer."""

import ast
import errno
import math
import os
import weakref
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from neuromap.capture import WalkConfig
from neuromap.estimator import KnnConfig, OracleConfig
from neuromap.inputs import FormatError, InputError, OutputError, check_config, read_lines, write_text
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


# --- the one writer ----------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "neuromap"


def _file_calls(source: str) -> list:
    """The calls in ``source`` that open or write a file: the builtin ``open``,
    any other ``.open`` method but ``os.open`` (a file descriptor, as for
    /dev/null), and ``.write_text`` and ``.write_bytes`` methods."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and func.id == "open":
            found.append(f"line {node.lineno}: open")
        elif isinstance(func, ast.Attribute) and (
            func.attr in ("write_text", "write_bytes")
            or (func.attr == "open" and not (isinstance(func.value, ast.Name) and func.value.id == "os"))
        ):
            found.append(f"line {node.lineno}: .{func.attr}")
    return found


@pytest.mark.parametrize("source, found", [
    ("open(p, 'w')", ["line 1: open"]),
    ("Path(p).write_text(t)", ["line 1: .write_text"]),
    ("p.write_bytes(b)", ["line 1: .write_bytes"]),
    ("with p.open('w') as f: pass", ["line 1: .open"]),
    ("os.dup2(os.open(os.devnull, os.O_WRONLY), 1)", []),
    ("subprocess.Popen(argv, stdin=subprocess.PIPE)", []),
    ("write_text(p, parts)", []),
])
def test_the_writer_guard_finds_each_kind_of_file_call(source, found):
    assert _file_calls(source) == found


def test_no_module_but_inputs_opens_or_writes_a_file():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    calls = {p.name: _file_calls(p.read_text(encoding="utf-8")) for p in modules if p.name != "inputs.py"}
    assert {name: found for name, found in calls.items() if found} == {}


def test_write_text_writes_a_str_or_its_parts_in_turn(tmp_path):
    path = tmp_path / "f.txt"
    write_text(path, "one\n")
    assert path.read_bytes() == b"one\n"
    write_text(path, (part for part in ["a", "", "b\n"]))
    assert path.read_bytes() == b"ab\n"
    assert os.listdir(tmp_path) == ["f.txt"]


class _Block(str):
    """A str that a weak reference can watch."""


def test_write_text_holds_one_part_at_a_time(tmp_path):
    # a dataset block is ~1.2 MB: one kept alive while the next is made would
    # raise save_dataset's peak by that much
    alive = []

    def parts():
        previous = None
        for _ in range(3):
            if previous is not None:
                alive.append(previous() is not None)
            block = _Block("x" * 99_999 + "\n")  # past the text layer's 8 KiB buffer
            previous = weakref.ref(block)
            yield block
            del block

    write_text(tmp_path / "f.txt", parts())
    assert alive == [False, False]
    assert (tmp_path / "f.txt").stat().st_size == 3 * 100_000


def _failing(exc):
    """Parts that raise ``exc`` after their first block."""
    yield "first block\n"
    raise exc


@pytest.mark.parametrize("exc, raised, message", [
    (KeyboardInterrupt(), KeyboardInterrupt, ""),
    (OSError(errno.EFBIG, "File too large"), OutputError, "cannot write {path}: File too large"),
    (ValueError("refused"), ValueError, "refused"),
], ids=["interrupt", "os-error", "value-error"])
@pytest.mark.parametrize("old", [None, b"old text\n"], ids=["new", "rewrite"])
def test_a_failed_write_leaves_the_old_file_or_none(tmp_path, exc, raised, message, old):
    path = tmp_path / "f.txt"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(raised) as info:
        write_text(path, _failing(exc))
    assert str(info.value) == message.format(path=path)
    assert os.listdir(tmp_path) == ([] if old is None else ["f.txt"])  # no temporary file
    if old is not None:
        assert path.read_bytes() == old


def test_write_text_gives_the_mode_of_a_plain_open(tmp_path):
    mask = os.umask(0o027)
    try:
        write_text(tmp_path / "a", "x")
        with open(tmp_path / "b", "w") as f:
            f.write("x")
    finally:
        os.umask(mask)
    assert (tmp_path / "a").stat().st_mode == (tmp_path / "b").stat().st_mode


def test_write_text_replaces_a_symlink_not_its_target(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"target\n")
    link.symlink_to(target)
    write_text(link, "new\n")
    assert not link.is_symlink() and link.read_bytes() == b"new\n"
    assert target.read_bytes() == b"target\n"
