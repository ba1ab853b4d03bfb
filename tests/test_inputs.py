"""The InputError family and the one text reader."""

import math
from dataclasses import dataclass

import pytest

from neuromap.inputs import FormatError, InputError, check_finite, read_lines


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
    assert read_lines(path) == lines


def test_a_byte_that_is_not_ascii_names_the_path_and_its_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"ok\nstill ok\nbad \xe9 here\nok\n")
    with pytest.raises(FormatError) as info:
        read_lines(path)
    assert str(info.value) == f"{path}: line 3: byte 0xe9 is not ASCII"
    assert (info.value.path, info.value.line) == (path, 3)


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


def test_check_finite_refuses_each_non_finite_real():
    check_finite(_Config())
    check_finite(_Config(limit=2.5, count=10**400))
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match=f"rate must be finite, got {value!r}"):
            check_finite(_Config(rate=value))
        with pytest.raises(InputError, match="limit must be finite"):
            check_finite(_Config(limit=value))
