"""Refusals of outside input, and the one reader of the text files.

Every refusal of a caller's values or files is an ``InputError``; a file
that breaks its format is a ``FormatError`` naming the path and, where one
line is at fault, the line. The ``neuromap`` command exits 2 on either.
Any other exception marks a bug.
"""

import dataclasses
import math
from pathlib import Path


class InputError(ValueError):
    """The caller's values or files are refused."""


class FormatError(InputError):
    """A file violates its documented format; ``line`` is 1-based or None."""

    def __init__(self, path, line: int | None, why: str) -> None:
        self.path, self.line, self.why = path, line, why
        where = f"{path}: " if line is None else f"{path}: line {line}: "
        super().__init__(where + why)


def read_lines(path) -> list[str]:
    """The lines of an ASCII text file, split at "\n" once "\r\n" and "\r"
    are read as "\n"; the empty tail after a final newline is not a line.
    The list is the only copy of the text left once this returns."""
    try:
        lines = Path(path).read_text(encoding="ascii").split("\n")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FormatError(path, line, f"byte 0x{exc.object[exc.start]:02x} is not ASCII") from None
    if lines[-1] == "":
        lines.pop()
    return lines


def check_finite(config) -> None:
    """Refuse a dataclass whose real-valued fields are not all finite."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"{field.name} must be finite, got {value!r}")
