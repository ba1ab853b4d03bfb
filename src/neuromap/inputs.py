"""Refusals of outside input, the one reader of the text files, and the
header of dataset and model files.

Every refusal of a caller's values or files is an ``InputError``; a file
that breaks its format is a ``FormatError`` naming the path and, where one
line is at fault, the line. The ``neuromap`` command exits 2 on either.
Any other exception marks a bug.
"""

import dataclasses
import json
import math
import sys
from collections.abc import Iterator


class InputError(ValueError):
    """The caller's values or files are refused."""


class FormatError(InputError):
    """A file violates its documented format; ``line`` is 1-based or None."""

    def __init__(self, path, line: int | None, why: str) -> None:
        self.path, self.line, self.why = path, line, why
        where = f"{path}: " if line is None else f"{path}: line {line}: "
        super().__init__(where + why)


def read_lines(path) -> Iterator[str]:
    """The lines of an ASCII text file, read lazily: split at "\n" once
    "\r\n" and "\r" are read as "\n"; the empty tail after a final newline
    is not a line. The file is opened here, so an ``OSError`` is raised by
    the call; a line holding a byte that is not ASCII is refused when the
    lines before it have been yielded."""
    # each byte above 0x7f decodes to the lone surrogate U+DC00 + byte
    return _lines(open(path, encoding="ascii", errors="surrogateescape", newline=None), path)


def _lines(f, path) -> Iterator[str]:
    with f:
        for line_no, line in enumerate(f, start=1):
            if not line.isascii():
                byte = ord(next(ch for ch in line if not ch.isascii())) - 0xDC00
                raise FormatError(path, line_no, f"byte 0x{byte:02x} is not ASCII")
            yield line.rstrip("\n")  # a line holds no "\n" but its last character


def read_header(lines: Iterator[str], path, magic: str) -> dict:
    """The JSON header of a dataset or model file, whose ``lines`` must open
    with the ``magic`` line and then one line of JSON; both are consumed."""
    if next(lines, None) != magic:
        raise FormatError(path, None, f"not a '{magic}' file")
    head = next(lines, None)
    if head is None:
        raise FormatError(path, None, "missing JSON header line")
    try:
        return json.loads(head)
    except json.JSONDecodeError as exc:
        raise FormatError(path, 2, f"bad JSON header: {exc}") from None


def header_line(header: dict, extra: dict | None) -> str:
    """The JSON header line of ``header`` and the caller's ``extra`` keys,
    which may not name a core field (``ValueError``); keys are sorted."""
    for key in extra or {}:
        if key in header:
            raise ValueError(f"extra header key {key!r} collides with a core field")
    return json.dumps({**header, **(extra or {})}, sort_keys=True)


def check_size(what: str, *extents: int) -> None:
    """Refuse ``extents`` whose float64 array numpy could not size, as its
    byte count would not fit in an intp (``sys.maxsize``). A smaller array
    that the host cannot hold ends in ``MemoryError`` instead."""
    if math.prod(extents) * 8 > sys.maxsize:
        shape = " x ".join(map(str, extents))
        raise InputError(f"{what}: an array of {shape} floats is larger than numpy can size")


def check_finite(config) -> None:
    """Refuse a dataclass whose real-valued fields are not all finite."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"{field.name} must be finite, got {value!r}")
