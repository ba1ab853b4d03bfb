"""Refusals of outside input, and the one reader of the text files.

Every refusal of a caller's values or files is an ``InputError``; a file
that breaks its format is a ``FormatError`` naming the path and, where one
line is at fault, the line. The ``neuromap`` command exits 2 on either.
Any other exception marks a bug.
"""

import dataclasses
import math
from collections.abc import Iterator


class InputError(ValueError):
    """The caller's values or files are refused."""


class FormatError(InputError):
    """A file violates its documented format; ``line`` is 1-based or None."""

    def __init__(self, path, line: int | None, why: str) -> None:
        self.path, self.line, self.why = path, line, why
        where = f"{path}: " if line is None else f"{path}: line {line}: "
        super().__init__(where + why)


# bytes per read in read_lines; a line may span any number of reads
READ_BYTES = 1 << 16


def read_lines(path) -> Iterator[str]:
    """The lines of an ASCII text file, read lazily: split at "\n" once
    "\r\n" and "\r" are read as "\n"; the empty tail after a final newline
    is not a line. The file is opened here, so an ``OSError`` is raised by
    the call; a byte that is not ASCII is refused when the lines before it
    have been yielded. Only one read's worth of text is held at a time."""
    return _lines(open(path, "rb"), path)


def _lines(f, path) -> Iterator[str]:
    with f:
        line_no, pieces, cr = 1, [], b""  # pieces: the text so far of line line_no
        while True:
            chunk = f.read(READ_BYTES)
            data, cr = cr + chunk, b""
            if chunk and data.endswith(b"\r"):  # its "\n" may open the next read
                data, cr = data[:-1], b"\r"
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            try:
                text = data.decode("ascii")
            except UnicodeDecodeError as exc:
                line = line_no + data.count(b"\n", 0, exc.start)
                why = f"byte 0x{data[exc.start]:02x} is not ASCII"
                raise FormatError(path, line, why) from None
            lines = text.split("\n")
            pieces.append(lines[0])
            if len(lines) > 1:
                lines[0] = "".join(pieces)
                pieces = [lines.pop()]
                line_no += len(lines)
                yield from lines
            if not chunk:
                break
        tail = "".join(pieces)
        if tail:
            yield tail


def check_finite(config) -> None:
    """Refuse a dataclass whose real-valued fields are not all finite."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"{field.name} must be finite, got {value!r}")
