"""The one framing of the artifact formats, `QAMODEL 2` and `QAIDX 3`.

An artifact is a UTF-8 text header with "\\n" line ends, then a raw
payload.  Its first line reads `MAGIC VERSION payload=N key=value ...`.
The lines after it are a run of sections, each a header line `NAME
field ...` followed by the rows it counts; a `PARAM name ndim size ...`
header declares an array and has no rows.  The last N bytes of the file
are the declared arrays' values in header order, each little-endian
float64 or, where its format says so, little-endian int32.  The file is
read as bytes, once; only the text is decoded, and the payload must be
exactly as long as the declared arrays.  Every defect raises
ParseError(path, line).  `text_lines`, `_read_fields` (the rows of a
tab-separated file) and `undecodable` serve the plain-text data files.
`replace_file` writes artifacts and reports whole or not at all, and
`require_writable` checks its destination before any work is done.
"""

import math
import os
from itertools import chain

import numpy as np

from .errors import ParseError, QAError

__all__ = [
    "Artifact", "replace_file", "require_writable", "text_lines", "undecodable", "write_artifact"
]


def _decode(path: str, data: bytes) -> str:
    """data as UTF-8 text; a bad byte raises ParseError at its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line_no, f"not UTF-8: {exc.reason}") from None


def undecodable(path: str) -> ParseError:
    """The ParseError for a file that failed to decode as UTF-8 in text
    mode, at the line of its first bad byte.  Only this error path reads
    the bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # text mode ends lines at \r\n, \r and \n
        _decode(path, data.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
    except ParseError as exc:
        return exc
    return ParseError(path, 1, "not UTF-8")


def text_lines(path: str):
    """Yield (line_no, line) for a UTF-8 text file, streaming, without a
    leading BOM; a line that is not UTF-8 raises ParseError(path, line)."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            raise undecodable(path) from None


def _read_fields(path: str, n_fields: int, check=None):
    """Yield (line_no, fields) for non-empty lines, enforcing the field
    count, no empty field and, if given, check(fields): the message of a
    bad row's ParseError, or None."""
    for line_no, raw in text_lines(path):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ParseError(
                path, line_no, f"expected {n_fields} tab-separated fields, got {len(fields)}"
            )
        if "" in fields:
            raise ParseError(path, line_no, "empty field")
        if check and (message := check(fields)):
            raise ParseError(path, line_no, message)
        yield line_no, fields


def _check_magic(path: str, text: str, magic: str) -> None:
    """ParseError at line 1 unless text starts with magic; another
    version of the same format is named as such."""
    if text.startswith(magic):
        return
    name, version = magic.split()[:2]
    found = text.partition("\n")[0].split(" ")
    if found[0] == name and len(found) > 1 and found[1] != version:
        raise ParseError(path, 1, f"{name} {found[1]} files are not read by this version, "
                         f"which reads {name} {version}: retrain the model or rebuild the index")
    raise ParseError(path, 1, f"not a {name} {version} file")


class Artifact:
    """An artifact's text lines, read section by section from line 2 on,
    and its payload."""

    def __init__(self, path: str, magic: str):
        self.path = path
        with open(path, "rb") as fh:
            data = fh.read()
        end = data.find(b"\n")
        first = _decode(path, data[:end] if end >= 0 else data)
        _check_magic(path, first, magic)
        if end < 0:
            raise ParseError(path, 1, "truncated file: no newline")
        fields = first.split(" ")[len(magic.split()) :]
        key, _, size = fields[0].partition("=")
        if key != "payload" or not (size.isascii() and size.isdigit()):
            raise ParseError(path, 1, f"expected payload=N after {magic.strip()!r}, "
                             f"got {fields[0]!r}")
        n, rest = int(size), len(data) - end - 1
        if n > rest:
            raise ParseError(path, 1, f"payload={n}, but only {rest} bytes follow line 1")
        self.payload = memoryview(data)[len(data) - n :]
        self.lines = _decode(path, data[: len(data) - n]).split("\n")
        if self.lines.pop() != "":
            raise ParseError(path, len(self.lines) + 1,
                             f"no newline where the last {n} bytes begin: "
                             "truncated or extended file")
        self.fields = dict(f.partition("=")[::2] for f in fields)  # line 1's key=value pairs
        self.pos = 1  # index of the next unread line
        self.start = 1  # index of the last section's first row
        self.declared: list[tuple[tuple[int, ...], str]] = []  # shape, dtype of each array

    def done(self) -> bool:
        return self.pos == len(self.lines)

    def header(self) -> list[str]:
        """The space-separated fields of the next line, a section header."""
        if self.done():
            raise ParseError(self.path, self.pos + 1, "missing section")
        self.pos += 1
        return self.lines[self.pos - 1].split(" ")

    def error(self, message: str) -> ParseError:
        """A ParseError at the last header read."""
        return ParseError(self.path, self.pos, message)

    def counts(self, fields: list[str]) -> list[int]:
        """The last header's count fields as non-negative integers."""
        if not all(f.isascii() and f.isdigit() for f in fields):
            raise self.error(f"bad count in header {self.lines[self.pos - 1]!r}")
        return [int(f) for f in fields]

    def count(self, name: str) -> int:
        """The count of the next header, which must read `name count`."""
        fields = self.header()
        if len(fields) != 2 or fields[0] != name:
            raise self.error(f"expected {name!r} header, got {self.lines[self.pos - 1]!r}")
        return self.counts(fields[1:])[0]

    def take(self, n: int) -> list[str]:
        """The n rows after the last header."""
        if self.pos + n > len(self.lines):
            raise self.error(f"truncated section {self.lines[self.pos - 1]!r}")
        self.start = self.pos
        self.pos += n
        return self.lines[self.start : self.pos]

    def shape(self, fields: list[str], dtype: str = "<f8") -> tuple[int, ...]:
        """The shape that the last header's `ndim size ...` fields give
        the next array of the payload, whose values are of dtype."""
        counts = self.counts(fields)
        if not counts or counts[0] != len(counts) - 1:
            raise self.error(f"expected `ndim size ...` in header {self.lines[self.pos - 1]!r}")
        self.declared.append((tuple(counts[1:]), dtype))
        return self.declared[-1][0]

    def arrays(self) -> list[np.ndarray]:
        """The declared arrays as read-only views of the payload, in
        header order.  The payload must hold exactly them."""
        nbytes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in self.declared]
        if sum(nbytes) != len(self.payload):
            raise ParseError(self.path, 1, f"payload={len(self.payload)}, but the headers "
                             f"declare {sum(nbytes)} bytes")
        out, at = [], 0
        for (shape, dtype), n in zip(self.declared, nbytes):
            out.append(np.frombuffer(self.payload, dtype, math.prod(shape), at).reshape(shape))
            at += n
        return out


def write_artifact(path: str, magic: str, lines: list[str], arrays: list[np.ndarray]) -> None:
    """Write an artifact: the line `{magic}payload=N {lines[0]}`,
    the other lines, then the arrays as N bytes, in order: int32 arrays as
    little-endian int32 and all others as little-endian float64, so the
    bytes are the same on any host."""
    dtypes = ["<i4" if a.dtype.kind == "i" and a.dtype.itemsize == 4 else "<f8" for a in arrays]
    size = sum(a.size * np.dtype(t).itemsize for a, t in zip(arrays, dtypes))
    text = "\n".join([f"{magic}payload={size} {lines[0]}", *lines[1:]]) + "\n"
    payload = (np.ascontiguousarray(a, dtype=dtype).tobytes() for a, dtype in zip(arrays, dtypes))
    replace_file(path, chain([text.encode("utf-8")], payload))


def require_writable(path: str) -> None:
    """QAError unless replace_file can write path: it must not be a
    directory, and its directory must exist and be writable, unless path is
    written in place."""
    if os.path.isdir(path):
        raise QAError(f"{path}: Is a directory")
    if os.path.exists(path) and not os.path.isfile(path):
        return
    folder = os.path.dirname(path) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise QAError(f"{path}: {folder} is not a writable directory")


def replace_file(path: str, chunks) -> None:
    """Write the byte strings of chunks as the file path.  They go to a new
    file in path's directory, which replaces path once all are written, so
    a write that fails leaves path as it was.  A path that exists but is
    not a regular file, such as /dev/null, is written in place, and a
    symbolic link is followed.  An OSError that names no file, such as a
    full disk's, is given path as its filename."""
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "wb") as fh:
                fh.writelines(chunks)
            return
        real = os.path.realpath(path)
        tmp = f"{real}.{os.getpid()}.tmp"
        fh = open(tmp, "xb")  # the mode any new file gets, as open(path, "wb") would give it
        try:
            with fh:
                fh.writelines(chunks)
            os.replace(tmp, real)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        exc.filename = exc.filename or path
        raise
