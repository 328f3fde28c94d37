"""Framing shared by the text artifact formats, `QAMODEL 1` and `QAIDX 1`.

An artifact is UTF-8 text with "\\n" line ends.  Its first line starts
with the format's magic and its last line ends with a newline.  The body
is a run of sections, each a header line `NAME field ...` followed by
the rows it counts.  Every defect raises ParseError(path, line).
"""

from .errors import ParseError

__all__ = ["Artifact", "text_lines", "undecodable"]


def undecodable(path: str) -> ParseError:
    """The ParseError for a file that failed to decode as UTF-8, at the
    line of its first bad byte.  Only this error path reads the bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # text mode ends lines at \r\n, \r and \n
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return ParseError(path, head.count(b"\n") + 1, f"not UTF-8: {exc.reason}")
    return ParseError(path, 1, "not UTF-8")


def text_lines(path: str):
    """Yield (line_no, line) for a UTF-8 text file, streaming; a line
    that is not UTF-8 raises ParseError(path, line)."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            raise undecodable(path) from None


class Artifact:
    """An artifact's lines, read section by section from line 2 on."""

    def __init__(self, path: str, magic: str):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            raise undecodable(path) from None
        if not text.startswith(magic):
            raise ParseError(path, 1, f"not a {magic.strip()} file")
        self.path = path
        self.lines = text.split("\n")
        if self.lines.pop() != "":
            raise ParseError(path, len(self.lines) + 1, "truncated file: no final newline")
        self.pos = 1  # index of the next unread line
        self.start = 1  # index of the last section's first row

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

    def bad(self, row: str, message: str) -> ParseError:
        """A ParseError at row, a row of the last section that failed to
        parse.  Rows parse in order, so its first copy is the one."""
        return ParseError(self.path, self.lines.index(row, self.start) + 1, message)
