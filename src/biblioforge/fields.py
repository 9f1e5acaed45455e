"""Reading input files, and the ``key: value`` format of records, subscriptions and configs.

``reading`` reads an input file whole as UTF-8: a byte that is not UTF-8 is a
MalformedLine naming its line, and a parse error ends with `` in <path>``.

In the ``key: value`` format, also that of taxonomies, a line holds one field:
the key runs up to the first ``:``, the value is the rest, both stripped.
Blank lines are skipped; which keys exist, repeat or may be empty is up to each format.
"""

from __future__ import annotations

import contextlib
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import BiblioforgeError, MalformedLine, in_file

# Every character str.splitlines splits on.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
LINE_BREAK = re.compile(f"[{LINE_BREAKS}]")


def decode(data: bytes, first_line: int = 1) -> str:
    """``data`` as UTF-8 text; MalformedLine naming the line of the first byte that is not.

    Lines are numbered from ``first_line``, the line of its file ``data`` starts on.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines as str.splitlines counts them, the bad byte's own line included
        line_no = first_line - 1 + len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise MalformedLine(f"not valid UTF-8: {exc.reason}", line_no) from None


@contextlib.contextmanager
def reading(path: str | Path) -> Iterator[str]:
    """The text of the file at ``path``; a parse error in the ``with`` body names the file."""
    try:
        yield decode(Path(path).read_bytes())
    except (BiblioforgeError, ValueError) as exc:
        raise in_file(exc, path)


def key_value_lines(lines: Iterable[str], first_line: int = 1) -> Iterator[tuple[int, str, str]]:
    """Yield ``(line_no, key, value)`` per non-blank line; MalformedLine if one has no ``:``."""
    for line_no, line in enumerate(lines, start=first_line):
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise MalformedLine("no key separator", line_no)
        yield line_no, key.strip(), value.strip()


def line_blocks(
    lines: list[str], is_separator: Callable[[str], bool]
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(first_line_no, block)`` for each run of lines between separator lines."""
    start = 0
    for end in [i for i, line in enumerate(lines) if is_separator(line)] + [len(lines)]:
        yield start + 1, lines[start:end]
        start = end + 1


def check_int(key: str, value: str, line_no: int) -> None:
    """Raise MalformedLine naming ``line_no`` unless ``value`` reads as an int."""
    try:
        int(value)
    except ValueError:
        raise MalformedLine(f"{key} is not an integer: {value!r}", line_no) from None


def check_value(what: str, value: str) -> None:
    """Raise ValueError unless ``value`` reads back unchanged from a ``key: value`` line."""
    if LINE_BREAK.search(value):
        raise ValueError(f"{what} holds a line break: {value!r}")
    if value != value.strip():
        raise ValueError(f"{what} has leading or trailing whitespace: {value!r}")
