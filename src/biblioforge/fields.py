"""The ``key: value`` line format of records, subscriptions, taxonomies and config files.

A line holds one field: the key runs up to the first ``:``, the value is the
rest, and both are stripped.  Blank lines are skipped.  Which keys exist,
repeat or may have an empty value is up to each format's own parser.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator

from .errors import MalformedLine

# Every character str.splitlines splits on.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
LINE_BREAK = re.compile(f"[{LINE_BREAKS}]")


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


def check_value(what: str, value: str) -> None:
    """Raise ValueError unless ``value`` reads back unchanged from a ``key: value`` line."""
    if LINE_BREAK.search(value):
        raise ValueError(f"{what} holds a line break: {value!r}")
    if value != value.strip():
        raise ValueError(f"{what} has leading or trailing whitespace: {value!r}")
