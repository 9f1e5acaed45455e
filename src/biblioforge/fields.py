"""Reading input files, and the ``key: value`` format that all four file formats share.

``reading`` reads an input file whole as UTF-8, less a leading byte-order
mark: a byte that is not UTF-8 is a MalformedLine naming its line, and a
parse error ends with `` in <path>``.

Records, subscriptions, configs and taxonomies each declare their fields once,
in a table that the one reader ``read_fields`` reads (and ``field_lines``
writes) by.  A line holds one field: the key runs up to the first ``:``, the
value is the rest, both stripped; blank lines are skipped.  The differences
stay with the callers: subscriptions accept empty values, configs have
comments and keep the last of a repeated key, and a blank line ends a
taxonomy term.  This module's logger warns of unknown keys.
"""

from __future__ import annotations

import contextlib
import logging
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import BiblioforgeError, MalformedLine, in_file

logger = logging.getLogger(__name__)

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
    """The text of the file at ``path``, less a leading BOM; a parse error in the body names it."""
    try:
        yield decode(Path(path).read_bytes()).removeprefix("\ufeff")
    except (BiblioforgeError, ValueError) as exc:
        raise in_file(exc, path)


def line_blocks(
    lines: list[str], is_separator: Callable[[str], bool]
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(first_line_no, block)`` for each run of lines between separator lines."""
    start = 0
    for end in [i for i, line in enumerate(lines) if is_separator(line)] + [len(lines)]:
        yield start + 1, lines[start:end]
        start = end + 1


# key -> (attribute, repeats, read, write): ``read`` turns a value's text into
# the attribute's value (or one item of its list, if the key repeats), and
# ``write`` turns it back.
FieldTable = dict[str, tuple[str, bool, Callable[[str], Any], Callable[[Any], str]]]


def read_fields(
    lines: Iterable[str], table: FieldTable, what: str, first_line: int = 1, empty_ok: bool = False
) -> dict[str, Any]:
    """The values of ``lines`` by attribute name: a list for a repeating key, if present.

    A non-blank line without ``:``, an empty value (unless ``empty_ok``), a
    second single key or a value ``read`` refuses is a MalformedLine naming
    its line, checked in that order; a key not in ``table`` is ignored with a
    warning naming ``what``.
    """
    values: dict[str, Any] = {}
    seen: dict[str, int] = {}  # key -> its line, the first for a single key
    for line_no, line in enumerate(lines, start=first_line):
        if not line.strip():
            continue
        key, sep, text = line.partition(":")
        if not sep:
            raise MalformedLine("no key separator", line_no)
        key, text = key.strip(), text.strip()
        if not (text or empty_ok):
            raise MalformedLine(f"empty value for key {key!r}", line_no)
        if key not in table:
            logger.warning("%s line %d: ignoring unknown key %r", what, line_no, key)
            continue
        attr, repeats, read, _ = table[key]
        if not repeats and key in seen:
            raise MalformedLine(f"duplicate key {key!r} (first on line {seen[key]})", line_no)
        seen[key] = line_no
        try:
            value = read(text)
        except ValueError as exc:
            reason = f"{key} is not an integer: {text!r}" if read is int else str(exc)
            raise MalformedLine(reason, line_no) from None
        if repeats:
            values.setdefault(attr, []).append(value)
        else:
            values[attr] = value
    return values


def field_lines(values: dict[str, Any], table: FieldTable) -> Iterator[tuple[str, str]]:
    """Yield ``(key, text)`` per field of ``values`` in table order; None writes no line."""
    for key, (attr, repeats, _, write) in table.items():
        value = values[attr]
        if repeats:
            for item in value:
                yield key, write(item)
        elif value is not None:
            yield key, write(value)


def check_value(what: str, value: str) -> None:
    """Raise ValueError unless ``value`` reads back unchanged from a ``key: value`` line."""
    if LINE_BREAK.search(value):
        raise ValueError(f"{what} holds a line break: {value!r}")
    if value != value.strip():
        raise ValueError(f"{what} has leading or trailing whitespace: {value!r}")
