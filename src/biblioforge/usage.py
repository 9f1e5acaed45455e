"""Access-log analytics: most viewed/downloaded reports and co-view recommendations.

The log format is TSV with four columns per line: timestamp (seconds since
epoch), pre-anonymized visitor token, record id, action (``view`` or
``download``).  Malformed lines, including lines that are not valid UTF-8,
are skipped and counted, never fatal; entirely blank lines are ignored.
All reports are pure functions of the event multiset.

A ``LogScan`` reads a log file in binary blocks of ``BLOCK_SIZE`` bytes and
yields each valid event as a plain ``(timestamp, visitor_id, record_id,
action)`` tuple, so the reports count while the file is read: ``top_k``
holds one counter per distinct record, ``co_view_recommend`` one visitor
set per viewed record (the distinct view pairs), and neither holds the
events.  ``read_log`` and ``events_from_lines`` run the same scan and
return lists of ``UsageEvent``.
"""

from __future__ import annotations

import codecs
import logging
from collections import Counter, defaultdict
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import MalformedLine, UnknownRecord

logger = logging.getLogger(__name__)

ACTIONS = ("view", "download")

# Bytes read per block; a block is extended to the end of its last line.
BLOCK_SIZE = 64 * 1024


class UsageEvent(NamedTuple):
    timestamp: int
    visitor_id: str
    record_id: str
    action: str


def parse_log_line(line: str) -> UsageEvent:
    """Parse one log line; trailing whitespace is tolerated."""
    parts = line.rstrip().split("\t")
    if len(parts) != 4:
        raise MalformedLine(f"expected 4 tab-separated fields, got {len(parts)}")
    ts_text, visitor_id, record_id, action = parts
    try:
        timestamp = int(ts_text)
    except ValueError:
        raise MalformedLine(f"bad timestamp: {ts_text!r}") from None
    if timestamp <= 0:
        raise MalformedLine(f"timestamp must be positive: {timestamp}")
    if not visitor_id or not record_id:
        raise MalformedLine("empty visitor or record id")
    if action not in ACTIONS:
        raise MalformedLine(f"bad action: {action!r}")
    return UsageEvent(timestamp, visitor_id, record_id, action)


class LogScan:
    """One pass over a usage log; ``skipped`` counts the malformed lines seen."""

    def __init__(self) -> None:
        self.skipped = 0

    def parse(self, lines: Iterable[str]) -> Iterator[tuple[int, str, str, str]]:
        """The valid events of ``lines`` as 4-tuples, in order."""
        for line in lines:
            # A line whose fields pass these checks is one parse_log_line
            # accepts unchanged (its last field is an action, so it has no
            # trailing whitespace, and int() takes any all-decimal string).
            # Every other line goes through parse_log_line itself.
            try:
                ts_text, visitor_id, record_id, action = line.split("\t")
            except ValueError:  # not four fields
                pass
            else:
                if (
                    (action == "view" or action == "download")
                    and visitor_id
                    and record_id
                    and ts_text.isdecimal()
                ):
                    timestamp = int(ts_text)
                    if timestamp > 0:
                        yield timestamp, visitor_id, record_id, action
                        continue
            if not line.strip():
                continue
            try:
                yield parse_log_line(line)
            except MalformedLine as exc:
                self.skipped += 1
                logger.warning("skipping log line: %s", exc)

    def read(self, path: str | Path) -> Iterator[tuple[int, str, str, str]]:
        """The valid events of the log file at ``path``, read block by block."""
        return self.parse(chain.from_iterable(self._decoded_blocks(path)))

    def _decoded_blocks(self, path: str | Path) -> Iterator[list[str]]:
        # Blocks end just after a b"\n" (or at the end of the file), which is
        # a line boundary of the decoded text too, so splitting each block
        # gives the lines of str.splitlines on the whole file, apart from
        # empty ones, which parse ignores.
        with open(path, "rb") as f:
            if f.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:  # a leading BOM is dropped
                f.seek(0)
            while block := f.read(BLOCK_SIZE):
                block += f.readline()
                try:
                    yield block.decode("utf-8").splitlines()
                except UnicodeDecodeError:
                    yield self._decode_each_line(block)

    def _decode_each_line(self, block: bytes) -> list[str]:
        """The lines of ``block``, less those that are not valid UTF-8."""
        lines: list[str] = []
        for raw in block.splitlines():
            try:
                lines.extend(raw.decode("utf-8").splitlines())
            except UnicodeDecodeError as exc:
                self.skipped += 1
                logger.warning("skipping log line: %s", exc)
        return lines


def events_from_lines(lines: Iterable[str]) -> tuple[list[UsageEvent], int]:
    """Parse many log lines; returns (events, skipped count).

    Entirely blank lines are ignored; other malformed lines are counted.
    """
    scan = LogScan()
    events = list(map(UsageEvent._make, scan.parse(lines)))
    return events, scan.skipped


def read_log(path: str | Path) -> tuple[list[UsageEvent], int]:
    """Read a log file; returns (events, skipped count).

    A line that is not valid UTF-8 is skipped and counted like any other
    malformed line.
    """
    scan = LogScan()
    events = list(map(UsageEvent._make, scan.read(path)))
    return events, scan.skipped


def top_k(
    events: Iterable[tuple[int, str, str, str]],
    action: str,
    k: int,
    time_window: tuple[int | None, int | None] | None = None,
) -> list[tuple[str, int]]:
    """Most-acted-on records: (record_id, count) ranked by count then id.

    Counts events of the given action inside the inclusive time window;
    ties break by record id ascending, and at most ``k`` rows return.
    ``events`` are 4-tuples in ``UsageEvent`` field order, read once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if action not in ACTIONS:
        raise ValueError(f"unknown action: {action!r}")
    start, end = time_window or (None, None)
    lo = float("-inf") if start is None else start
    hi = float("inf") if end is None else end
    counts = Counter(rid for ts, _, rid, act in events if act == action and lo <= ts <= hi)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def co_view_recommend(
    events: Iterable[tuple[int, str, str, str]], target: str, k: int
) -> list[tuple[str, int]]:
    """People-who-viewed-this-also-viewed list for a target record.

    Strength is the number of distinct visitors who viewed both the target
    and the other record (views only); the target itself and zero-strength
    rows are omitted.  Raises UnknownRecord when the target never appears
    in the events at all.  ``events`` are 4-tuples in ``UsageEvent`` field
    order, read once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    viewers: dict[str, set[str]] = defaultdict(set)
    seen_target = False
    for _, visitor_id, record_id, action in events:
        if record_id == target:
            seen_target = True
        if action == "view":
            viewers[record_id].add(visitor_id)
    if not seen_target:
        raise UnknownRecord(target)
    target_viewers = viewers.get(target, set())
    ranked = []
    for record_id, visitor_set in viewers.items():
        if record_id == target:
            continue
        strength = len(target_viewers & visitor_set)
        if strength > 0:
            ranked.append((record_id, strength))
    ranked.sort(key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]
