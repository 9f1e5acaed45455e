"""Access-log analytics: most viewed/downloaded reports and co-view recommendations.

The log format is TSV with four columns per line: timestamp (seconds since
epoch), pre-anonymized visitor token, record id, action (``view`` or
``download``).  Malformed lines are skipped and counted by the batch
reader, never fatal.  All reports are pure functions of the event multiset.
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import MalformedLine, UnknownRecord

logger = logging.getLogger(__name__)

ACTIONS = ("view", "download")


@dataclass(frozen=True, slots=True)
class UsageEvent:
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


def events_from_lines(lines: Iterable[str]) -> tuple[list[UsageEvent], int]:
    """Parse many log lines; returns (events, skipped count).

    Entirely blank lines are ignored; other malformed lines are counted.
    """
    events: list[UsageEvent] = []
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            events.append(parse_log_line(line))
        except MalformedLine as exc:
            skipped += 1
            logger.warning("skipping log line: %s", exc)
    return events, skipped


def read_log(path: str | Path) -> tuple[list[UsageEvent], int]:
    """Read a log file; returns (events, skipped count).

    A line that is not valid UTF-8 is skipped and counted like any other
    malformed line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return _read_damaged_log(Path(path).read_bytes())
    return events_from_lines(text.splitlines())


def _read_damaged_log(data: bytes) -> tuple[list[UsageEvent], int]:
    """Decode line by line, skipping the lines that are not valid UTF-8."""
    lines: list[str] = []
    undecodable = 0
    for raw in data.splitlines():
        try:
            lines.extend(raw.decode("utf-8").splitlines())
        except UnicodeDecodeError as exc:
            undecodable += 1
            logger.warning("skipping log line: %s", exc)
    events, skipped = events_from_lines(lines)
    return events, skipped + undecodable


def _in_window(timestamp: int, window: tuple[int | None, int | None] | None) -> bool:
    if window is None:
        return True
    start, end = window
    if start is not None and timestamp < start:
        return False
    if end is not None and timestamp > end:
        return False
    return True


def top_k(
    events: Iterable[UsageEvent],
    action: str,
    k: int,
    time_window: tuple[int | None, int | None] | None = None,
) -> list[tuple[str, int]]:
    """Most-acted-on records: (record_id, count) ranked by count then id.

    Counts events of the given action inside the inclusive time window;
    ties break by record id ascending, and at most ``k`` rows return.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if action not in ACTIONS:
        raise ValueError(f"unknown action: {action!r}")
    counts: Counter[str] = Counter()
    for event in events:
        if event.action == action and _in_window(event.timestamp, time_window):
            counts[event.record_id] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def co_view_recommend(
    events: Iterable[UsageEvent], target: str, k: int
) -> list[tuple[str, int]]:
    """People-who-viewed-this-also-viewed list for a target record.

    Strength is the number of distinct visitors who viewed both the target
    and the other record (views only); the target itself and zero-strength
    rows are omitted.  Raises UnknownRecord when the target never appears
    in the events at all.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    viewers: dict[str, set[str]] = defaultdict(set)
    seen_target = False
    for event in events:
        record_id = event.record_id
        if record_id == target:
            seen_target = True
        if event.action == "view":
            viewers[record_id].add(event.visitor_id)
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
