"""Saved-search subscriptions and batch notification runs.

A subscription stores a field query with a watermark (``last_run``).  A
batch run notifies each subscription about records whose ingest time falls
in the half-open window (last_run, now] and that match the query, then
advances the watermark to ``now``.  So a record ingested at or below the
watermark (a late arrival, or one in the last batch's second) is never
delivered; a crash between a notification and the save re-delivers it.

A batch reads the records once, one at a time, and matches each against
every subscription whose window holds its ingest time.  It keeps only the
matched ids and their titles, so its memory grows with the deliveries,
not with the store; files are written only after the last record is read.

Subscription files are in the ``key: value`` format of ``fields``, with the
fields ``_FIELDS`` declares; unlike records, they may hold empty values.  A
``clause`` value ``parse_clause`` refuses is a MalformedLine naming its line.

The batch runner is single-instance by contract; registration may run
concurrently with readers but not with a batch run.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import MalformedLine, MissingField, in_file
from .fields import check_value, field_lines, read_fields
from .records import (
    BibRecord,
    FieldQuery,
    _read_text,
    format_clause,
    list_files,
    make_dir,
    match_query,
    parse_clause,
    write_atomic,
)


@dataclass
class AlertSubscription:
    alert_id: str
    query: FieldQuery
    owner: str
    created: int
    last_run: int

    def __post_init__(self) -> None:
        if not self.alert_id:
            raise ValueError("alert_id must be non-empty")
        if self.last_run < self.created:
            raise ValueError("last_run must be >= created")


@dataclass(frozen=True)
class Notification:
    alert_id: str
    record_ids: tuple[str, ...]


# The fields of a subscription file, in file order.
_FIELDS = {
    "alert_id": ("alert_id", False, str, str),
    "owner": ("owner", False, str, str),
    "created": ("created", False, int, str),
    "last_run": ("last_run", False, int, str),
    "clause": ("clauses", True, parse_clause, format_clause),
}


def serialize_subscription(sub: AlertSubscription) -> str:
    values = {**vars(sub), "clauses": sub.query.clauses}
    return "".join([f"{key}: {value}\n" for key, value in field_lines(values, _FIELDS)])


def parse_subscription(text: str) -> AlertSubscription:
    values = read_fields(text.splitlines(), _FIELDS, "subscription", empty_ok=True)
    for key, (attr, repeats, _, _) in _FIELDS.items():
        if not repeats and attr not in values:  # every single key is mandatory
            raise MissingField(key, "subscription")
    return AlertSubscription(query=FieldQuery(tuple(values.pop("clauses", ()))), **values)


class AlertStore:
    """Directory of one ``<alert_id>.alert`` file per subscription."""

    def __init__(self, root: str | Path):
        self.root = make_dir(root, "alert store")

    def _path(self, alert_id: str) -> str:
        return os.path.join(self.root, f"{alert_id}.alert")

    def save(self, sub: AlertSubscription) -> None:
        write_atomic(self._path(sub.alert_id), serialize_subscription(sub))

    def get(self, alert_id: str) -> AlertSubscription:
        """The subscription stored as ``<alert_id>.alert``; a file's parse error names it."""
        try:
            if (text := _read_text(path := self._path(alert_id))) is None:
                raise MissingField("alert_id", f"no subscription {alert_id}")
            sub = parse_subscription(text)
            if sub.alert_id != alert_id:  # a batch saves by id: a copy would never advance
                raise ValueError(f"alert_id {sub.alert_id!r} is not the file name")
        except (MalformedLine, MissingField, ValueError) as exc:
            raise in_file(exc, path)
        return sub

    def load_all(self) -> list[AlertSubscription]:
        """Every stored subscription, sorted by id; the first malformed file stops the load."""
        return [self.get(alert_id) for alert_id in list_files(self.root, ".alert")]

    def register(self, query: FieldQuery, owner: str, now: int | None = None) -> AlertSubscription:
        """Persist a new subscription; created and last_run start at ``now``.

        Raises ValueError when the owner or a text clause value holds a line
        break or leading or trailing whitespace, which the file could not
        hold unchanged.
        """
        check_value("owner", owner)
        for clause in query.clauses:
            if isinstance(clause.value, str):
                check_value("clause value", clause.value)
        stamp = int(time.time()) if now is None else now
        sub = AlertSubscription(
            alert_id=uuid.uuid4().hex,
            query=query,
            owner=owner,
            created=stamp,
            last_run=stamp,
        )
        self.save(sub)
        return sub


def run_alert_batch(
    records: Iterable[BibRecord],
    subscriptions: list[AlertSubscription],
    now: int,
    notifications_dir: str | Path | None = None,
    alert_store: AlertStore | None = None,
) -> list[Notification]:
    """Notify each subscription about newly ingested matching records.

    A record matches a subscription when ``last_run < ingest_time <= now``
    and the query matches; afterwards every subscription's watermark
    advances to ``now`` (never backwards).  Subscriptions with no matches
    emit nothing; a record matching several subscriptions appears in each
    of their notifications.

    With ``notifications_dir`` set, each non-empty notification is written
    to ``<dir>/<now>/<alert_id>.tsv`` (record id and title per row, a tab
    in a title becoming a space) before its watermark is persisted through
    ``alert_store``.  Nothing is written until ``records`` is exhausted, so
    a failed read writes nothing.  Record ids are taken to be unique, as a
    store yields them.
    """
    # A record at or below every watermark skips the subscription loop.
    floor = min((sub.last_run for sub in subscriptions), default=now)
    matches: list[list[str]] = [[] for _ in subscriptions]
    titles: dict[str, str] = {}
    for record in records:
        stamp = record.ingest_time
        if stamp is None or not floor < stamp <= now:
            continue
        for sub, matched in zip(subscriptions, matches):
            if sub.last_run < stamp and match_query(sub.query, record):
                matched.append(record.record_id)
                titles[record.record_id] = record.title.replace("\t", " ")

    notifications = []
    for sub, matched in zip(subscriptions, matches):
        if matched:
            note = Notification(sub.alert_id, tuple(sorted(matched)))
            notifications.append(note)
            if notifications_dir is not None:
                _write_notification(Path(notifications_dir), now, note, titles)
        sub.last_run = max(sub.last_run, now)
        if alert_store is not None:
            alert_store.save(sub)
    notifications.sort(key=lambda n: n.alert_id)
    return notifications


def _write_notification(
    root: Path, batch_ts: int, note: Notification, titles: dict[str, str]
) -> None:
    batch_dir = make_dir(root / str(batch_ts), "notification directory")
    rows = "".join(f"{rid}\t{titles.get(rid, '')}\n" for rid in note.record_ids)
    write_atomic(batch_dir / f"{note.alert_id}.tsv", rows)
