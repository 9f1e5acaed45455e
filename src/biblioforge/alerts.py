"""Saved-search subscriptions and batch notification runs.

A subscription stores a field query with a watermark (``last_run``).  A
batch run notifies each subscription about records whose ingest time falls
in the half-open window (last_run, now] and that match the query, then
advances the watermark to ``now``.  This gives exactly-once delivery per
(subscription, record) across any sequence of batch runs.

The batch runner is single-instance by contract; registration may run
concurrently with readers but not with a batch run.
"""

from __future__ import annotations

import logging
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from .errors import MalformedLine, MissingField, StorageFailure
from .records import FieldQuery, match_query, parse_clause, sorted_records, write_atomic

logger = logging.getLogger(__name__)


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


def _clause_text(clause) -> str:
    value = clause.value
    if isinstance(value, tuple):
        value = f"{value[0]}..{value[1]}"
    return f"{clause.field}:{clause.match}:{value}"


def serialize_subscription(sub: AlertSubscription) -> str:
    lines = [
        f"alert_id: {sub.alert_id}",
        f"owner: {sub.owner}",
        f"created: {sub.created}",
        f"last_run: {sub.last_run}",
    ]
    lines.extend(f"clause: {_clause_text(c)}" for c in sub.query.clauses)
    return "\n".join(lines) + "\n"


def parse_subscription(text: str) -> AlertSubscription:
    singles: dict[str, str] = {}
    clauses = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise MalformedLine("no key separator", line_no)
        key, value = key.strip(), value.strip()
        if key == "clause":
            clauses.append(parse_clause(value))
        elif key in ("alert_id", "owner", "created", "last_run"):
            singles[key] = value
        else:
            logger.warning("subscription line %d: ignoring unknown key %r", line_no, key)
    for key in ("alert_id", "owner", "created", "last_run"):
        if key not in singles:
            raise MissingField(key, "subscription")
    return AlertSubscription(
        alert_id=singles["alert_id"],
        query=FieldQuery(tuple(clauses)),
        owner=singles["owner"],
        created=int(singles["created"]),
        last_run=int(singles["last_run"]),
    )


class AlertStore:
    """Directory of one ``<alert_id>.alert`` file per subscription."""

    def __init__(self, root: str | Path, create: bool = True):
        self.root = Path(root)
        if create:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StorageFailure(f"cannot create alert store at {self.root}: {exc}") from exc
        elif not self.root.is_dir():
            raise StorageFailure(f"alert store directory does not exist: {self.root}")

    def _path(self, alert_id: str) -> Path:
        return self.root / f"{alert_id}.alert"

    def save(self, sub: AlertSubscription) -> None:
        write_atomic(self._path(sub.alert_id), serialize_subscription(sub))

    def get(self, alert_id: str) -> AlertSubscription:
        path = self._path(alert_id)
        if not path.is_file():
            raise MissingField("alert_id", f"no subscription {alert_id}")
        return parse_subscription(path.read_text(encoding="utf-8"))

    def load_all(self) -> list[AlertSubscription]:
        subs = [
            parse_subscription(p.read_text(encoding="utf-8"))
            for p in self.root.glob("*.alert")
        ]
        subs.sort(key=lambda s: s.alert_id)
        return subs

    def register(self, query: FieldQuery, owner: str, now: int | None = None) -> AlertSubscription:
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


def register_alert(
    store: AlertStore, query: FieldQuery, owner: str, now: int | None = None
) -> AlertSubscription:
    """Persist a new subscription; created and last_run start at now."""
    return store.register(query, owner, now)


def run_alert_batch(
    store,
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
    to ``<dir>/<now>/<alert_id>.tsv`` (record id and title per row) before
    its watermark is persisted through ``alert_store``.
    """
    records = sorted_records(store)
    titles = {r.record_id: r.title for r in records}
    notifications = []
    for sub in subscriptions:
        matching = sorted(
            r.record_id
            for r in records
            if r.ingest_time is not None
            and sub.last_run < r.ingest_time <= now
            and match_query(sub.query, r)
        )
        if matching:
            note = Notification(sub.alert_id, tuple(matching))
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
    batch_dir = root / str(batch_ts)
    try:
        batch_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageFailure(f"cannot create notification directory {batch_dir}: {exc}") from exc
    rows = "".join(f"{rid}\t{titles.get(rid, '')}\n" for rid in note.record_ids)
    write_atomic(batch_dir / f"{note.alert_id}.tsv", rows)
