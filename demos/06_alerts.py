"""
Saved-search alerts
===================

Register subscriptions, run notification batches as the store grows, and
observe the exactly-once watermark semantics.
"""

import tempfile
from pathlib import Path

from biblioforge import (
    AlertStore,
    BibRecord,
    FieldQuery,
    QueryClause,
    RecordStore,
    run_alert_batch,
)

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    store = RecordStore(root / "records")
    alerts = AlertStore(root / "alerts")

    # Subscriptions store a query plus a watermark (last_run).
    dilaton_watch = alerts.register(
        FieldQuery((QueryClause("any", "contains", "dilaton"),)), "ann", now=100
    )
    recent_watch = alerts.register(
        FieldQuery((QueryClause("year", "range", (2005, 2010)),)), "bob", now=100
    )
    print("registered:", dilaton_watch.alert_id[:8], "and", recent_watch.alert_id[:8])

    # First harvest arrives, then a batch runs at time 300.
    store.upsert(BibRecord("r1", "Dilaton Gravity", year=2006, ingest_time=200))
    store.upsert(BibRecord("r2", "Unrelated Note", year=1999, ingest_time=250))
    for note in run_alert_batch(store, alerts.load_all(), 300,
                                notifications_dir=root / "notifications",
                                alert_store=alerts):
        print(f"batch@300: alert {note.alert_id[:8]} -> {list(note.record_ids)}")

    # More records arrive; only the new ones are notified at time 600.
    store.upsert(BibRecord("r3", "Dilaton Review", year=2008, ingest_time=500))
    for note in run_alert_batch(store, alerts.load_all(), 600,
                                notifications_dir=root / "notifications",
                                alert_store=alerts):
        print(f"batch@600: alert {note.alert_id[:8]} -> {list(note.record_ids)}")

    # A third run with nothing new emits nothing at all.
    print("batch@900:", run_alert_batch(store, alerts.load_all(), 900, alert_store=alerts))

    written = sorted(p.relative_to(root) for p in (root / "notifications").rglob("*.tsv"))
    print("\nnotification files:")
    for path in written:
        print(" ", path)
