"""Tests for saved-search subscriptions and batch notification semantics."""

from __future__ import annotations

import copy
import gc
import logging
import random
import re
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biblioforge import (
    AlertStore,
    AlertSubscription,
    BibRecord,
    FieldQuery,
    MalformedLine,
    MissingField,
    QueryClause,
    RecordStore,
    StorageFailure,
    match_query,
    run_alert_batch,
)
from biblioforge import alerts
from biblioforge.alerts import parse_subscription, serialize_subscription
from biblioforge.cli import dispatch

from .oracles import naive_alert_batch

_TITLES = ["alpha study", "beta notes", "gamma survey", "delta review"]
_AUTHORS = ["smith", "jones", "garcia", "okafor"]
_JOURNALS = [None, "New Sci.", "Phys. Rev., A"]


def _random_records(rng: random.Random, n: int, horizon: int) -> list[BibRecord]:
    records = []
    for i in range(n):
        records.append(
            BibRecord(
                record_id=f"r{i:03d}",
                title=rng.choice(_TITLES),
                authors=[rng.choice(_AUTHORS)],
                year=rng.choice([None, *range(1990, 2011)]),
                journal=rng.choice(_JOURNALS),
                ingest_time=rng.randint(1, horizon),
            )
        )
    return records


def _random_clause(rng: random.Random) -> QueryClause:
    kind = rng.randrange(4)
    if kind == 0:
        return QueryClause("author", "contains", rng.choice(["smi", "jo", "gar", "zz"]))
    if kind == 1:
        return QueryClause("title", "contains", rng.choice(["alpha", "beta", "survey", "qqq"]))
    if kind == 2:
        lo, hi = sorted((rng.randint(1985, 2012), rng.randint(1985, 2012)))
        return QueryClause("year", "range", (lo, hi))
    return QueryClause("any", "contains", rng.choice(["review", "smith", "sci"]))


def run_interleaving_trial(rng: random.Random) -> None:
    """One randomized ingest/batch interleaving; asserts the alert invariants.

    Exactly-once: across all batch runs, a record id appears at most once in
    a given subscription's notification history.  Completeness: the union of
    all batches equals a single-pass replay over the final window.
    """
    horizon = 10_000
    t0 = 100
    records = _random_records(rng, rng.randint(1, 100), horizon)
    subs = [
        AlertSubscription(f"a{j}", FieldQuery((_random_clause(rng),)), "owner", t0, t0)
        for j in range(rng.randint(1, 10))
    ]
    n_batches = rng.randint(1, 10)
    batch_times = sorted(rng.sample(range(t0 + 1, horizon + 1), n_batches))

    history: dict[str, list[str]] = {s.alert_id: [] for s in subs}
    for t in batch_times:
        order = list(subs)
        rng.shuffle(order)  # iteration order must not matter
        for note in run_alert_batch(records, order, t):
            history[note.alert_id].extend(note.record_ids)

    t_final = batch_times[-1]
    for sub in subs:
        notified = history[sub.alert_id]
        assert len(notified) == len(set(notified)), "exactly-once violated"
        # single-pass replay oracle over the whole window
        expected = sorted(
            r.record_id
            for r in records
            if t0 < r.ingest_time <= t_final and match_query(sub.query, r)
        )
        assert sorted(notified) == expected, "completeness violated"


class TestRegister:
    def test_retrievable_by_id(self, tmp_path: Path):
        store = AlertStore(tmp_path / "alerts")
        query = FieldQuery((QueryClause("author", "contains", "pepe"),))
        sub = store.register(query, "me", now=50)
        loaded = store.get(sub.alert_id)
        assert loaded == sub

    def test_identical_queries_get_distinct_ids(self, tmp_path: Path):
        store = AlertStore(tmp_path / "alerts")
        query = FieldQuery((QueryClause("author", "contains", "pepe"),))
        first = store.register(query, "me", now=50)
        second = store.register(query, "me", now=50)
        assert first.alert_id != second.alert_id
        assert len(store.load_all()) == 2

    def test_empty_clause_list_rejected(self):
        with pytest.raises(ValueError):
            FieldQuery(())

    def test_round_trip_with_range_clause(self, tmp_path: Path):
        store = AlertStore(tmp_path / "alerts")
        query = FieldQuery(
            (
                QueryClause("year", "range", (2000, 2005)),
                QueryClause("title", "contains", "gravity"),
            )
        )
        sub = store.register(query, "me", now=7)
        assert store.get(sub.alert_id).query == query

    def test_last_run_before_created_rejected(self):
        query = FieldQuery((QueryClause("author", "contains", "x"),))
        with pytest.raises(ValueError):
            AlertSubscription("a", query, "o", created=10, last_run=5)


class TestStoredValues:
    """Whatever ``register`` accepts, ``load_all`` returns unchanged."""

    @pytest.mark.parametrize("char", list("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_line_break_refused_in_owner_and_clause_value(self, tmp_path: Path, char):
        store = AlertStore(tmp_path / "alerts")
        query = FieldQuery((QueryClause("title", "contains", "x"),))
        with pytest.raises(ValueError, match="line break"):
            store.register(query, f"me{char}last_run: 5", now=10)
        bad = FieldQuery((QueryClause("title", "contains", f"x{char}last_run: 5"),))
        with pytest.raises(ValueError, match="line break"):
            store.register(bad, "me", now=10)
        assert store.load_all() == []

    @pytest.mark.parametrize("value", [" me", "me ", "me\t", "\u3000me"])
    def test_padded_values_refused(self, tmp_path: Path, value):
        store = AlertStore(tmp_path / "alerts")
        query = FieldQuery((QueryClause("title", "contains", "x"),))
        with pytest.raises(ValueError, match="whitespace"):
            store.register(query, value, now=10)
        with pytest.raises(ValueError, match="whitespace"):
            store.register(FieldQuery((QueryClause("author", "equals", value),)), "me", now=10)

    @pytest.mark.parametrize("key", ["alert_id", "owner", "created", "last_run"])
    def test_repeated_single_key_is_malformed(self, key):
        sub = AlertSubscription("a1", FieldQuery((QueryClause("title", "contains", "x"),)), "me", 5, 5)
        text = serialize_subscription(sub)
        repeated = text + f"{key}: 9\n"
        with pytest.raises(MalformedLine) as info:
            parse_subscription(repeated)
        assert info.value.line_no == len(text.splitlines()) + 1
        assert parse_subscription(text) == sub

    @pytest.mark.parametrize(
        "edit, error, text",
        [
            (lambda t: t + "last_run: 9\n", MalformedLine, "line 6: duplicate key 'last_run' (first on line 4) in "),
            (lambda t: t + "no separator\n", MalformedLine, "line 6: no key separator in "),
            (lambda t: t.replace("owner: you\n", ""), MissingField, "owner (subscription) in "),
            (lambda t: t + "clause: nonsense\n", MalformedLine, "line 6: clause must be field:match:value"),
            (
                lambda t: t + "clause: year:equals:abc\n",
                MalformedLine,
                "line 6: clause 'year:equals:abc' needs an integer year, got 'abc' in ",
            ),
            (
                lambda t: t.replace("created: 5\n", "created: x\n"),
                MalformedLine,
                "line 3: created is not an integer: 'x' in ",
            ),
            (
                lambda t: t.replace("last_run: 5\n", "last_run: 5.5\n"),
                MalformedLine,
                "line 4: last_run is not an integer: '5.5' in ",
            ),
            # "\udcff" encodes as the byte 0xff
            (lambda t: t + "\udcff\n", MalformedLine, "line 6: not valid UTF-8: invalid start byte in "),
        ],
        ids=[
            "duplicate-key",
            "no-separator",
            "missing-owner",
            "bad-clause",
            "bad-year-clause",
            "bad-created",
            "bad-last-run",
            "not-utf8",
        ],
    )
    def test_malformed_file_is_named(self, tmp_path: Path, edit, error, text):
        store = AlertStore(tmp_path / "alerts")
        store.register(FieldQuery((QueryClause("title", "contains", "x"),)), "me", now=5)
        bad = store.register(FieldQuery((QueryClause("title", "contains", "y"),)), "you", now=5)
        path = store.root / f"{bad.alert_id}.alert"
        path.write_bytes(edit(path.read_text(encoding="utf-8")).encode("utf-8", "surrogateescape"))
        for load in (store.load_all, lambda: store.get(bad.alert_id)):
            with pytest.raises(error, match=re.escape(text) + ".*" + re.escape(str(path))):
                load()

    def test_file_whose_id_is_not_its_name_is_refused(self, tmp_path: Path):
        # a batch would save the copy's watermark under the original's name,
        # so the copy would deliver the same records in every batch
        store = AlertStore(tmp_path / "alerts")
        sub = store.register(FieldQuery((QueryClause("title", "contains", "x"),)), "me", now=5)
        copy = store.root / "copy.alert"
        copy.write_bytes((store.root / f"{sub.alert_id}.alert").read_bytes())
        message = f"alert_id {sub.alert_id!r} is not the file name in {copy}"
        for load in (store.load_all, lambda: store.get("copy")):
            with pytest.raises(ValueError, match=re.escape(message)):
                load()
        assert store.get(sub.alert_id) == sub

    def test_missing_subscription(self, tmp_path: Path):
        with pytest.raises(MissingField, match="no subscription nope"):
            AlertStore(tmp_path / "alerts").get("nope")

    def test_unknown_key_warns_and_is_ignored(self, caplog):
        sub = AlertSubscription("a1", FieldQuery((QueryClause("title", "contains", "x"),)), "me", 5, 5)
        with caplog.at_level(logging.WARNING, logger="biblioforge.alerts"):
            assert parse_subscription(serialize_subscription(sub) + "colour: blue\n") == sub
        assert "subscription line 6: ignoring unknown key 'colour'" in caplog.text

    def test_non_integer_time_fails_the_batch_with_exit_1(self, tmp_path: Path, capsys):
        store = AlertStore(tmp_path / "alerts")
        sub = store.register(FieldQuery((QueryClause("title", "contains", "x"),)), "me", now=5)
        path = store.root / f"{sub.alert_id}.alert"
        path.write_text(path.read_text(encoding="utf-8").replace("created: 5\n", "created: x\n"), encoding="utf-8")
        code = dispatch(
            [
                "alerts",
                "run",
                "--now",
                "10",
                "--store-dir",
                str(tmp_path / "store"),
                "--alerts-dir",
                str(store.root),
                "--notifications-dir",
                str(tmp_path / "notes"),
            ]
        )
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert f"line 3: created is not an integer: 'x' in {path}" in captured.err
        assert not (tmp_path / "notes").exists()

    @pytest.mark.parametrize(
        "clause",
        [
            QueryClause("title", "contains", 5),
            QueryClause("year", "contains", 2006),
            QueryClause("author", "equals", None),
            QueryClause("year", "equals", "2006"),
            QueryClause("year", "equals", True),
            QueryClause("year", "range", (2000, "2005")),
        ],
    )
    def test_clause_value_the_file_cannot_carry_is_refused(self, clause):
        # the file stores every value as text, so 5 would come back as "5"
        with pytest.raises(ValueError, match="value must be"):
            FieldQuery((clause,))

    def test_directory_named_like_a_subscription_is_skipped(self, tmp_path: Path):
        store = AlertStore(tmp_path / "alerts")
        sub = store.register(FieldQuery((QueryClause("title", "contains", "x"),)), "me", now=5)
        (store.root / "x.alert").mkdir()
        assert store.load_all() == [sub]

    @given(
        owner=st.text(),
        clauses=st.lists(
            st.one_of(
                st.builds(
                    QueryClause,
                    st.sampled_from(["title", "author", "journal", "report_number", "keyword", "any", "year"]),
                    st.sampled_from(["contains", "equals"]),
                    st.text(),
                ).filter(lambda c: not (c.field == "year" and c.match == "equals")),
                st.builds(lambda y: QueryClause("year", "equals", y), st.integers()),
                st.builds(
                    lambda a, b: QueryClause("year", "range", (min(a, b), max(a, b))),
                    st.integers(),
                    st.integers(),
                ),
            ),
            min_size=1,
            max_size=3,
        ),
        now=st.integers(),
    )
    @settings(max_examples=200, deadline=None)
    def test_register_round_trip(self, owner, clauses, now):
        with tempfile.TemporaryDirectory() as tmp:
            store = AlertStore(tmp)
            try:
                sub = store.register(FieldQuery(tuple(clauses)), owner, now=now)
            except ValueError:
                return
            assert store.load_all() == [sub]


def _sub(alert_id: str, clause: QueryClause, t0: int = 100) -> AlertSubscription:
    return AlertSubscription(alert_id, FieldQuery((clause,)), "owner", t0, t0)


class TestFailedWrites:
    """A failed write raises StorageFailure and leaves no temporary file behind."""

    def test_subscription_save(self, tmp_path):
        alerts = AlertStore(tmp_path / "alerts")
        sub = _sub("a1", QueryClause("title", "contains", "t"))
        (alerts.root / "a1.alert").mkdir()  # the rename onto a directory fails
        with pytest.raises(StorageFailure):
            alerts.save(sub)
        assert list(alerts.root.glob("*.tmp")) == []

    def test_notification_write(self, tmp_path):
        notes_dir = tmp_path / "notes"
        (notes_dir / "200" / "a1.tsv").mkdir(parents=True)
        records = [BibRecord("r1", "Fresh result", ingest_time=150)]
        sub = _sub("a1", QueryClause("title", "contains", "fresh"))
        with pytest.raises(StorageFailure):
            run_alert_batch(records, [sub], 200, notifications_dir=notes_dir)
        assert list((notes_dir / "200").glob("*.tmp")) == []


class TestRunBatch:
    def test_no_new_records_no_notifications(self):
        records = [BibRecord("r1", "T", ingest_time=50)]
        sub = _sub("a1", QueryClause("title", "contains", "t"), t0=100)
        assert run_alert_batch(records, [sub], 200) == []
        assert sub.last_run == 200

    def test_identical_subscriptions_fan_out(self):
        records = [BibRecord("r1", "Fresh result", ingest_time=150)]
        clause = QueryClause("title", "contains", "fresh")
        subs = [_sub("a1", clause), _sub("a2", clause)]
        notes = run_alert_batch(records, subs, 200)
        assert [(n.alert_id, n.record_ids) for n in notes] == [
            ("a1", ("r1",)),
            ("a2", ("r1",)),
        ]

    def test_window_is_half_open(self):
        sub = _sub("a1", QueryClause("title", "contains", "t"), t0=100)
        at_watermark = [BibRecord("r1", "T", ingest_time=100)]
        assert run_alert_batch(at_watermark, [sub], 200) == []
        sub2 = _sub("a2", QueryClause("title", "contains", "t"), t0=100)
        at_now = [BibRecord("r1", "T", ingest_time=200)]
        notes = run_alert_batch(at_now, [sub2], 200)
        assert notes[0].record_ids == ("r1",)

    def test_tab_in_title_becomes_a_space_in_the_row(self, tmp_path: Path):
        records = [BibRecord("p1", "Dilaton\tfields", ingest_time=150)]
        sub = _sub("a1", QueryClause("title", "contains", "dilaton"))
        run_alert_batch(records, [sub], 200, notifications_dir=tmp_path)
        assert (tmp_path / "200" / "a1.tsv").read_text(encoding="utf-8") == "p1\tDilaton fields\n"

    def test_watermark_never_moves_backwards(self):
        sub = _sub("a1", QueryClause("title", "contains", "t"), t0=100)
        run_alert_batch([], [sub], 500)
        run_alert_batch([], [sub], 300)
        assert sub.last_run == 500

    def test_exactly_once_across_two_runs(self):
        records = [
            BibRecord("r1", "Early paper", ingest_time=150),
            BibRecord("r2", "Late paper", ingest_time=250),
        ]
        sub = _sub("a1", QueryClause("title", "contains", "paper"))
        first = run_alert_batch(records, [sub], 200)
        second = run_alert_batch(records, [sub], 300)
        assert first[0].record_ids == ("r1",)
        assert second[0].record_ids == ("r2",)

    def test_staggered_ingest_two_runs_union_equals_replay(self):
        rng = random.Random(4)
        records = [
            BibRecord(f"r{i:02d}", rng.choice(_TITLES), ingest_time=100 + 10 * i)
            for i in range(20)
        ]
        clauses = [
            QueryClause("title", "contains", "alpha"),
            QueryClause("title", "contains", "beta"),
            QueryClause("title", "contains", "gamma"),
            QueryClause("title", "contains", "delta"),
            QueryClause("any", "contains", "study"),
        ]
        subs = [_sub(f"a{i}", c, t0=100) for i, c in enumerate(clauses)]
        union: dict[str, set[str]] = {s.alert_id: set() for s in subs}
        for t in (180, 300):
            for note in run_alert_batch(records, subs, t):
                assert union[note.alert_id].isdisjoint(note.record_ids)
                union[note.alert_id].update(note.record_ids)
        for sub in subs:
            expected = {
                r.record_id
                for r in records
                if 100 < r.ingest_time <= 300 and match_query(sub.query, r)
            }
            assert union[sub.alert_id] == expected

    def test_notification_files_written(self, tmp_path: Path):
        records = [BibRecord("r1", "Fresh result", ingest_time=150)]
        sub = _sub("a1", QueryClause("title", "contains", "fresh"))
        notes_dir = tmp_path / "notifications"
        run_alert_batch(records, [sub], 200, notifications_dir=notes_dir)
        path = notes_dir / "200" / "a1.tsv"
        assert path.read_text(encoding="utf-8") == "r1\tFresh result\n"

    def test_empty_subscription_emits_no_file(self, tmp_path: Path):
        sub = _sub("a1", QueryClause("title", "contains", "zzz"))
        notes_dir = tmp_path / "notifications"
        run_alert_batch([], [sub], 200, notifications_dir=notes_dir)
        assert not (notes_dir / "200").exists()

    def test_watermark_persisted_through_store(self, tmp_path: Path):
        record_store = RecordStore(tmp_path / "records")
        record_store.upsert(BibRecord("r1", "Fresh result", ingest_time=150))
        alert_store = AlertStore(tmp_path / "alerts")
        query = FieldQuery((QueryClause("title", "contains", "fresh"),))
        sub = alert_store.register(query, "me", now=100)
        notes = run_alert_batch(record_store.iter_records(), [sub], 200, alert_store=alert_store)
        assert notes[0].record_ids == ("r1",)
        # a second runner that reloads from disk must not re-notify
        reloaded = alert_store.load_all()
        assert reloaded[0].last_run == 200
        records = record_store.iter_records()
        assert run_alert_batch(records, reloaded, 300, alert_store=alert_store) == []
        assert alert_store.get(sub.alert_id).last_run == 300


_stamps = st.one_of(st.none(), st.integers(95, 125))


@st.composite
def _batch_inputs(draw):
    """Records with unique ids, some never stamped, and subscriptions whose
    watermarks differ, around a batch clock ``now`` that may lie below them."""
    records = [
        BibRecord(
            f"r{i}",
            draw(st.sampled_from(["alpha\tstudy", "beta notes", "Alpha beta"])),
            authors=[draw(st.sampled_from(_AUTHORS))],
            year=draw(st.sampled_from([None, 1995, 2005])),
            ingest_time=draw(_stamps),
        )
        for i in range(draw(st.integers(0, 8)))
    ]
    clauses = st.sampled_from(
        [
            QueryClause("title", "contains", "alpha"),
            QueryClause("title", "contains", "beta"),
            QueryClause("author", "contains", "o"),
            QueryClause("year", "range", (1990, 2000)),
            QueryClause("any", "contains", "zzz"),
        ]
    )
    subs = []
    for j in range(draw(st.integers(0, 5))):
        last_run = draw(st.integers(95, 125))
        subs.append(AlertSubscription(f"a{j}", FieldQuery((draw(clauses),)), "o", 90, last_run))
    return records, draw(st.permutations(subs)), draw(st.integers(95, 125))


class TestRunBatchOnePass:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_order_equals_the_per_subscription_oracle(self, data):
        records, subs, now = data.draw(_batch_inputs())
        shuffled = data.draw(st.permutations(records))
        expected_subs = copy.deepcopy(subs)
        expected, expected_writes = naive_alert_batch(records, expected_subs, now)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            writes = []
            write_atomic = alerts.write_atomic

            def spy(path, text):
                writes.append((Path(path).relative_to(root).as_posix(), text))
                write_atomic(path, text)

            with mock.patch.object(alerts, "write_atomic", spy):
                notes = run_alert_batch(
                    iter(shuffled),
                    subs,
                    now,
                    notifications_dir=root / "notifications",
                    alert_store=AlertStore(root / "alerts"),
                )
            on_disk = {
                path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
                for path in root.rglob("*")
                if path.is_file()
            }
        assert notes == expected
        assert subs == expected_subs  # watermarks
        assert writes == expected_writes
        assert on_disk == dict(expected_writes)

    def test_failed_read_writes_nothing(self, tmp_path: Path):
        def feed():
            yield BibRecord("r1", "Fresh result", ingest_time=150)
            raise MalformedLine("no key separator", 3)

        sub = _sub("a1", QueryClause("title", "contains", "fresh"))
        alert_store = AlertStore(tmp_path / "alerts")
        with pytest.raises(MalformedLine):
            run_alert_batch(
                feed(), [sub], 200, notifications_dir=tmp_path / "notes", alert_store=alert_store
            )
        assert sub.last_run == 100
        assert list(tmp_path.rglob("*")) == [tmp_path / "alerts"]

    def test_no_record_outlives_the_next(self, tmp_path: Path):
        refs: list[weakref.ref] = []
        alive_when_exhausted: list[int] = []

        def feed():
            for i in range(30):
                record = BibRecord(f"r{i:02d}", f"Paper {i}", ingest_time=100 + i)
                refs.append(weakref.ref(record))
                yield record
                del record
            gc.collect()
            alive_when_exhausted.append(sum(ref() is not None for ref in refs))

        subs = [
            _sub("a1", QueryClause("title", "contains", "paper 1"), t0=100),
            _sub("a2", QueryClause("title", "contains", "paper"), t0=120),
        ]
        notes = run_alert_batch(feed(), subs, 200, notifications_dir=tmp_path)
        assert [len(note.record_ids) for note in notes] == [11, 9]
        assert (tmp_path / "200" / "a2.tsv").read_text(encoding="utf-8").startswith("r21\tPaper 21\n")
        assert alive_when_exhausted[0] <= 1


class TestInterleavingProperty:
    def test_hundred_random_trials(self):
        for seed in range(100):
            run_interleaving_trial(random.Random(seed))

    def test_file_backed_trials(self, tmp_path: Path):
        # smaller scale, but through the real stores with reload per batch
        for seed in range(5):
            rng = random.Random(1000 + seed)
            root = tmp_path / f"trial{seed}"
            record_store = RecordStore(root / "records")
            for record in _random_records(rng, rng.randint(1, 30), 5000):
                record_store.upsert(record)
            alert_store = AlertStore(root / "alerts")
            protos = [
                alert_store.register(FieldQuery((_random_clause(rng),)), "owner", now=100)
                for _ in range(rng.randint(1, 4))
            ]
            batch_times = sorted(rng.sample(range(101, 5001), rng.randint(1, 5)))
            history: dict[str, list[str]] = {p.alert_id: [] for p in protos}
            for t in batch_times:
                subs = alert_store.load_all()
                records = record_store.iter_records()
                for note in run_alert_batch(records, subs, t, alert_store=alert_store):
                    history[note.alert_id].extend(note.record_ids)
            for proto in protos:
                notified = history[proto.alert_id]
                assert len(notified) == len(set(notified))
                expected = sorted(
                    r.record_id
                    for r in record_store.iter_records()
                    if 100 < r.ingest_time <= batch_times[-1]
                    and match_query(proto.query, r)
                )
                assert sorted(notified) == expected
