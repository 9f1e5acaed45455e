"""Model-based test of ``RecordStore``: any sequence of writes reads back as a dict says.

The model holds, per kind, the newest value written for each record id.
Writes go through the store one at a time or inside ``batch()``; per-record
files of older stores are planted by hand at the start; the store is
reopened now and then.  After every step the store's whole-store read, a
read of named ids out of order and repeated, and ``get`` must equal the
model, and the size rule of the merges must hold: every segment of a kind
is more than twice the size of the next newer one.  Reads of drawn id
lists, with ids never stored among them, runs of small batches that make
merges cascade, and removals of sidecars that no layer holds, which must
leave the store directory as it was, are steps too.
"""

from __future__ import annotations

import itertools
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from biblioforge import BibRecord, CitationEntry, KeywordAssignment, RecordStore, UnknownRecord

IDS = ("a", "b", "c", "d")
NEVER_STORED = "e"
SIDECARS = ("keywords", "references")

ids = st.sampled_from(IDS)
titles = st.integers(1, 40).map(lambda n: f"Title {n} " + "x" * n)
digests = st.none() | st.sampled_from(["d1", "d2"])
keyword_items = st.lists(
    st.builds(
        KeywordAssignment,
        term_id=st.sampled_from(["t1", "t2"]),
        display_label=st.sampled_from(["alpha", "beta gamma"]),
        occurrence=st.integers(1, 9),
    ),
    max_size=3,
)
reference_items = st.lists(st.builds(CitationEntry, raw=st.sampled_from(["[1] x", "[2] y z w"])), max_size=3)
sidecar_values = {"keywords": st.tuples(digests, keyword_items), "references": st.tuples(digests, reference_items)}

# one write: (kind, id, value); a sidecar value of None removes the sidecar
writes = st.one_of(
    st.tuples(st.just("records"), ids, titles),
    *(st.tuples(st.just(kind), ids, st.none() | value) for kind, value in sidecar_values.items()),
)


def _sidecar_file(kind: str, digest: str | None, items: list) -> str:
    """A per-record sidecar file as stores before segments wrote it."""
    lines = [] if digest is None else [f"digest\t{digest}"]
    if kind == "keywords":
        lines += [f"{k.term_id}\t{k.display_label}\t{k.occurrence}\t\t" for k in items]
    else:
        lines += ["\t" * 7 + e.raw for e in items]
    return "".join(line + "\n" for line in lines)


def _with_digests(record: BibRecord) -> tuple:
    """A record with its digests, which records compare without."""
    return record, record.keywords_digest, record.references_digest


def _files(root: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in root.iterdir()}


class StoreModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="store-model-"))
        self.store = RecordStore(self.root)
        self.titles: dict[str, str] = {}
        self.sidecars: dict[str, dict[str, tuple]] = {kind: {} for kind in SIDECARS}

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def expected(self, record_id: str, **parts: bool) -> BibRecord:
        record = BibRecord(record_id, self.titles[record_id], ingest_time=1)
        keywords = self.sidecars["keywords"].get(record_id)
        references = self.sidecars["references"].get(record_id)
        if keywords and parts.get("keywords", True):
            record.keywords_digest, record.keywords = keywords[0], list(keywords[1])
        if references and parts.get("references", True):
            record.references_digest, record.references = references[0], list(references[1])
        return record

    def everything(self) -> list[tuple]:
        """The model's records with their digests, which records compare without."""
        return [_with_digests(self.expected(record_id)) for record_id in sorted(self.titles)]

    def missing_sidecars(self) -> list[tuple[str, str]]:
        """``(kind, record_id)`` of each sidecar the model lacks, which no layer of the store holds."""
        return [(kind, rid) for kind in SIDECARS for rid in IDS if rid not in self.sidecars[kind]]

    def write(self, kind: str, record_id: str, value) -> None:
        """Write to the store; ``model`` then records the same write in the model."""
        if kind == "records":
            self.store.upsert(BibRecord(record_id, value, ingest_time=1))
        elif value is None:
            self.store.remove_sidecar(record_id, kind)
        elif kind == "keywords":
            self.store.write_keywords_sidecar(record_id, value[1], value[0])
        else:
            self.store.write_refs_sidecar(record_id, value[1], value[0])

    def model(self, kind: str, record_id: str, value) -> None:
        if kind == "records":
            self.titles[record_id] = value
        elif value is None:
            self.sidecars[kind].pop(record_id, None)
        else:
            self.sidecars[kind][record_id] = value

    @initialize(
        planted=st.dictionaries(
            ids, st.tuples(st.none() | titles, *(st.none() | value for value in sidecar_values.values()))
        )
    )
    def plant_per_record_files(self, planted):
        for record_id, (title, *values) in planted.items():
            if title is not None:
                (self.root / f"{record_id}.rec").write_text(
                    f"id: {record_id}\ntitle: {title}\ningest_time: 1\n", encoding="utf-8"
                )
                self.titles[record_id] = title
            for kind, suffix, value in zip(SIDECARS, (".keys.tsv", ".refs.tsv"), values):
                if value is not None:
                    (self.root / f"{record_id}{suffix}").write_text(_sidecar_file(kind, *value), encoding="utf-8")
                    self.sidecars[kind][record_id] = value

    @rule(write=writes)
    def write_one(self, write):
        self.write(*write)
        self.model(*write)

    @rule(batch=st.lists(writes, min_size=1, max_size=6))
    def write_batch(self, batch):
        before = self.everything()
        with self.store.batch():
            for write in batch:
                self.write(*write)
            assert self.read_all() == before  # nothing of a batch shows before it ends
        for write in batch:
            self.model(*write)

    @rule(
        batches=st.lists(st.lists(writes, min_size=1, max_size=2), min_size=4, max_size=12),
        record_ids=st.lists(st.sampled_from((*IDS, NEVER_STORED)), max_size=8),
        keywords=st.booleans(),
        references=st.booleans(),
    )
    def write_small_batches_then_read_named_ids(self, batches, record_ids, keywords, references):
        """Many small segments in a row make merges cascade through the tiers; then a named read."""
        for batch in batches:
            with self.store.batch():
                for write in batch:
                    self.write(*write)
            for write in batch:
                self.model(*write)
        self.read_named_ids(record_ids, keywords, references)

    @precondition(lambda self: self.missing_sidecars())
    @rule(data=st.data())
    def remove_what_no_layer_holds(self, data):
        kind, record_id = data.draw(st.sampled_from(self.missing_sidecars()))
        before = _files(self.root)
        self.store.remove_sidecar(record_id, kind)
        assert _files(self.root) == before

    @rule(
        record_ids=st.lists(st.sampled_from((*IDS, NEVER_STORED)), max_size=8),
        keywords=st.booleans(),
        references=st.booleans(),
    )
    def read_named_ids(self, record_ids, keywords, references):
        """The records before the first unknown id come in the order given, then UnknownRecord."""
        known = list(itertools.takewhile(self.titles.__contains__, record_ids))
        reader = self.store.iter_records(record_ids, keywords=keywords, references=references)
        assert [_with_digests(next(reader)) for _ in known] == [
            _with_digests(self.expected(rid, keywords=keywords, references=references)) for rid in known
        ]
        if len(known) < len(record_ids):
            with pytest.raises(UnknownRecord):
                next(reader)
        assert next(reader, None) is None

    @rule()
    def reopen(self):
        self.store = RecordStore(self.root)

    def read_all(self) -> list[tuple]:
        return [_with_digests(r) for r in self.store.iter_records()]

    @invariant()
    def reads_match_the_model(self):
        assert self.read_all() == self.everything()
        assert self.store.record_ids() == sorted(self.titles)
        stored = sorted(self.titles)
        named = [*stored[::-1], *stored]  # out of order, each id twice
        assert [_with_digests(r) for r in self.store.iter_records(named)] == [
            _with_digests(self.expected(rid)) for rid in named
        ]
        for record_id in IDS:
            if record_id not in self.titles:
                with pytest.raises(UnknownRecord):
                    self.store.get(record_id)
                continue
            record = self.store.get(record_id, keywords=False)
            assert (record, record.keywords_digest) == (self.expected(record_id, keywords=False), None)
            expected = self.expected(record_id)
            record = self.store.get(record_id)
            assert (record, record.keywords_digest, record.references_digest) == (
                expected, expected.keywords_digest, expected.references_digest
            )

    @invariant()
    def each_segment_is_over_twice_the_next_newer(self):
        sizes: dict[str, list[tuple[int, int]]] = {}
        for path in self.root.iterdir():
            if match := re.fullmatch(r"seg-([0-9]+)\.(\w+)", path.name):
                sizes.setdefault(match[2], []).append((int(match[1]), path.stat().st_size))
        for numbered in sizes.values():
            numbered.sort()
            for (_, older), (_, newer) in zip(numbered, numbered[1:]):
                assert older > 2 * newer


# Without shrinking a failure is reported at once, with its unshrunk (longer)
# step sequence: each step writes and re-reads the store, so shrinking up to
# 50 of them took minutes.
StoreModel.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=50,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
TestStoreModel = StoreModel.TestCase
