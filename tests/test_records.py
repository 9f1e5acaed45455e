"""Tests for the record model, store, field queries and BibTeX export."""

from __future__ import annotations

import logging
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biblioforge import (
    BibRecord,
    CitationEntry,
    FieldQuery,
    KeywordAssignment,
    MalformedLine,
    MissingField,
    QueryClause,
    RecordStore,
    StorageFailure,
    UnknownRecord,
    export_bibtex,
    extract_keywords,
    match_query,
    parse_clause,
    parse_record,
    parse_records_text,
    serialize_record,
)

DATA_DIR = Path(__file__).parent / "data"


class TestParseRecord:
    def test_direct_field_mapping(self):
        record = parse_record("id: r1\ntitle: Dilaton Gravity\nyear: 2006\n")
        assert record.record_id == "r1"
        assert record.title == "Dilaton Gravity"
        assert record.year == 2006

    def test_missing_title(self):
        with pytest.raises(MissingField) as exc:
            parse_record("id: r1\nyear: 2006\n")
        assert exc.value.field == "title"

    def test_missing_id(self):
        with pytest.raises(MissingField) as exc:
            parse_record("title: T\n")
        assert exc.value.field == "id"

    def test_boundary_era_year(self):
        record = parse_record("id: r1\ntitle: T\nyear: 1954\n")
        assert record.year == 1954

    def test_line_without_separator(self):
        with pytest.raises(MalformedLine) as exc:
            parse_record("id: r1\ntitle T\n")
        assert exc.value.line_no == 2

    def test_empty_value(self):
        with pytest.raises(MalformedLine):
            parse_record("id: r1\ntitle:\n")

    def test_duplicate_singular_key(self):
        with pytest.raises(MalformedLine):
            parse_record("id: r1\ntitle: A\ntitle: B\n")

    def test_non_integer_year(self):
        with pytest.raises(MalformedLine):
            parse_record("id: r1\ntitle: T\nyear: two thousand\n")

    def test_repeatable_keys(self):
        record = parse_record(
            "id: r1\ntitle: T\nauthor: A One\nauthor: B Two\n"
            "report_number: gr-qc/0607062\nreference_raw: [1] x\nreference_raw: [2] y\n"
        )
        assert record.authors == ["A One", "B Two"]
        assert record.report_numbers == ["gr-qc/0607062"]
        assert [e.raw for e in record.references] == ["[1] x", "[2] y"]

    def test_unknown_key_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="biblioforge.records"):
            record = parse_record("id: r1\ntitle: T\ncolour: blue\nshape: round\n")
        assert record.record_id == "r1"
        assert sum("unknown key" in r.message for r in caplog.records) == 2

    def test_multi_record_text(self):
        text = "id: r1\ntitle: A\n%%\nid: r2\ntitle: B\n%%\n"
        records = parse_records_text(text)
        assert [r.record_id for r in records] == ["r1", "r2"]


def _line_text(min_size=1):
    return (
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs"),
                blacklist_characters="\n\r\t",
            ),
            min_size=min_size,
            max_size=30,
        )
        .map(str.strip)
        .filter(lambda s: len(s) >= min_size)
    )


_ids = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12)

_records = st.builds(
    BibRecord,
    record_id=_ids,
    title=_line_text(),
    authors=st.lists(_line_text(), max_size=3),
    year=st.none() | st.integers(min_value=1800, max_value=2100),
    journal=st.none() | _line_text(),
    volume=st.none() | _line_text(),
    page=st.none() | _line_text(),
    report_numbers=st.lists(_line_text(), max_size=2),
    fulltext_path=st.none() | _line_text(),
    references=st.lists(st.builds(CitationEntry, raw=_line_text()), max_size=2),
    ingest_time=st.none() | st.integers(min_value=0, max_value=2**31),
)


class TestRoundTrip:
    @given(_records)
    def test_parse_serialize_round_trip(self, record):
        assert parse_record(serialize_record(record)) == record

    @given(st.lists(_records, max_size=3))
    def test_multi_record_round_trip(self, records):
        text = "%%\n".join(serialize_record(r) for r in records)
        assert parse_records_text(text) == records


class TestStore:
    def test_last_writer_wins(self, store: RecordStore):
        store.upsert(BibRecord("r1", "First title"))
        store.upsert(BibRecord("r1", "Second title"))
        assert len(store) == 1
        assert store.get("r1").title == "Second title"

    def test_two_records(self, store: RecordStore):
        store.upsert(BibRecord("r1", "A"))
        store.upsert(BibRecord("r2", "B"))
        assert len(store) == 2

    def test_year_invariant_rejected(self, store: RecordStore):
        with pytest.raises(ValueError):
            store.upsert(BibRecord("bad", "T", year=1700))
        assert len(store) == 0

    def test_empty_id_rejected(self, store: RecordStore):
        with pytest.raises(ValueError):
            store.upsert(BibRecord("", "T"))

    def test_path_hostile_id_rejected(self, store: RecordStore):
        with pytest.raises(ValueError):
            store.upsert(BibRecord("a/b", "T"))

    @pytest.mark.parametrize("char", list("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_every_splitlines_break_rejected(self, store: RecordStore, char):
        store.upsert(BibRecord("r1", "Fine"))
        with pytest.raises(ValueError):
            store.upsert(BibRecord("r2", f"Dilaton{char}Gravity"))
        with pytest.raises(ValueError):
            store.upsert(BibRecord("r1", "T", authors=[f"A.{char}Pepe"]))
        assert store.record_ids() == ["r1"]
        assert store.get("r1").title == "Fine"

    def test_directory_named_like_a_record_is_not_listed(self, store: RecordStore):
        store.upsert(BibRecord("r1", "Fine"))
        (store.root / "old.rec").mkdir()
        assert store.record_ids() == ["r1"]
        assert [r.record_id for r in store.iter_records()] == ["r1"]

    def test_failed_write_leaves_no_temporary_file(self, store: RecordStore):
        (store.root / "r1.rec").mkdir()  # the rename onto a directory fails
        with pytest.raises(StorageFailure):
            store.upsert(BibRecord("r1", "T"))
        assert list(store.root.glob("*.tmp")) == []

    @pytest.mark.parametrize("char", list("\t\n\r\x1c\u2028"))
    def test_sidecar_value_that_would_split_a_row_rejected(self, store: RecordStore, char):
        store.upsert(BibRecord("p1", "T"))
        with pytest.raises(ValueError, match="p1"):
            store.write_refs_sidecar("p1", [CitationEntry(raw=f"[1] A. Author,{char}B")])
        with pytest.raises(ValueError, match="p1"):
            store.write_keywords_sidecar("p1", [KeywordAssignment("t1", f"a{char}b", 1)])
        assert sorted(p.name for p in store.root.iterdir()) == ["p1.rec"]
        assert store.get("p1").references == [] and store.get("p1").keywords == []

    @given(title=st.text(min_size=1, max_size=20).map(str.strip).filter(bool))
    @settings(max_examples=200)
    def test_accepted_title_reads_back(self, tmp_path_factory, title):
        store = RecordStore(tmp_path_factory.mktemp("records"))
        try:
            store.upsert(BibRecord("r1", title))
        except ValueError:
            return
        assert store.get("r1").title == title

    @pytest.mark.parametrize(
        "record",
        [
            BibRecord("x", "T", journal=""),
            BibRecord("x", "T", volume=" "),
            BibRecord("x", "T", page="\u3000"),
            BibRecord("x", "T", fulltext_path=""),
            BibRecord("x", "T", authors=["A. Pepe", ""]),
            BibRecord("x", "T", report_numbers=["\x1f"]),
            BibRecord("x", "T", references=[CitationEntry(raw=" ")]),
        ],
    )
    def test_blank_value_rejected(self, store: RecordStore, record):
        # parse_record refuses an empty value, so the record could never be read back
        with pytest.raises(ValueError, match="blank"):
            store.upsert(record)
        assert store.record_ids() == []

    @pytest.mark.parametrize(
        "record",
        [
            BibRecord(" x", "T"),
            BibRecord("x", "T "),
            BibRecord("x", "T", journal="\tPhys. Rev."),
            BibRecord("x", "T", authors=["A. Pepe\xa0"]),
            BibRecord("x", "T", fulltext_path="ft/x.txt "),
        ],
    )
    def test_value_with_surrounding_whitespace_rejected(self, store: RecordStore, record):
        # parse_record strips every value, so it would come back changed
        with pytest.raises(ValueError, match="whitespace"):
            store.upsert(record)
        assert store.record_ids() == []

    @given(
        record=st.builds(
            BibRecord,
            record_id=st.text(min_size=1, max_size=12),
            title=st.text(max_size=12),
            authors=st.lists(st.text(max_size=12), max_size=3),
            year=st.none() | st.integers(min_value=1700, max_value=2200),
            journal=st.none() | st.text(max_size=12),
            volume=st.none() | st.text(max_size=6),
            page=st.none() | st.text(max_size=6),
            report_numbers=st.lists(st.text(max_size=12), max_size=2),
            fulltext_path=st.none() | st.text(max_size=12),
            references=st.lists(st.builds(CitationEntry, raw=st.text(max_size=12)), max_size=2),
            ingest_time=st.none() | st.integers(min_value=-5, max_value=2**40),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_accepted_record_reads_back_equal(self, tmp_path_factory, record):
        store = RecordStore(tmp_path_factory.mktemp("records"))
        try:
            stored = store.upsert(record)
        except ValueError:
            return
        assert store.get(stored.record_id) == stored
        assert store.record_ids() == [stored.record_id]

    @pytest.mark.parametrize("record_id", ["../other/x", "..", "a\\b", "", "x\u2028y"])
    def test_get_rejects_ids_outside_the_store(self, tmp_path: Path, record_id):
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "x.rec").write_text("id: x\ntitle: Elsewhere\n", encoding="utf-8")
        store = RecordStore(tmp_path / "records")
        with pytest.raises(ValueError):
            store.get(record_id)
        with pytest.raises(ValueError):
            store.write_keywords_sidecar(record_id, [])
        with pytest.raises(ValueError):
            store.write_refs_sidecar(record_id, [])
        assert list(store.root.iterdir()) == []

    def test_ingest_time_stamped_when_absent(self, store: RecordStore):
        stored = store.upsert(BibRecord("r1", "T"))
        assert stored.ingest_time is not None and stored.ingest_time > 0

    def test_ingest_time_preserved_when_present(self, store: RecordStore):
        store.upsert(BibRecord("r1", "T", ingest_time=123))
        assert store.get("r1").ingest_time == 123

    def test_upsert_idempotent_bytes(self, store: RecordStore):
        record = BibRecord("r1", "T", authors=["A"], ingest_time=5)
        store.upsert(record)
        first = (store.root / "r1.rec").read_bytes()
        store.upsert(BibRecord("r1", "T", authors=["A"], ingest_time=5))
        assert (store.root / "r1.rec").read_bytes() == first

    def test_get_unknown(self, store: RecordStore):
        with pytest.raises(UnknownRecord):
            store.get("nope")

    def test_refs_sidecar_round_trip(self, store: RecordStore):
        entry = CitationEntry(
            raw="[1] A. B, Phys. Rev. A 1 (2000) 2",
            marker="[1]",
            journal="Phys. Rev., A",
            volume="1",
            page="2",
            year=2000,
            report_numbers=["gr-qc/0607062", "CERN-TH-99"],
            url="https://pra.example/v1/p2",
        )
        store.upsert(BibRecord("r1", "T"))
        store.write_refs_sidecar("r1", [entry])
        loaded = store.get("r1").references
        assert len(loaded) == 1
        got = loaded[0]
        assert (got.raw, got.marker, got.journal, got.volume, got.page, got.year) == (
            entry.raw,
            entry.marker,
            entry.journal,
            entry.volume,
            entry.page,
            entry.year,
        )
        assert got.report_numbers == entry.report_numbers
        assert got.url == entry.url

    def test_keywords_sidecar_round_trip(self, store: RecordStore, taxonomy3):
        store.upsert(BibRecord("r1", "T"))
        assignments = extract_keywords(
            "dilaton dilaton. gravitation dilaton.", taxonomy3, 10
        )
        store.write_keywords_sidecar("r1", assignments)
        assert store.get("r1").keywords == assignments

    def test_sidecar_digests_round_trip(self, store: RecordStore, taxonomy3):
        store.upsert(BibRecord("r1", "T"))
        assignments = extract_keywords("dilaton gravitation.", taxonomy3, 10)
        store.write_keywords_sidecar("r1", assignments, "ab12")
        store.write_refs_sidecar("r1", [CitationEntry(raw="[1] x")], "cd34")
        assert (store.root / "r1.keys.tsv").read_text(encoding="utf-8").startswith("digest\tab12\n")
        record = store.get("r1")
        assert (record.keywords_digest, record.references_digest) == ("ab12", "cd34")
        assert record.keywords == assignments
        assert [e.raw for e in record.references] == ["[1] x"]
        assert record == BibRecord("r1", "T", keywords=assignments, references=record.references,
                                   ingest_time=record.ingest_time)

    def test_sidecars_without_digest_stay_readable(self, store: RecordStore):
        store.upsert(BibRecord("r1", "T"))
        (store.root / "r1.refs.tsv").write_text("[1]\t\t\t\t\t\t\t[1] x\n", encoding="utf-8")
        (store.root / "r1.keys.tsv").write_text("t_d\tdilaton\t2\t\t\n", encoding="utf-8")
        record = store.get("r1")
        assert (record.keywords_digest, record.references_digest) == (None, None)
        assert [e.raw for e in record.references] == ["[1] x"]
        assert [(k.term_id, k.occurrence) for k in record.keywords] == [("t_d", 2)]

    @given(
        entries=st.lists(
            st.builds(
                CitationEntry,
                raw=st.text(max_size=12),
                marker=st.none() | st.text(max_size=6),
                journal=st.none() | st.text(max_size=12),
                volume=st.none() | st.text(max_size=6),
                page=st.none() | st.text(max_size=6),
                year=st.none() | st.integers(),
                report_numbers=st.lists(st.text(max_size=8), max_size=3),
                url=st.none() | st.text(max_size=12),
            ),
            max_size=3,
        ),
        assignments=st.lists(
            st.builds(
                KeywordAssignment,
                term_id=st.text(max_size=8),
                display_label=st.text(max_size=12),
                occurrence=st.integers(),
                component_counts=st.none() | st.tuples(st.integers(), st.integers()),
                components=st.none() | st.tuples(st.text(max_size=6), st.text(max_size=6)),
            ),
            max_size=3,
        ),
        digest=st.none() | st.text(max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_accepted_sidecar_rows_read_back(self, tmp_path_factory, entries, assignments, digest):
        """Whatever a sidecar writer accepts, ``get`` returns equal, digest included."""
        store = RecordStore(tmp_path_factory.mktemp("records"))
        store.upsert(BibRecord("r1", "T"))
        try:
            store.write_refs_sidecar("r1", entries, digest)
        except ValueError:
            entries = None
        try:
            store.write_keywords_sidecar("r1", assignments, digest)
        except ValueError:
            assignments = None
        record = store.get("r1")
        if entries is not None:
            assert (record.references_digest, record.references) == (digest, entries)
        if assignments is not None:
            assert (record.keywords_digest, record.keywords) == (digest, assignments)

    @pytest.mark.parametrize(
        "entry, assignment",
        [
            (
                CitationEntry("[1] x", marker=""),
                KeywordAssignment("t", "a", 1, component_counts=()),
            ),
            (
                CitationEntry("[1] x", report_numbers=[""]),
                KeywordAssignment("t", "a", 1, components=("a+b", "c")),
            ),
            (
                CitationEntry("[1] x", report_numbers=["a;b"]),
                KeywordAssignment("t", "a", 1, components=("",)),
            ),
        ],
    )
    def test_sidecar_value_that_would_not_read_back_rejected(self, store, entry, assignment):
        # an empty field or list reads back as None, and list items split at ";" and "+"
        store.upsert(BibRecord("p1", "T"))
        with pytest.raises(ValueError, match="p1"):
            store.write_refs_sidecar("p1", [entry])
        with pytest.raises(ValueError, match="p1"):
            store.write_keywords_sidecar("p1", [assignment])
        assert sorted(p.name for p in store.root.iterdir()) == ["p1.rec"]

    def test_fulltext_resolution(self, store: RecordStore):
        record = BibRecord("r1", "T", fulltext_path="ft/r1.txt")
        assert store.fulltext_file(record) == store.root / "ft" / "r1.txt"
        assert store.fulltext_file(BibRecord("r2", "T")) is None


class TestMatchQuery:
    record = BibRecord(
        "r1",
        "Dilaton Gravity in Two Dimensions",
        authors=["Joanne Yeomans", "A. Pepe"],
        year=2006,
        journal="Phys. Rev., A",
        report_numbers=["gr-qc/0607062"],
    )

    def q(self, *clauses):
        return FieldQuery(tuple(clauses))

    def test_author_contains_case_insensitive(self):
        assert match_query(self.q(QueryClause("author", "contains", "yeomans")), self.record)

    def test_year_range_is_inclusive(self):
        assert not match_query(self.q(QueryClause("year", "range", (2000, 2005))), self.record)
        assert match_query(self.q(QueryClause("year", "range", (2000, 2006))), self.record)
        assert match_query(self.q(QueryClause("year", "range", (2006, 2010))), self.record)

    def test_keyword_equals_after_extraction(self, taxonomy3):
        record = BibRecord("r2", "T")
        record.keywords = extract_keywords(
            "dilaton dilaton. gravitation dilaton.", taxonomy3, 10
        )
        assert match_query(self.q(QueryClause("keyword", "equals", "dilaton")), record)
        assert not match_query(self.q(QueryClause("keyword", "equals", "axion")), record)

    def test_any_spans_metadata_not_fulltext(self):
        assert match_query(self.q(QueryClause("any", "contains", "pepe")), self.record)
        assert match_query(self.q(QueryClause("any", "contains", "gr-qc")), self.record)
        assert not match_query(self.q(QueryClause("any", "contains", "zebra")), self.record)

    def test_equals_whole_field(self):
        assert match_query(self.q(QueryClause("journal", "equals", "phys. rev., a")), self.record)
        assert not match_query(self.q(QueryClause("journal", "equals", "phys. rev.")), self.record)

    def test_and_over_clauses(self):
        query = self.q(
            QueryClause("author", "contains", "pepe"),
            QueryClause("year", "range", (2006, 2006)),
        )
        assert match_query(query, self.record)
        query = self.q(
            QueryClause("author", "contains", "pepe"),
            QueryClause("year", "range", (2007, 2008)),
        )
        assert not match_query(query, self.record)

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            FieldQuery(())

    def test_range_only_on_year(self):
        with pytest.raises(ValueError):
            FieldQuery((QueryClause("title", "range", (1, 2)),))

    def test_parse_clause(self):
        assert parse_clause("author:contains:yeomans") == QueryClause(
            "author", "contains", "yeomans"
        )
        assert parse_clause("year:range:2000..2005") == QueryClause(
            "year", "range", (2000, 2005)
        )
        assert parse_clause("year:equals:2006") == QueryClause("year", "equals", 2006)
        with pytest.raises(ValueError):
            parse_clause("authorcontains")


_clauses = st.one_of(
    st.builds(QueryClause, field=st.sampled_from(("title", "author", "journal", "any")),
              match=st.sampled_from(("contains", "equals")), value=_line_text()),
    st.builds(
        QueryClause,
        field=st.just("year"),
        match=st.just("range"),
        value=st.tuples(
            st.integers(min_value=1800, max_value=2100),
            st.integers(min_value=1800, max_value=2100),
        ).map(lambda lohi: (min(lohi), max(lohi))),
    ),
)


class TestQueryProperties:
    @given(record=_records, clauses=st.lists(_clauses, min_size=2, max_size=4))
    @settings(max_examples=60)
    def test_monotone_under_clause_removal(self, record, clauses):
        full = FieldQuery(tuple(clauses))
        if match_query(full, record):
            for i in range(len(clauses)):
                subset = clauses[:i] + clauses[i + 1:]
                assert match_query(FieldQuery(tuple(subset)), record)


class TestExportBibtex:
    def test_empty_list(self):
        assert export_bibtex([]) == ""

    def test_article_when_journal_present(self):
        text = export_bibtex([BibRecord("r1", "T", journal="New Sci.")])
        assert text.startswith("@article{r1,")

    def test_misc_without_journal(self):
        text = export_bibtex([BibRecord("r1", "T")])
        assert text.startswith("@misc{r1,")

    def test_golden_two_records(self):
        records = [
            BibRecord(
                "r1",
                "Dilaton Gravity in Two Dimensions",
                authors=["D. Granger", "R. Meyer"],
                year=2006,
                journal="Phys. Rev., A",
            ),
            BibRecord("r2", "Notes on Bosonization", authors=["J. Jensen"], year=2005),
        ]
        golden = (DATA_DIR / "golden_export.bib").read_text(encoding="utf-8")
        assert export_bibtex(records) == golden
        assert export_bibtex(records) == golden  # byte-identical across runs

    @given(st.lists(_records, max_size=3))
    def test_length_zero_iff_empty(self, records):
        assert (len(export_bibtex(records)) == 0) == (len(records) == 0)
