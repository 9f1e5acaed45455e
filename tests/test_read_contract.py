"""Tests for the read contract: each reader opens only the store files it uses.

``RecordStore.get`` merges the keyword and reference sidecars it is asked
for and leaves the others unopened, so a damaged sidecar fails only the
commands that read it.
"""

from __future__ import annotations

import builtins
import shutil
from pathlib import Path

import pytest

from biblioforge import (
    BibRecord,
    CitationEntry,
    MalformedLine,
    RecordStore,
    StorageFailure,
    UnknownRecord,
    extract_keywords,
)
from biblioforge import records as records_module
from biblioforge.cli import dispatch
from biblioforge.records import sorted_records

DATA_DIR = Path(__file__).parent / "data"
CORPUS = DATA_DIR / "corpus"
DAMAGED_ROW = "not a sidecar row\n"


@pytest.fixture()
def enriched(store: RecordStore, taxonomy3) -> tuple[RecordStore, BibRecord]:
    """A store holding r1 with both sidecars, and the record ``get`` should return."""
    entry = CitationEntry(
        raw="[1] A. B, Phys. Rev. A 1 (2000) 2",
        marker="[1]",
        journal="Phys. Rev., A",
        volume="1",
        page="2",
        year=2000,
        report_numbers=["gr-qc/0607062"],
    )
    assignments = extract_keywords("dilaton dilaton. gravitation dilaton.", taxonomy3, 10)
    stored = store.upsert(BibRecord("r1", "T", authors=["A. Pepe"], year=2006, ingest_time=7))
    store.write_refs_sidecar("r1", [entry], "ab12")
    store.write_keywords_sidecar("r1", assignments, "cd34")
    stored.references, stored.keywords = [entry], assignments
    return store, stored


class TestGetParts:
    def test_defaults_return_the_merged_record(self, enriched):
        store, expected = enriched
        record = store.get("r1")
        assert record == expected
        assert (record.references_digest, record.keywords_digest) == ("ab12", "cd34")
        assert list(store.iter_records()) == [expected]
        assert sorted_records(store) == [expected]

    def test_parts_left_out_are_not_merged(self, enriched):
        store, expected = enriched
        record = store.get("r1", keywords=False)
        assert (record.keywords, record.keywords_digest) == ([], None)
        assert record.references == expected.references
        record = store.get("r1", references=False)
        assert (record.references, record.references_digest) == ([], None)
        assert record.keywords == expected.keywords
        [record] = store.iter_records(keywords=False, references=False)
        assert (record.keywords, record.references) == ([], [])
        [record] = sorted_records(store, references=False)
        assert record.keywords == expected.keywords and record.references == []

    def test_parts_left_out_are_not_opened(self, enriched, monkeypatch):
        store, _ = enriched
        opened: list[str] = []

        def recording_open(path, *args, **kwargs):
            opened.append(str(path))
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(records_module, "open", recording_open, raising=False)
        store.get("r1", keywords=False)
        store.get("r1", references=False)
        assert [Path(path).name for path in opened] == ["r1.rec", "r1.refs.tsv", "r1.rec", "r1.keys.tsv"]

    @pytest.mark.parametrize("suffix, part", [(".refs.tsv", "references"), (".keys.tsv", "keywords")])
    def test_damaged_sidecar_fails_only_its_readers(self, enriched, suffix, part):
        store, expected = enriched
        (store.root / f"r1{suffix}").write_text(DAMAGED_ROW, encoding="utf-8")
        with pytest.raises(MalformedLine):
            store.get("r1")
        record = store.get("r1", **{part: False})
        other = "keywords" if part == "references" else "references"
        assert getattr(record, other) == getattr(expected, other)

    def test_directory_named_like_the_record_is_unknown(self, store: RecordStore):
        (store.root / "r1.rec").mkdir()
        with pytest.raises(UnknownRecord):
            store.get("r1")

    def test_directory_named_like_a_sidecar_is_absent(self, enriched):
        store, expected = enriched
        (store.root / "r1.keys.tsv").unlink()
        (store.root / "r1.keys.tsv").mkdir()
        assert store.get("r1").keywords == []
        assert store.get("r1").references == expected.references

    def test_other_read_failure_is_a_storage_failure(self, enriched, monkeypatch):
        store, expected = enriched

        def failing_open(path, *args, **kwargs):
            if str(path).endswith(".keys.tsv"):
                raise PermissionError(13, "Permission denied", str(path))
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(records_module, "open", failing_open, raising=False)
        with pytest.raises(StorageFailure, match="r1.keys.tsv"):
            store.get("r1")
        assert store.get("r1", keywords=False).references == expected.references

    def test_record_ids_lists_only_record_files(self, enriched):
        store, _ = enriched
        for name in (".rec", ".tmp-abc.tmp", "r2.rec.bak", "r3.keys.tsv"):
            (store.root / name).write_text("", encoding="utf-8")
        (store.root / "ft").mkdir()
        assert store.record_ids() == ["r1"]


# --- commands over a store with one kind of sidecar damaged -----------------


def _run(ws: Path, name: str, *argv: str) -> tuple[int, str]:
    out = ws / f"{name}.tsv"
    code = dispatch(
        [
            *argv,
            "--store-dir", str(ws / "store"),
            "--alerts-dir", str(ws / "alerts"),
            "--notifications-dir", str(ws / "notes"),
            "--out", str(out),
        ]
    )
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


@pytest.fixture()
def workspace(tmp_path: Path) -> Path:
    """An enriched corpus store with three saved searches registered."""
    ws = tmp_path / "clean"
    store = ws / "store"
    assert dispatch(["ingest", str(CORPUS / "records.rec"), "--store-dir", str(store)]) == 0
    shutil.copytree(CORPUS / "ft", store / "ft")
    assert _run(ws, "keywords", "keywords", "--taxonomy", str(DATA_DIR / "taxonomy20.tax"))[0] == 0
    assert _run(ws, "refextract", "refextract")[0] == 0
    for owner, clause in (("a", "keyword:contains:a"), ("b", "author:contains:e"), ("c", "any:contains:o")):
        code, _ = _run(ws, f"register-{owner}", "alerts", "register", "--owner", owner,
                       "--clause", clause, "--now", "100")
        assert code == 0
    return ws


def _damaged_copy(ws: Path, suffix: str) -> Path:
    copy = ws.parent / f"damaged{suffix}"
    shutil.copytree(ws, copy)
    damaged = sorted((copy / "store").glob(f"*{suffix}"))
    assert len(damaged) == 6  # every record with a full text
    for path in damaged:
        path.write_text(DAMAGED_ROW, encoding="utf-8")
    return copy


def _notes(ws: Path) -> dict[str, bytes]:
    return {str(p.relative_to(ws / "notes")): p.read_bytes() for p in (ws / "notes").rglob("*.tsv")}


def test_damaged_refs_sidecars_leave_keywords_and_alerts_alone(workspace):
    damaged = _damaged_copy(workspace, ".refs.tsv")
    for ws in (workspace, damaged):
        assert _run(ws, "keywords", "keywords", "--taxonomy", str(DATA_DIR / "taxonomy20.tax"))[0] == 0
        assert _run(ws, "alerts", "alerts", "run", "--now", "5000")[0] == 0
    for name in ("keywords", "alerts"):
        assert (damaged / f"{name}.tsv").read_bytes() == (workspace / f"{name}.tsv").read_bytes()
    assert _notes(damaged) == _notes(workspace) != {}
    assert (workspace / "alerts.tsv").read_text(encoding="utf-8").count("\n") == 3
    # the commands that read references still fail on the damage
    assert _run(damaged, "refextract", "refextract")[0] == 1
    assert _run(damaged, "citegraph", "citegraph")[0] == 1


def test_damaged_keys_sidecars_leave_refextract_and_citegraph_alone(workspace):
    damaged = _damaged_copy(workspace, ".keys.tsv")
    names = {"refextract": ["refextract"], "counts": ["citegraph"],
             "rank": ["citegraph", "--rank"], "edges": ["citegraph", "--edges"]}
    for ws in (workspace, damaged):
        for name, argv in names.items():
            assert _run(ws, name, *argv)[0] == 0
    for name in names:
        assert (damaged / f"{name}.tsv").read_bytes() == (workspace / f"{name}.tsv").read_bytes()
    assert (workspace / "edges.tsv").read_text(encoding="utf-8") != ""
    # the commands that read keywords still fail on the damage
    assert _run(damaged, "keywords", "keywords", "--taxonomy", str(DATA_DIR / "taxonomy20.tax"))[0] == 1
    assert _run(damaged, "alerts", "alerts", "run", "--now", "5000")[0] == 1
