"""Tests for stores of per-record files, the layer below every segment.

Stores written before segments hold ``<id>.rec``, ``<id>.keys.tsv`` and
``<id>.refs.tsv`` files.  They must read and report exactly as the same
content held in segments, and a later segment block or tombstone must
shadow them.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from biblioforge import BibRecord, CitationEntry, RecordStore
from biblioforge.cli import dispatch

from .conftest import segment_files

DATA_DIR = Path(__file__).parent / "data"
CORPUS = DATA_DIR / "corpus"
TAXONOMY = str(DATA_DIR / "taxonomy20.tax")


def _blocks(text: str, kind: str) -> dict[str, str]:
    """Record id -> block text of a segment written by the store (no tombstones)."""
    blocks: dict[str, str] = {}
    if kind == "records":
        for block in text.split("%%\n")[1:]:
            blocks[block.split("\n", 1)[0].removeprefix("id: ")] = block
    else:
        for block in text.split("%%\t")[1:]:
            record_id, body = block.split("\n", 1)
            blocks[record_id] = body
    return blocks


def _run(ws: Path, *argv: str) -> tuple[int, str]:
    out = ws / "out.tsv"
    code = dispatch([*argv, "--store-dir", str(ws / "store"), "--alerts-dir", str(ws / "alerts"),
                     "--notifications-dir", str(ws / "notes"), "--out", str(out)])
    return code, out.read_text(encoding="utf-8")


@pytest.fixture()
def stores(tmp_path: Path) -> tuple[Path, Path]:
    """Workspaces with the enriched corpus in segments, and in per-record files written by hand."""
    new, old = tmp_path / "segments", tmp_path / "per-record"
    assert dispatch(["ingest", str(CORPUS / "records.rec"), "--store-dir", str(new / "store")]) == 0
    shutil.copytree(CORPUS / "ft", new / "store" / "ft")
    assert _run(new, "keywords", "--taxonomy", TAXONOMY)[0] == 0
    assert _run(new, "refextract")[0] == 0
    shutil.copytree(CORPUS / "ft", old / "store" / "ft")
    for kind, suffix in (("records", ".rec"), ("keywords", ".keys.tsv"), ("references", ".refs.tsv")):
        (segment,) = segment_files(new / "store", kind)
        for record_id, text in _blocks(segment.read_text(encoding="utf-8"), kind).items():
            (old / "store" / f"{record_id}{suffix}").write_text(text, encoding="utf-8")
    assert len(list((old / "store").glob("*.rec"))) == 8
    assert len(list((old / "store").glob("*.keys.tsv"))) == 6
    return new, old


def _store_files(ws: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in (ws / "store").iterdir() if p.is_file()}


def test_per_record_store_reads_as_segments(stores):
    new, old = (RecordStore(ws / "store") for ws in stores)
    expected = list(new.iter_records())
    assert list(old.iter_records()) == expected
    assert [(r.keywords_digest, r.references_digest) for r in old.iter_records()] == [
        (r.keywords_digest, r.references_digest) for r in expected
    ]
    assert old.record_ids() == new.record_ids() == [r.record_id for r in expected]
    for record in expected:
        assert old.get(record.record_id) == record
        assert old.get(record.record_id, keywords=False) == new.get(record.record_id, keywords=False)
    assert sum(bool(r.keywords) for r in expected) == 6
    assert sum(bool(r.references) for r in expected) == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["citegraph"],
        ["citegraph", "--rank"],
        ["citegraph", "--edges"],
        ["export", "bibtex", "r03", "r01", "r08"],
        ["keywords", "--taxonomy", TAXONOMY],
        ["refextract"],
    ],
    ids=["counts", "rank", "edges", "export", "keywords", "refextract"],
)
def test_per_record_store_reports_as_segments(stores, argv):
    new, old = stores
    before = _store_files(old)
    report = _run(new, *argv)
    assert report[0] == 0 and report[1]
    assert _run(old, *argv) == report
    # the per-record results are up to date, so an enrichment command writes nothing
    assert _store_files(old) == before


def test_per_record_store_alerts_as_segments(stores):
    reports, notes = [], []
    for ws in stores:
        code, alert_id = _run(ws, "alerts", "register", "--owner", "o", "--clause", "keyword:contains:a",
                              "--now", "100")
        assert code == 0
        code, report = _run(ws, "alerts", "run", "--now", "5000")
        assert code == 0
        reports.append(report.replace(alert_id.strip(), "ALERT"))
        notes.append((ws / "notes" / "5000" / f"{alert_id.strip()}.tsv").read_bytes())
    assert reports[0] == reports[1] != ""
    assert notes[0] == notes[1] != b""


def test_segments_shadow_per_record_files(stores):
    _, old = stores
    store = RecordStore(old / "store")
    files = _store_files(old)
    stored = store.upsert(BibRecord("r01", "Newer title", ingest_time=9))
    store.remove_sidecar("r02", "keywords")
    store.remove_sidecar("r02", "references")
    store.write_refs_sidecar("r03", [CitationEntry(raw="[1] only")], "d1")
    # the per-record files are still there, unchanged, but no longer read
    assert {name: data for name, data in _store_files(old).items() if name in files} == files
    assert store.get("r01", keywords=False, references=False) == stored
    r02 = store.get("r02")
    assert (r02.keywords, r02.keywords_digest, r02.references, r02.references_digest) == ([], None, [], None)
    r03 = store.get("r03")
    assert ([e.raw for e in r03.references], r03.references_digest) == (["[1] only"], "d1")
    assert r03.keywords != []
    assert [r.title for r in store.iter_records() if r.record_id == "r01"] == ["Newer title"]
    # the r03 block merged with the r02 tombstone, which stays: r02.refs.tsv lies below it
    assert [p.name for p in segment_files(old / "store")] == ["seg-1.records", "seg-2.keywords", "seg-4.references"]
    assert "%%\tr02\tremoved\n" in (old / "store" / "seg-4.references").read_text(encoding="utf-8")
    # a tombstone is written only for a sidecar the record has
    store.remove_sidecar("r07", "keywords")  # r07 has no full text, so no keywords
    assert len(segment_files(old / "store")) == 3
