from __future__ import annotations

from pathlib import Path

import pytest

from biblioforge import (
    BibRecord,
    CitationEntry,
    RecordStore,
    default_journal_kb_path,
    load_journal_kb,
    load_taxonomy,
)

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def kb():
    return load_journal_kb(default_journal_kb_path())


@pytest.fixture(scope="session")
def taxonomy3():
    return load_taxonomy(DATA_DIR / "taxonomy3.tax")


@pytest.fixture(scope="session")
def taxonomy20():
    return load_taxonomy(DATA_DIR / "taxonomy20.tax")


@pytest.fixture()
def store(tmp_path: Path) -> RecordStore:
    return RecordStore(tmp_path / "records")


def segment_files(root: Path, kind: str = "*") -> list[Path]:
    """The segment files of one kind (``records``, ``keywords``, ``references``) in a store, oldest first."""
    return sorted(root.glob(f"seg-*.{kind}"), key=lambda p: int(p.name.split(".")[0][4:]))


def graph_fixture_records() -> list[BibRecord]:
    """Ten records with 14 citation entries, 3 deliberately unresolvable.

    The expected adjacency (hand-drawn oracle, citing -> cited):
        g02->g01  g03->g01  g03->g02  g04->g02  g04->g03  g05->g01
        g05->g04  g06->g05  g07->g05  g08->g07  g09->g08
    plus unresolvable entries on g06 (unknown report number), g09
    (journal triple not in the store) and g10 (free text, no fields).
    """

    def rec(n: int, journal=None, volume=None, page=None, reports=()):
        return BibRecord(
            record_id=f"g{n:02d}",
            title=f"Fixture paper {n}",
            authors=[f"Author {n}"],
            year=2000 + n,
            journal=journal,
            volume=volume,
            page=page,
            report_numbers=list(reports),
            ingest_time=1000 + n,
        )

    def cite_report(rn: str) -> CitationEntry:
        return CitationEntry(raw=f"cites {rn}", report_numbers=[rn])

    def cite_triple(journal: str, volume: str, page: str) -> CitationEntry:
        return CitationEntry(
            raw=f"cites {journal} {volume} {page}",
            journal=journal,
            volume=volume,
            page=page,
        )

    r1 = rec(1, journal="Phys. Rev., A", volume="10", page="100", reports=["FIX-01-001"])
    r2 = rec(2, journal="J. High Energy Phys.", volume="11", page="200", reports=["FIX-02-002"])
    r3 = rec(3, reports=["FIX-03-003"])
    r4 = rec(4, reports=["FIX-04-004"])
    r5 = rec(5, journal="Astron. Astrophys.", volume="12", page="300", reports=["FIX-05-005"])
    r6 = rec(6, reports=["FIX-06-006"])
    r7 = rec(7, reports=["FIX-07-007"])
    r8 = rec(8, reports=["FIX-08-008"])
    r9 = rec(9, reports=["FIX-09-009"])
    r10 = rec(10, reports=["FIX-10-010"])

    r2.references = [cite_report("FIX-01-001")]
    r3.references = [
        cite_report("FIX-01-001"),
        cite_triple("J. High Energy Phys.", "11", "200"),
    ]
    r4.references = [cite_report("FIX-02-002"), cite_report("FIX-03-003")]
    r5.references = [
        cite_triple("Phys. Rev., A", "10", "100"),
        cite_report("FIX-04-004"),
    ]
    r6.references = [cite_report("FIX-05-005"), cite_report("XX-99-999")]
    r7.references = [cite_triple("Astron. Astrophys.", "12", "300")]
    r8.references = [cite_report("FIX-07-007")]
    r9.references = [
        cite_report("FIX-08-008"),
        cite_triple("New Sci.", "77", "8"),
    ]
    r10.references = [CitationEntry(raw="see the discussion in the text")]
    return [r1, r2, r3, r4, r5, r6, r7, r8, r9, r10]


GRAPH_FIXTURE_EDGES = {
    ("g02", "g01"),
    ("g03", "g01"),
    ("g03", "g02"),
    ("g04", "g02"),
    ("g04", "g03"),
    ("g05", "g01"),
    ("g05", "g04"),
    ("g06", "g05"),
    ("g07", "g05"),
    ("g08", "g07"),
    ("g09", "g08"),
}

GRAPH_FIXTURE_COUNTS = {
    "g01": 3,
    "g02": 2,
    "g03": 1,
    "g04": 1,
    "g05": 2,
    "g06": 0,
    "g07": 1,
    "g08": 1,
    "g09": 0,
    "g10": 0,
}
