"""Bibliographic record model, on-disk store, field queries and BibTeX export.

The record file format is line-oriented UTF-8: one ``key: value`` field per
line, records separated by a line containing only ``%%``.  Keys ``author``,
``report_number`` and ``reference_raw`` repeat; all others are singular.
A store is a directory holding one ``<record_id>.rec`` file per record,
with optional ``<record_id>.refs.tsv`` and ``<record_id>.keys.tsv``
sidecars carrying parsed references and assigned keywords.  The
enrichment commands write only the sidecars, never the ``.rec`` file.  A
sidecar may open with a ``digest<TAB><hex>`` line: the digest of the
inputs its rows were computed from, written in the same file so that it
always describes the rows beside it.  Sidecars without that line stay
readable; their rows are simply recomputed by the next enrichment run.

Parsing and query matching are pure functions.  The store supports
concurrent readers with a single writer; each write goes to a temporary
file in the store directory and is renamed into place (``write_atomic``,
which the alert store and the notification writer use too).  Record ids
are checked before any path is built from them, on read as on write.
"""

from __future__ import annotations

import logging
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

# _blake2 is what hashlib.blake2b re-exports; importing hashlib itself would
# load OpenSSL and cost megabytes of resident memory in every command.
from _blake2 import blake2b

from .errors import MalformedLine, MissingField, StorageFailure, UnknownRecord
from .refextract import CitationEntry
from .taxonomy import KeywordAssignment

logger = logging.getLogger(__name__)

YEAR_MIN = 1800
YEAR_MAX = 2100

RECORD_SEPARATOR = "%%"

_SINGULAR_KEYS = ("id", "title", "year", "journal", "volume", "page", "fulltext", "ingest_time")
_REPEATABLE_KEYS = ("author", "report_number", "reference_raw")
_INT_KEYS = ("year", "ingest_time")

QUERY_FIELDS = ("title", "author", "year", "journal", "report_number", "keyword", "any")
QUERY_MATCHES = ("contains", "equals", "range")

# Every character str.splitlines splits on; parse_record would split a value there.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"[{_LINE_BREAKS}]")
_BAD_ID_CHAR = re.compile(f"[/\\\\\0\t{_LINE_BREAKS}]")


@dataclass
class BibRecord:
    """One bibliographic item."""

    record_id: str
    title: str
    authors: list[str] = field(default_factory=list)
    year: int | None = None
    journal: str | None = None
    volume: str | None = None
    page: str | None = None
    report_numbers: list[str] = field(default_factory=list)
    fulltext_path: str | None = None
    keywords: list[KeywordAssignment] = field(default_factory=list)
    references: list[CitationEntry] = field(default_factory=list)
    ingest_time: int | None = None
    # Input digests read from the sidecars: provenance of the results, not content.
    keywords_digest: str | None = field(default=None, compare=False, repr=False)
    references_digest: str | None = field(default=None, compare=False, repr=False)


def write_atomic(path: Path, content: str) -> None:
    """Replace ``path`` with ``content`` through a fresh temporary file and a rename.

    The temporary file sits beside the target, named ``.tmp-*.tmp`` so no
    store glob picks it up, and is removed when the write fails.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(content)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise StorageFailure(f"write to {path} failed: {exc}") from exc


def sorted_records(store) -> list[BibRecord]:
    """Every record of a store, or of any iterable of records, sorted by id."""
    records = list(store.iter_records()) if hasattr(store, "iter_records") else list(store)
    records.sort(key=lambda r: r.record_id)
    return records


def _check_record_id(record_id: str) -> None:
    """Raise ValueError unless the id is usable as a file name in the store."""
    if not record_id:
        raise ValueError("record_id must be non-empty")
    if _BAD_ID_CHAR.search(record_id) or record_id in (".", ".."):
        raise ValueError(f"record_id not usable as a file name: {record_id!r}")


def validate_record(record: BibRecord) -> None:
    """Check record invariants; raises ValueError on violation."""
    _check_record_id(record.record_id)
    if not record.title.strip():
        raise ValueError("title must be non-empty")
    if record.year is not None and not YEAR_MIN <= record.year <= YEAR_MAX:
        raise ValueError(f"year {record.year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    if record.ingest_time is not None and record.ingest_time < 0:
        raise ValueError("ingest_time must be non-negative")
    for value in _serializable_values(record):
        if _LINE_BREAK.search(value):
            raise ValueError(f"field value contains a line break: {value!r}")


def _serializable_values(record: BibRecord) -> list[str]:
    values = [record.record_id, record.title, *record.authors, *record.report_numbers]
    for opt in (record.journal, record.volume, record.page, record.fulltext_path):
        if opt is not None:
            values.append(opt)
    values.extend(entry.raw for entry in record.references)
    return values


def parse_record(raw: str, _line_offset: int = 0) -> BibRecord:
    """Parse one record block into a BibRecord.

    Mandatory keys are ``id`` and ``title``.  Unknown keys are ignored with
    a warning; a line without a key separator or with an empty value is a
    MalformedLine.
    """
    singles: dict[str, str] = {}
    repeats: dict[str, list[str]] = {k: [] for k in _REPEATABLE_KEYS}
    for line_no, line in enumerate(raw.splitlines(), start=1 + _line_offset):
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise MalformedLine("no key separator", line_no)
        key = key.strip()
        value = value.strip()
        if not value:
            raise MalformedLine(f"empty value for key {key!r}", line_no)
        if key in _REPEATABLE_KEYS:
            repeats[key].append(value)
        elif key in _SINGULAR_KEYS:
            if key in singles:
                raise MalformedLine(f"duplicate key {key!r}", line_no)
            if key in _INT_KEYS:
                try:
                    int(value)
                except ValueError:
                    raise MalformedLine(f"{key} is not an integer: {value!r}", line_no) from None
            singles[key] = value
        else:
            logger.warning("record line %d: ignoring unknown key %r", line_no, key)
    if "id" not in singles:
        raise MissingField("id")
    if "title" not in singles:
        raise MissingField("title")
    return BibRecord(
        record_id=singles["id"],
        title=singles["title"],
        authors=repeats["author"],
        year=int(singles["year"]) if "year" in singles else None,
        journal=singles.get("journal"),
        volume=singles.get("volume"),
        page=singles.get("page"),
        report_numbers=repeats["report_number"],
        fulltext_path=singles.get("fulltext"),
        references=[CitationEntry(raw=r) for r in repeats["reference_raw"]],
        ingest_time=int(singles["ingest_time"]) if "ingest_time" in singles else None,
    )


def parse_records_text(text: str) -> list[BibRecord]:
    """Parse a whole record file: blocks separated by ``%%`` lines."""
    records = []
    block: list[str] = []
    block_start = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.strip() == RECORD_SEPARATOR:
            if any(l.strip() for l in block):
                records.append(parse_record("\n".join(block), block_start))
            block = []
            block_start = line_no
        else:
            block.append(line)
    if any(l.strip() for l in block):
        records.append(parse_record("\n".join(block), block_start))
    return records


def serialize_record(record: BibRecord) -> str:
    """Serialize a record to its file format; inverse of parse_record."""
    lines = [f"id: {record.record_id}", f"title: {record.title}"]
    lines.extend(f"author: {a}" for a in record.authors)
    if record.year is not None:
        lines.append(f"year: {record.year}")
    if record.journal is not None:
        lines.append(f"journal: {record.journal}")
    if record.volume is not None:
        lines.append(f"volume: {record.volume}")
    if record.page is not None:
        lines.append(f"page: {record.page}")
    lines.extend(f"report_number: {rn}" for rn in record.report_numbers)
    if record.fulltext_path is not None:
        lines.append(f"fulltext: {record.fulltext_path}")
    if record.ingest_time is not None:
        lines.append(f"ingest_time: {record.ingest_time}")
    lines.extend(f"reference_raw: {e.raw}" for e in record.references)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class QueryClause:
    field: str
    match: str
    value: str | int | tuple[int, int]


@dataclass(frozen=True)
class FieldQuery:
    """Conjunction of field clauses; a record matches when every clause does."""

    clauses: tuple[QueryClause, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("query needs at least one clause")
        for clause in self.clauses:
            if clause.field not in QUERY_FIELDS:
                raise ValueError(f"unknown query field: {clause.field!r}")
            if clause.match not in QUERY_MATCHES:
                raise ValueError(f"unknown match kind: {clause.match!r}")
            if clause.match == "range":
                if clause.field != "year":
                    raise ValueError("range match is only valid on year")
                value = clause.value
                if (
                    not isinstance(value, tuple)
                    or len(value) != 2
                    or not all(isinstance(v, int) for v in value)
                    or value[0] > value[1]
                ):
                    raise ValueError("range value must be an ordered integer pair")


def parse_clause(text: str) -> QueryClause:
    """Parse the ``field:match:value`` clause syntax used by the CLI."""
    parts = text.split(":", 2)
    if len(parts) != 3:
        raise ValueError(f"clause must be field:match:value, got {text!r}")
    fld, match, value = parts[0].strip(), parts[1].strip(), parts[2].strip()
    if fld == "year" and match == "range":
        lo, sep, hi = value.partition("..")
        if not sep:
            raise ValueError(f"year range must be lo..hi, got {value!r}")
        return QueryClause(fld, match, (int(lo), int(hi)))
    if fld == "year" and match == "equals":
        return QueryClause(fld, match, int(value))
    return QueryClause(fld, match, value)


def _text_values(record: BibRecord, fld: str) -> list[str]:
    if fld == "title":
        return [record.title]
    if fld == "author":
        return list(record.authors)
    if fld == "journal":
        return [record.journal] if record.journal is not None else []
    if fld == "report_number":
        return list(record.report_numbers)
    if fld == "keyword":
        return [k.display_label for k in record.keywords]
    if fld == "year":
        return [str(record.year)] if record.year is not None else []
    # 'any' spans the textual metadata fields, not full text
    values = [record.title, *record.authors, *record.report_numbers]
    if record.journal is not None:
        values.append(record.journal)
    values.extend(k.display_label for k in record.keywords)
    return values


def _clause_matches(clause: QueryClause, record: BibRecord) -> bool:
    if clause.match == "range":
        lo, hi = clause.value  # type: ignore[misc]
        return record.year is not None and lo <= record.year <= hi
    if clause.field == "year" and clause.match == "equals":
        try:
            return record.year == int(clause.value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
    needle = str(clause.value).lower()
    values = [v.lower() for v in _text_values(record, clause.field)]
    if clause.match == "contains":
        return any(needle in v for v in values)
    return any(needle == v for v in values)


def match_query(query: FieldQuery, record: BibRecord) -> bool:
    """True iff every clause of the query matches the record.

    ``contains`` is case-insensitive substring, ``equals`` case-insensitive
    whole-field equality, ``range`` inclusive on year.  ``any`` matches
    when any textual metadata field contains the value.
    """
    return all(_clause_matches(c, record) for c in query.clauses)


def export_bibtex(records: Iterable[BibRecord]) -> str:
    """Render records as BibTeX, one entry per record in input order.

    Entries are ``@article`` when a journal is present, ``@misc``
    otherwise; the citation key is the record id.  Output is deterministic
    given input order.
    """
    entries = []
    for record in records:
        kind = "article" if record.journal is not None else "misc"
        fields = [("title", record.title)]
        if record.authors:
            fields.append(("author", " and ".join(record.authors)))
        if record.year is not None:
            fields.append(("year", str(record.year)))
        if record.journal is not None:
            fields.append(("journal", record.journal))
        body = ",\n".join(f"  {name} = {{{value}}}" for name, value in fields)
        entries.append(f"@{kind}{{{record.record_id},\n{body}\n}}\n")
    return "\n".join(entries)


# --- sidecar serialization -------------------------------------------------

_ABSENT = ""
_DIGEST_KEY = "digest"


def input_digest(*parts: bytes) -> str:
    """Hex digest of a sequence of byte strings, each framed by its length."""
    h = blake2b(digest_size=16)
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def _sidecar_text(record_id: str, rows: Iterable[list[str]], digest: str | None) -> str:
    """Sidecar file text; ValueError when a cell would split its row or line."""
    lines = [] if digest is None else [f"{_DIGEST_KEY}\t{digest}"]
    for row in rows:
        line = "\t".join(row)
        if line.count("\t") != len(row) - 1 or _LINE_BREAK.search(line):
            raise ValueError(
                f"record {record_id}: sidecar value holds a tab or line break: {line!r}"
            )
        lines.append(line)
    return "".join(line + "\n" for line in lines)


def _sidecar_rows(text: str, columns: int, kind: str) -> tuple[str | None, list[list[str]]]:
    """(digest, rows) of a sidecar; the digest is None when the first line is not one.

    A digest line has two columns and every row more, so the two never mix.
    """
    digest = None
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        cols = line.split("\t")
        if line_no == 1 and len(cols) == 2 and cols[0] == _DIGEST_KEY:
            digest = cols[1]
        elif len(cols) != columns:
            raise MalformedLine(f"{kind} sidecar row has {len(cols)} columns", line_no)
        else:
            rows.append(cols)
    return digest, rows


def _refs_rows(entries: Iterable[CitationEntry]) -> Iterator[list[str]]:
    for e in entries:
        yield [
            e.marker or _ABSENT,
            e.journal or _ABSENT,
            e.volume or _ABSENT,
            e.page or _ABSENT,
            str(e.year) if e.year is not None else _ABSENT,
            ";".join(e.report_numbers),
            e.url or _ABSENT,
            e.raw,
        ]


def _refs_from_rows(text: str) -> tuple[str | None, list[CitationEntry]]:
    digest, rows = _sidecar_rows(text, 8, "refs")
    entries = [
        CitationEntry(
            raw=raw,
            marker=marker or None,
            journal=journal or None,
            volume=volume or None,
            page=page or None,
            year=int(year) if year else None,
            report_numbers=[r for r in reports.split(";") if r],
            url=url or None,
        )
        for marker, journal, volume, page, year, reports, url, raw in rows
    ]
    return digest, entries


def _keys_rows(assignments: Iterable[KeywordAssignment]) -> Iterator[list[str]]:
    for ka in assignments:
        yield [
            ka.term_id,
            ka.display_label,
            str(ka.occurrence),
            "+".join(ka.components) if ka.components else _ABSENT,
            ",".join(str(c) for c in ka.component_counts) if ka.component_counts else _ABSENT,
        ]


def _keys_from_rows(text: str) -> tuple[str | None, list[KeywordAssignment]]:
    digest, rows = _sidecar_rows(text, 5, "keys")
    assignments = [
        KeywordAssignment(
            term_id=term_id,
            display_label=label,
            occurrence=int(occurrence),
            components=tuple(components.split("+")) if components else None,  # type: ignore[arg-type]
            component_counts=tuple(int(c) for c in counts.split(","))  # type: ignore[arg-type]
            if counts
            else None,
        )
        for term_id, label, occurrence, components, counts in rows
    ]
    return digest, assignments


class RecordStore:
    """Directory-backed record store: one ``<record_id>.rec`` per record.

    Reads are safe from many threads; writes require a single writer and
    are atomic per file (write to a temporary file, then rename).
    """

    def __init__(self, root: str | Path, create: bool = True):
        self.root = Path(root)
        if create:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StorageFailure(f"cannot create store at {self.root}: {exc}") from exc
        elif not self.root.is_dir():
            raise StorageFailure(f"store directory does not exist: {self.root}")

    def _path(self, record_id: str, suffix: str) -> Path:
        _check_record_id(record_id)
        return self.root / f"{record_id}{suffix}"

    def upsert(self, record: BibRecord, now: int | None = None) -> BibRecord:
        """Insert or replace a record; latest content wins per record id.

        ``ingest_time`` is stamped with the insertion wall clock when the
        record carries none.
        """
        validate_record(record)
        if record.ingest_time is None:
            record.ingest_time = now if now is not None else int(time.time())
        write_atomic(self._path(record.record_id, ".rec"), serialize_record(record))
        return record

    def get(self, record_id: str) -> BibRecord:
        """Load a record, merging reference and keyword sidecars if present."""
        path = self._path(record_id, ".rec")
        if not path.is_file():
            raise UnknownRecord(record_id)
        try:
            record = parse_record(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise StorageFailure(f"read of {path} failed: {exc}") from exc
        refs = self._path(record_id, ".refs.tsv")
        if refs.is_file():
            record.references_digest, record.references = _refs_from_rows(
                refs.read_text(encoding="utf-8")
            )
        keys = self._path(record_id, ".keys.tsv")
        if keys.is_file():
            record.keywords_digest, record.keywords = _keys_from_rows(
                keys.read_text(encoding="utf-8")
            )
        return record

    def write_refs_sidecar(
        self, record_id: str, entries: Iterable[CitationEntry], digest: str | None = None
    ) -> None:
        """Write the references sidecar, led by the digest of its inputs when given."""
        text = _sidecar_text(record_id, _refs_rows(entries), digest)
        write_atomic(self._path(record_id, ".refs.tsv"), text)

    def write_keywords_sidecar(
        self, record_id: str, assignments: Iterable[KeywordAssignment], digest: str | None = None
    ) -> None:
        """Write the keywords sidecar, led by the digest of its inputs when given."""
        text = _sidecar_text(record_id, _keys_rows(assignments), digest)
        write_atomic(self._path(record_id, ".keys.tsv"), text)

    def remove_sidecar(self, record_id: str, suffix: str) -> None:
        """Delete a record's ``.refs.tsv`` or ``.keys.tsv`` sidecar, if there is one."""
        path = self._path(record_id, suffix)
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise StorageFailure(f"removal of {path} failed: {exc}") from exc

    def record_ids(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.rec"))

    def __len__(self) -> int:
        return len(self.record_ids())

    def __contains__(self, record_id: str) -> bool:
        return self._path(record_id, ".rec").is_file()

    def iter_records(self) -> Iterator[BibRecord]:
        for record_id in self.record_ids():
            yield self.get(record_id)

    def fulltext_file(self, record: BibRecord) -> Path | None:
        """Full-text file for a record; relative paths resolve in the store."""
        if record.fulltext_path is None:
            return None
        path = Path(record.fulltext_path)
        return path if path.is_absolute() else self.root / path
