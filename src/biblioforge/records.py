"""Bibliographic record model, on-disk store, field queries and BibTeX export.

Records are UTF-8 in the ``key: value`` format of ``fields``, with no empty
values, separated by a line containing only ``%%``.  ``_FIELDS`` declares
their keys once, in file order, for reading, writing and validation: keys
``author``, ``report_number`` and ``reference_raw`` repeat; all others are
singular.

A store is a directory of segment files, three kinds of them: records,
keywords and references.  Each writing command adds one segment per kind
it wrote, ``seg-<n>.records``, ``seg-<n>.keywords`` or
``seg-<n>.references``; one counter ``n`` over all kinds orders them.  A
records segment holds ``%%``-separated record blocks, the format of
``parse_records_text``.  A sidecar segment holds one block per record: a
``%%<TAB><record_id>`` header, then the sidecar text, which may open with
a ``digest<TAB><hex>`` line (the digest of the inputs its rows were
computed from) and then holds one row per result.  A
``%%<TAB><record_id><TAB>removed`` header is a tombstone: the record has
no such sidecar.  Sidecars without a digest line stay readable; their
rows are simply recomputed by the next enrichment run.  The enrichment
commands write only sidecar segments, never records.

Per record id and kind, the block of the newest segment wins.  When a
segment is added, it is merged with the newest older segment of its kind
while that one is at most twice the size of the merge, keeping the newest
block per id; a tombstone is dropped once nothing older can hold its id.
So each segment of a kind is more than twice the size of the next newer
one, and a kind keeps O(log n) segments.

Every segment is written in id order, so each is a sorted run, and one
whose ids do not strictly ascend is a MalformedLine.  A read merges the
runs of the kinds it asks for as streams and keeps no index; the
per-record files of stores written before segments (``<record_id>.rec``,
``.keys.tsv`` and ``.refs.tsv``; nothing writes them any more) are the
oldest run.  Only winning parts are parsed, so a damaged block fails only
the readers that ask for its kind, once the read reaches it; writes made
before that stay, as ``RecordStore.batch`` keeps them.  Each command of
``cli`` names the kinds its whole-store read asks ``iter_records`` for.

Parsing and query matching are pure functions.  The store supports
concurrent readers with a single writer: a segment is written to a
temporary file in the store directory and linked into place under a name
no segment has, a write outside ``RecordStore.batch`` is a batch of one,
and a reader lists again when a merge removes a segment it listed.
``write_atomic``, which the alert store and the notification writer use,
renames its temporary file into place instead.  Record ids are checked
before any path is built from them, on read as on write.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

# _blake2 is what hashlib.blake2b re-exports; importing hashlib itself would
# load OpenSSL and cost megabytes of resident memory in every command.
from _blake2 import blake2b

from .errors import MalformedLine, MissingField, StorageFailure, UnknownRecord, in_file
from .fields import LINE_BREAKS, check_value, decode, field_lines, line_blocks, read_fields
from .refextract import CitationEntry
from .taxonomy import KeywordAssignment

YEAR_MIN = 1800
YEAR_MAX = 2100

RECORD_SEPARATOR = "%%"

QUERY_FIELDS = ("title", "author", "year", "journal", "report_number", "keyword", "any")
QUERY_MATCHES = ("contains", "equals", "range")

_BAD_ID_CHAR = re.compile(f"[/\\\\\0\t{LINE_BREAKS}]")


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


# The fields of a record file, in file order; keywords and digests live in sidecars.
_FIELDS = {
    "id": ("record_id", False, str, str),
    "title": ("title", False, str, str),
    "author": ("authors", True, str, str),
    "year": ("year", False, int, str),
    "journal": ("journal", False, str, str),
    "volume": ("volume", False, str, str),
    "page": ("page", False, str, str),
    "report_number": ("report_numbers", True, str, str),
    "fulltext": ("fulltext_path", False, str, str),
    "ingest_time": ("ingest_time", False, int, str),
    "reference_raw": ("references", True, CitationEntry, attrgetter("raw")),
}


def make_dir(root: str | Path, what: str) -> Path:
    """Create the directory of a store if it is missing; ``what`` names the store in errors."""
    root = Path(root)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageFailure(f"cannot create {what} at {root}: {exc}") from exc
    return root


def list_files(root: Path, suffix: str) -> list[str]:
    """Sorted ``<name>`` of each file (not directory) in ``root`` named ``<name><suffix>``."""
    try:
        with os.scandir(root) as entries:
            names = [
                entry.name[: -len(suffix)]
                for entry in entries
                if entry.name.endswith(suffix) and entry.name != suffix and entry.is_file()
            ]
    except OSError as exc:
        raise StorageFailure(f"listing of {root} failed: {exc}") from exc
    return sorted(names)


def write_atomic(path: str | Path, content: str) -> None:
    """Replace ``path`` with ``content`` through a fresh temporary file and a rename."""
    _publish(path, [content.encode("utf-8")], os.replace)


def _publish(path: str | Path, chunks: Iterable[bytes], place) -> None:
    """Write ``chunks`` to a fresh temporary file, then call ``place(temporary, path)``.

    The temporary file sits beside the target, named ``.tmp-*.tmp`` so no
    store listing picks it up, and is gone afterwards, whether or not the
    write succeeded.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
            place(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):  # a rename took it
                os.unlink(tmp)
    except OSError as exc:
        raise StorageFailure(f"write to {path} failed: {exc}") from exc


def _read_text(path: str) -> str | None:
    """A store file's text, or None when there is no such file.

    Bytes are decoded by ``fields.decode`` without newline translation, which
    text mode would add at some cost: every store parser splits lines with
    ``str.splitlines``, which already takes ``\\r\\n`` and ``\\r`` as one break.
    """
    try:
        with open(path, "rb") as fh:
            return decode(fh.read())
    except (FileNotFoundError, IsADirectoryError):
        return None
    except OSError as exc:
        raise StorageFailure(f"read of {path} failed: {exc}") from exc


def _check_record_id(record_id: str) -> None:
    """Raise ValueError unless the id is usable as a file name in the store."""
    if not record_id:
        raise ValueError("record_id must be non-empty")
    if _BAD_ID_CHAR.search(record_id) or record_id in (".", ".."):
        raise ValueError(f"record_id not usable as a file name: {record_id!r}")


def validate_record(record: BibRecord) -> None:
    """Check record invariants; raises ValueError on violation, naming the record."""
    _check_record_id(record.record_id)
    try:
        if not record.title.strip():
            raise ValueError("title must be non-empty")
        if record.year is not None and not YEAR_MIN <= record.year <= YEAR_MAX:
            raise ValueError(f"year {record.year} outside [{YEAR_MIN}, {YEAR_MAX}]")
        if record.ingest_time is not None and record.ingest_time < 0:
            raise ValueError("ingest_time must be non-negative")
        for _, value in field_lines(vars(record), _FIELDS):
            # parse_record refuses an empty value
            if not value.strip():
                raise ValueError(f"field value is blank or has surrounding whitespace: {value!r}")
            check_value("field value", value)
    except ValueError as exc:
        raise ValueError(f"record {record.record_id}: {exc}") from None


def parse_record(raw: str, _line_offset: int = 0) -> BibRecord:
    """Parse one record block into a BibRecord.

    Mandatory keys are ``id`` and ``title``.  Unknown keys are ignored with
    a warning; an empty value is a MalformedLine.
    """
    values = read_fields(raw.splitlines(), _FIELDS, "record", 1 + _line_offset)
    if "record_id" not in values:
        raise MissingField("id")
    if "title" not in values:
        raise MissingField("title")
    return BibRecord(**values)


def parse_records_text(text: str) -> list[BibRecord]:
    """Parse a whole record file: blocks separated by ``%%`` lines."""
    blocks = line_blocks(text.splitlines(), lambda line: line.strip() == RECORD_SEPARATOR)
    return [
        parse_record("\n".join(block), first - 1)
        for first, block in blocks
        if any(line.strip() for line in block)
    ]


def serialize_record(record: BibRecord) -> str:
    """Serialize a record to its file format; inverse of parse_record."""
    return "".join([f"{key}: {value}\n" for key, value in field_lines(vars(record), _FIELDS)])


@dataclass(frozen=True)
class QueryClause:
    field: str
    match: str
    value: str | int | tuple[int, int]


@dataclass(frozen=True)
class FieldQuery:
    """Conjunction of field clauses; a record matches when every clause does.

    Clause values are those ``parse_clause`` yields: an int for year equals,
    an ordered int pair for year range and a string otherwise.
    """

    clauses: tuple[QueryClause, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("query needs at least one clause")
        for clause in self.clauses:
            if clause.field not in QUERY_FIELDS:
                raise ValueError(f"unknown query field: {clause.field!r}")
            if clause.match not in QUERY_MATCHES:
                raise ValueError(f"unknown match kind: {clause.match!r}")
            value = clause.value
            if clause.match == "range":
                if clause.field != "year":
                    raise ValueError("range match is only valid on year")
                if (
                    not isinstance(value, tuple)
                    or len(value) != 2
                    or not all(type(v) is int for v in value)
                    or value[0] > value[1]
                ):
                    raise ValueError("range value must be an ordered integer pair")
            elif clause.field == "year" and clause.match == "equals":
                if type(value) is not int:
                    raise ValueError(f"year equals value must be an integer: {value!r}")
            elif not isinstance(value, str):
                raise ValueError(f"{clause.field} {clause.match} value must be a string: {value!r}")


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
        return QueryClause(fld, match, (_clause_year(text, lo), _clause_year(text, hi)))
    if fld == "year" and match == "equals":
        return QueryClause(fld, match, _clause_year(text, value))
    return QueryClause(fld, match, value)


def _clause_year(clause: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"clause {clause!r} needs an integer year, got {value!r}") from None


def format_clause(clause: QueryClause) -> str:
    """The ``field:match:value`` text of a clause; inverse of parse_clause."""
    value = clause.value
    if isinstance(value, tuple):
        value = f"{value[0]}..{value[1]}"
    return f"{clause.field}:{clause.match}:{value}"


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
        return record.year == clause.value
    needle = clause.value.lower()  # type: ignore[union-attr]
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


def _sidecar_text(record_id: str, items: list, digest: str | None, to_rows, read) -> str:
    """Sidecar file text; ValueError unless ``read`` gives back ``(digest, items)`` from it."""
    lines = [] if digest is None else [f"{_DIGEST_KEY}\t{digest}"]
    lines.extend("\t".join(row) for row in to_rows(items))
    text = "".join(line + "\n" for line in lines)
    try:
        read_back = read(text)
    except (MalformedLine, ValueError):
        read_back = None
    if read_back != (digest, items):
        raise ValueError(f"record {record_id}: sidecar rows would not read back as written")
    return text


def _sidecar_rows(
    text: str, columns: int, kind: str, first_line: int
) -> tuple[str | None, list[list[str]]]:
    """(digest, rows) of a sidecar whose text starts on ``first_line`` of its file.

    The digest is None when the first line is not one.  A digest line has
    two columns and every row more, so the two never mix.
    """
    digest = None
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=first_line):
        if not line:
            continue
        cols = line.split("\t")
        if line_no == first_line and len(cols) == 2 and cols[0] == _DIGEST_KEY:
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


def _refs_from_rows(text: str, first_line: int = 1) -> tuple[str | None, list[CitationEntry]]:
    digest, rows = _sidecar_rows(text, 8, "refs", first_line)
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


def _keys_from_rows(text: str, first_line: int = 1) -> tuple[str | None, list[KeywordAssignment]]:
    digest, rows = _sidecar_rows(text, 5, "keys", first_line)
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


# --- segments --------------------------------------------------------------

# Per kind: the suffix of its per-record files and the parser of a block's text and first line.
_KINDS = {
    "records": (".rec", lambda text, first_line: parse_record(text, first_line - 1)),
    "keywords": (".keys.tsv", _keys_from_rows),
    "references": (".refs.tsv", _refs_from_rows),
}
_SEGMENT_NAME = re.compile(r"seg-([0-9]+)\.(records|keywords|references)")
_REMOVED = "removed"
_IN_FILE = object()  # the body of a per-record file, read only once its block wins


def _header(kind: str, record_id: str, removed: bool = False) -> bytes:
    """The line that opens a block; a records block's own first line names its id."""
    if kind == "records":
        return b"%%\n"
    return f"%%\t{record_id}\t{_REMOVED}\n".encode() if removed else f"%%\t{record_id}\n".encode()


def _read_header(line: bytes, kind: str, line_no: int) -> tuple[str | None, bool] | None:
    """``(record_id, removed)`` of a block header, or None for any other line.

    Every header starts with ``%%``.  A records header names no id: the
    block's own first line does.
    """
    if kind == "records":
        return (None, False) if line.strip() == b"%%" else None
    if not line.startswith(b"%%\t"):
        return None
    cells = decode(line, line_no).rstrip("\n").split("\t")
    if len(cells) == 2:
        return cells[1], False
    if len(cells) == 3 and cells[2] == _REMOVED:
        return cells[1], True
    return None  # a sidecar row whose first cell is "%%"


def _scan(fh: BinaryIO, kind: str) -> Iterator[tuple[str, bytes | None, int]]:
    """``(record_id, body, first_line)`` of each block of a segment, in file order.

    The body is the block's bytes below its header line, None for a
    tombstone.  A line outside every block, or a records block that does not
    open with its id, is a MalformedLine.
    """
    record_id, body, first = None, None, 0  # the open block, if first; a tombstone's body is None
    for line_no, line in enumerate(fh, start=1):
        header = _read_header(line, kind, line_no) if line[:2] == b"%%" else None
        if body is not None and record_id is None:  # a records block opens with its id
            key, _, value = decode(line, line_no).partition(":")
            if header is not None or key.strip() != "id" or not value.strip():
                raise MalformedLine("segment block does not open with its id", line_no)
            record_id = value.strip()
            body.append(line)
        elif header is not None:
            if first:
                yield record_id, None if body is None else b"".join(body), first
            record_id, removed = header
            body, first = None if removed else [], line_no + 1
        elif body is None:
            raise MalformedLine("line outside every segment block", line_no)
        else:
            body.append(line)
    if body is not None and record_id is None:
        raise MalformedLine("segment block does not open with its id", line_no + 1)
    if first:
        yield record_id, None if body is None else b"".join(body), first


def _run(path: str, kind: str) -> Iterator[tuple]:
    """The segment at ``path`` as a run of ``(record_id, kind, body, first_line, path)``.

    The file opens on the first step.  FileNotFoundError passes through for
    a segment that is gone; every other error names ``path``.
    """
    last = ""  # ids are never empty
    try:
        with open(path, "rb") as fh:
            for record_id, body, first_line in _scan(fh, kind):
                if record_id <= last:
                    raise MalformedLine("segment ids do not ascend", first_line - 1)
                last = record_id
                yield record_id, kind, body, first_line, path
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise StorageFailure(f"read of {path} failed: {exc}") from exc
    except MalformedLine as exc:
        raise in_file(exc, path)


def _newest(runs: list[Iterator[tuple]]) -> Iterator[tuple[str, dict[str, tuple]]]:
    """``(record_id, parts)`` per id, ascending, of runs of ``(record_id, kind, body, ...)`` items.

    The runs of a kind come newest first, so ``parts`` maps each kind to its newest item.
    """
    for record_id, items in itertools.groupby(heapq.merge(*runs, key=itemgetter(0)), itemgetter(0)):
        parts: dict[str, tuple] = {}
        for item in items:
            parts.setdefault(item[1], item)
        yield record_id, parts


def _parse(item: tuple | None):
    """A run item's part, parsed; None for no item, a tombstone or a per-record file now gone."""
    if item is None or item[2] is None:
        return None
    _, kind, body, first_line, path = item
    try:
        text = _read_text(path) if body is _IN_FILE else decode(body, first_line)
        return None if text is None else _KINDS[kind][1](text, first_line)
    except (MalformedLine, MissingField, ValueError) as exc:
        raise in_file(exc, path)


def _record(parts: dict[str, tuple]) -> BibRecord | None:
    """The record of one id's newest parts, with the sidecars among them; None without a record."""
    if (record := _parse(parts.get("records"))) is None:
        return None
    if (part := _parse(parts.get("references"))) is not None:
        record.references_digest, record.references = part
    if (part := _parse(parts.get("keywords"))) is not None:
        record.keywords_digest, record.keywords = part
    return record


class _Listing:
    """One scan of a store directory: its segment numbers and its per-record files, per kind."""

    def __init__(self, root: Path):
        self.segments: dict[str, list[int]] = {kind: [] for kind in _KINDS}
        self.files: dict[str, set[str]] = {kind: set() for kind in _KINDS}
        self.last = 0
        try:
            with os.scandir(root) as entries:
                for entry in entries:
                    if not entry.is_file():
                        continue
                    if match := _SEGMENT_NAME.fullmatch(entry.name):
                        self.segments[match[2]].append(int(match[1]))
                        self.last = max(self.last, int(match[1]))
                        continue
                    for kind, (suffix, _) in _KINDS.items():
                        if entry.name.endswith(suffix) and entry.name != suffix:
                            self.files[kind].add(entry.name[: -len(suffix)])
        except OSError as exc:
            raise StorageFailure(f"listing of {root} failed: {exc}") from exc
        for numbers in self.segments.values():
            numbers.sort()  # oldest first


class RecordStore:
    """Directory-backed record store of segment files, newest block per id winning.

    Reads are safe from many threads; writes require a single writer.  A
    write outside ``batch`` is a batch of one.
    """

    def __init__(self, root: str | Path):
        self.root = make_dir(root, "store")
        self._prefix = os.path.join(self.root, "")
        self._pending: dict[str, dict[str, bytes | None]] | None = None

    def _segment(self, n: int, kind: str) -> str:
        return f"{self._prefix}seg-{n}.{kind}"

    # --- writing -----------------------------------------------------------

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Hold back the writes of the ``with`` body, then add one segment per kind written.

        The segments are added however the body exits, so the writes made
        before an exception are kept.  Readers see none of the body's writes
        until it exits; a nested ``batch`` joins the outer one.
        """
        if self._pending is not None:
            yield
            return
        self._pending = {}
        try:
            yield
        finally:
            pending, self._pending = self._pending, None
            for kind, blocks in pending.items():
                self._add_segment(kind, blocks)

    def _write(self, kind: str, record_id: str, body: bytes | None) -> None:
        """Store ``body`` as the newest block of ``record_id``; None removes the sidecar."""
        _check_record_id(record_id)
        with self.batch():
            self._pending.setdefault(kind, {})[record_id] = body

    def upsert(self, record: BibRecord) -> BibRecord:
        """Insert or replace a record; latest content wins per record id.

        ``ingest_time`` is stamped with the insertion wall clock when the
        record carries none.
        """
        validate_record(record)
        if record.ingest_time is None:
            record.ingest_time = int(time.time())
        self._write("records", record.record_id, serialize_record(record).encode())
        return record

    def write_refs_sidecar(
        self, record_id: str, entries: Iterable[CitationEntry], digest: str | None = None
    ) -> None:
        """Write the references sidecar, led by the digest of its inputs when given."""
        text = _sidecar_text(record_id, list(entries), digest, _refs_rows, _refs_from_rows)
        self._write("references", record_id, text.encode())

    def write_keywords_sidecar(
        self, record_id: str, assignments: Iterable[KeywordAssignment], digest: str | None = None
    ) -> None:
        """Write the keywords sidecar, led by the digest of its inputs when given."""
        text = _sidecar_text(record_id, list(assignments), digest, _keys_rows, _keys_from_rows)
        self._write("keywords", record_id, text.encode())

    def remove_sidecar(self, record_id: str, kind: str) -> None:
        """Remove a record's ``keywords`` or ``references`` sidecar, if it has one."""
        if kind not in ("keywords", "references"):
            raise ValueError(f"not a sidecar kind: {kind!r}")
        self._write(kind, record_id, None)

    def _add_segment(self, kind: str, blocks: dict[str, bytes | None]) -> None:
        """Add a segment of ``blocks`` (None for a removal), merged with older ones by size.

        A removal becomes a tombstone only where some layer holds the
        sidecar; no segment is added when nothing is left to write.
        """
        listing = _Listing(self.root)
        older, files = listing.segments[kind], listing.files[kind]
        if removed := {rid for rid, body in blocks.items() if body is None}:
            layers = _newest(self._layers(kind, older, files))
            held = {r for r, parts in layers if r in removed and parts[kind][2] is not None}
            for rid in removed - held:
                del blocks[rid]
            if not blocks:
                return
        pending = sorted(blocks.items())
        replaced: list[int] = []  # the older segments merged in, oldest first

        def chunks() -> Iterator[bytes]:
            """The bytes of ``blocks`` merged with the ``replaced`` segments."""
            runs = [((rid, kind, body) for rid, body in pending), *self._layers(kind, replaced, ())]
            for rid, parts in _newest(runs):
                body = parts[kind][2]
                if body is not None or older or rid in files:  # else nothing older can hold rid
                    yield _header(kind, rid, body is None)
                    yield body or b""

        # the deduplicated size of the merge so far is measured by streaming it again, so no id set
        while older and self._size(older[-1], kind) <= 2 * sum(map(len, chunks())):
            replaced.insert(0, older.pop())
        if (first := next(out := chunks(), None)) is not None:
            _publish(self._segment(listing.last + 1, kind), itertools.chain([first], out), os.link)
        for n in replaced:
            path = self._segment(n, kind)
            try:
                os.unlink(path)
            except OSError as exc:
                raise StorageFailure(f"removal of merged segment {path} failed: {exc}") from exc

    def _size(self, n: int, kind: str) -> int:
        """Bytes of segment ``n`` of ``kind``, which only the writer asks for."""
        try:
            return os.stat(self._segment(n, kind)).st_size
        except OSError as exc:
            raise StorageFailure(f"listing of {self.root} failed: {exc}") from exc

    # --- reading -----------------------------------------------------------

    def _layers(self, kind: str, numbers: list[int], files: Iterable[str]) -> list[Iterator]:
        """A sorted run per layer of ``kind``, newest first: numbered segments, then ``files``."""
        suffix = _KINDS[kind][0]
        runs = [_run(self._segment(n, kind), kind) for n in reversed(numbers)]
        runs.append((rid, kind, _IN_FILE, 1, self._prefix + rid + suffix) for rid in sorted(files))
        return runs

    def _read(self, kinds: list[str]) -> Iterator[tuple[str, dict[str, tuple]]]:
        """The newest parts of ``kinds`` per id; lists again if a merge removes a listed segment."""
        while True:
            listing = _Listing(self.root)
            runs = sum((self._layers(k, listing.segments[k], listing.files[k]) for k in kinds), [])
            merged = _newest(runs)
            with contextlib.suppress(FileNotFoundError):  # a merge's first step opens every run
                first = next(merged, None)
                return itertools.chain([] if first is None else [first], merged)

    def iter_records(
        self,
        record_ids: Iterable[str] | None = None,
        *,
        keywords: bool = True,
        references: bool = True,
    ) -> Iterator[BibRecord]:
        """The records of ``record_ids`` in the order given, or every record in id order.

        Each record carries the sidecars asked for; a kind left out is
        neither opened nor decoded, so a damaged sidecar fails only the
        readers that ask for it.  A named read is one pass over the store
        that keeps the blocks of the named ids only.  UnknownRecord for a
        named id not stored.
        """
        if record_ids is not None:
            record_ids = list(record_ids)
            for record_id in record_ids:
                _check_record_id(record_id)
        kinds = ["records"]
        kinds += ["keywords"] if keywords else []
        kinds += ["references"] if references else []
        merged = self._read(kinds)
        if record_ids is None:
            for _, parts in merged:
                if (record := _record(parts)) is not None:
                    yield record
            return
        wanted = set(record_ids)
        named = {record_id: parts for record_id, parts in merged if record_id in wanted}
        for record_id in record_ids:
            if (record := _record(named.get(record_id, {}))) is None:
                raise UnknownRecord(record_id)
            yield record

    def get(
        self, record_id: str, *, keywords: bool = True, references: bool = True
    ) -> BibRecord:
        """Load a record, merging the keyword and reference sidecars asked for."""
        [record] = self.iter_records([record_id], keywords=keywords, references=references)
        return record

    def record_ids(self) -> list[str]:
        return [record_id for record_id, _ in self._read(["records"])]

    def __len__(self) -> int:
        return len(self.record_ids())

    def fulltext_file(self, record: BibRecord) -> Path | None:
        """Full-text file for a record; relative paths resolve in the store."""
        if record.fulltext_path is None:
            return None
        path = Path(record.fulltext_path)
        return path if path.is_absolute() else self.root / path
