"""Reference extraction: locate, segment and normalize bibliography entries.

Extraction runs in three passes over a plain-text document: find the
reference section, split it into citation entries, then recover structured
fields from each entry against a journal knowledge base that maps
alternative title forms to canonical titles and optional URL templates.

The knowledge base is immutable after load; every operation here is a pure
function per document.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import DuplicateAlias, EmptySection, MalformedLine, TemplateFieldMissing

logger = logging.getLogger(__name__)

DEFAULT_HEADING_PATTERNS = (
    r"^\s*(?:\d{1,2}[.)]?\s+)?references\s*[:.]?\s*$",
    r"^\s*(?:\d{1,2}[.)]?\s+)?bibliography\s*[:.]?\s*$",
    r"^\s*(?:\d{1,2}[.)]?\s+)?reference\s+list\s*[:.]?\s*$",
)

# Marker styles recognized at entry starts: [n], n. and (n).  Dotted
# markers are capped at three digits so a year never reads as a marker.
_MARKER_STYLES = {
    "bracket": re.compile(r"^\s*\[(\d+)\]\s*(.*)$"),
    "dotted": re.compile(r"^\s*(\d{1,3})\.(?:\s+(.*))?$"),
    "paren": re.compile(r"^\s*\((\d+)\)\s*(.*)$"),
}
_STYLE_PRIORITY = ("bracket", "dotted", "paren")

_FALLBACK_MARKER_RE = re.compile(r"^\s*(?:\[\d+\]|\d{1,3}\.(?:\s|$))")

_URL_RE = re.compile(r"https?://\S+")
_OLD_ARXIV_RE = re.compile(r"\b[a-z][a-z-]*(?:\.[A-Za-z]{2})?/\d{7}\b")
_NEW_ARXIV_RE = re.compile(r"\b(\d{4}\.\d{5})(?:v\d+)?\b")
_INST_REPORT_RE = re.compile(r"\b[A-Z]{2,}(?:-[A-Z0-9]+)+\b")
_YEAR_RE = re.compile(r"\(\s*(\d{4})\s*\)|\b(\d{4})\b")
_LEADING_MARKER_RE = re.compile(r"^\s*(\[\d+\]|\(\d+\)|\d{1,3}\.)\s*")
_TEMPLATE_FIELD_RE = re.compile(r"\{(\w+)\}")
_TOKEN_RE = re.compile(r"\S+")
_COMMA_RE = re.compile(",")

_MAX_TITLE_TOKENS = 8
# marker-numbered lines in a row that make a reference section without a heading
_MIN_MARKER_RUN = 3


@dataclass
class KBEntry:
    canonical_title: str
    aliases: list[str] = field(default_factory=list)
    url_template: str | None = None


@dataclass
class JournalKB:
    """Journal title knowledge base: alias lookup plus URL templates."""

    entries: list[KBEntry]
    alias_index: dict[str, str] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        for entry in self.entries:
            for alias in [entry.canonical_title, *entry.aliases]:
                norm = normalize_alias(alias)
                owner = self.alias_index.get(norm)
                if owner is not None and owner != entry.canonical_title:
                    raise DuplicateAlias(norm, [owner, entry.canonical_title])
                self.alias_index[norm] = entry.canonical_title
        # every word prefix of every alias key, "" included: a candidate
        # title outside this set cannot grow into an alias
        self._alias_prefixes = {
            " ".join(words[:i])
            for words in map(str.split, self.alias_index)
            for i in range(len(words) + 1)
        }
        self._templates = {
            e.canonical_title: e.url_template for e in self.entries if e.url_template
        }

    def url_template_for(self, canonical_title: str) -> str | None:
        return self._templates.get(canonical_title)


@dataclass
class CitationEntry:
    """One parsed bibliography entry; ``raw`` always preserves the input."""

    raw: str
    marker: str | None = None
    journal: str | None = None
    volume: str | None = None
    page: str | None = None
    year: int | None = None
    report_numbers: list[str] = field(default_factory=list)
    url: str | None = None


def normalize_alias(text: str) -> str:
    """Uppercase, drop periods, turn ampersands into spacing, collapse runs."""
    return " ".join(_alias_words(text))


def _alias_words(text: str) -> list[str]:
    # str.upper maps each character on its own and never yields whitespace,
    # "." or "&", so the words of a text are the words of its tokens in turn
    return text.upper().replace(".", "").replace("&", " ").split()


def load_journal_kb(path: str | Path) -> JournalKB:
    """Load the TSV knowledge base: canonical title, aliases, URL template.

    Aliases are semicolon-separated; the third column is optional.  Blank
    lines and ``#`` comments are skipped.
    """
    entries: list[KBEntry] = []
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.rstrip("\n").split("\t")
        if len(cols) not in (2, 3):
            raise MalformedLine(
                f"expected 2 or 3 tab-separated columns, got {len(cols)}", line_no
            )
        canonical = cols[0].strip()
        if not canonical:
            raise MalformedLine("empty canonical title", line_no)
        aliases = [a.strip() for a in cols[1].split(";") if a.strip()]
        template = cols[2].strip() if len(cols) == 3 and cols[2].strip() else None
        entries.append(KBEntry(canonical, aliases, template))
    return JournalKB(entries)


def default_journal_kb_path() -> Path:
    """Path of the knowledge base shipped with the package."""
    return Path(str(resources.files("biblioforge") / "data" / "journals.tsv"))


def normalize_journal(alias_text: str, kb: JournalKB) -> str | None:
    """Canonical journal title for an alternative form, or None."""
    return kb.alias_index.get(normalize_alias(alias_text))


def _compile_heading_patterns(patterns: tuple[str, ...] | list[str] | None):
    pats = patterns if patterns is not None else DEFAULT_HEADING_PATTERNS
    return [re.compile(p, re.IGNORECASE) for p in pats]


def locate_reference_section(
    fulltext: str,
    heading_patterns: tuple[str, ...] | list[str] | None = None,
) -> tuple[int, int] | None:
    """Find the reference section; returns (start, end) offsets or None.

    The span runs from the last line matching a heading pattern to the end
    of the document.  With no heading, it falls back to the last maximal
    run of at least ``_MIN_MARKER_RUN`` consecutive lines starting with
    bracketed or dotted numeric markers, covering exactly that run.
    """
    compiled = _compile_heading_patterns(heading_patterns)
    lines = fulltext.splitlines(keepends=True)

    # the last heading wins, so the scan runs from the end
    offset = len(fulltext)
    for raw in reversed(lines):
        offset -= len(raw)
        line = raw.rstrip("\n").rstrip("\r")
        if any(p.match(line) for p in compiled):
            return (offset, len(fulltext))

    best: tuple[int, int] | None = None
    run_start = None
    run_end = None
    run_len = 0
    offset = 0
    for raw in lines:
        line = raw.rstrip("\n").rstrip("\r")
        if _FALLBACK_MARKER_RE.match(line):
            if run_start is None:
                run_start = offset
                run_len = 0
            run_end = offset + len(line)
            run_len += 1
        else:
            if run_start is not None and run_len >= _MIN_MARKER_RUN:
                best = (run_start, run_end)  # type: ignore[assignment]
            run_start = None
        offset += len(raw)
    if run_start is not None and run_len >= _MIN_MARKER_RUN:
        best = (run_start, run_end)  # type: ignore[assignment]
    return best


def _detect_style(lines: list[str]) -> str | None:
    votes = {name: 0 for name in _STYLE_PRIORITY}
    for line in lines:
        for name in _STYLE_PRIORITY:
            if _MARKER_STYLES[name].match(line):
                votes[name] += 1
                break
    winner = max(_STYLE_PRIORITY, key=lambda name: votes[name])
    return winner if votes[winner] > 0 else None


def _segment_with_markers(
    section_text: str,
    heading_patterns: tuple[str, ...] | list[str] | None = None,
) -> list[tuple[str | None, str]]:
    """Split a reference section into (marker, entry text) pairs.

    The dominant marker style is chosen by majority vote over line starts.
    A marker starts a new entry only while numbers strictly increase;
    a repeated number is treated as a continuation line and a decrease
    ends segmentation.  Without markers, blank lines separate entries.
    Continuation lines are joined with a single space, and tabs inside an
    entry become spaces, so every entry is one line without tabs.
    """
    lines = section_text.splitlines()
    compiled = _compile_heading_patterns(heading_patterns)
    while lines and not lines[0].strip():
        lines.pop(0)
    if lines and any(p.match(lines[0]) for p in compiled):
        lines.pop(0)

    style = _detect_style(lines)
    entries: list[tuple[str | None, str]] = []

    if style is None:
        block: list[str] = []
        for line in lines:
            if line.strip():
                block.append(line.strip())
            elif block:
                entries.append((None, " ".join(block)))
                block = []
        if block:
            entries.append((None, " ".join(block)))
    else:
        marker_re = _MARKER_STYLES[style]
        marker_text = {"bracket": "[{}]", "dotted": "{}.", "paren": "({})"}[style]
        pieces: list[str] = []
        last_number: int | None = None

        def flush() -> None:
            if last_number is not None:
                text = " ".join(p for p in pieces if p)
                if text:
                    entries.append((marker_text.format(last_number), text))

        for line in lines:
            m = marker_re.match(line)
            number = int(m.group(1)) if m else None
            if m and (last_number is None or number > last_number):
                flush()
                pieces = [(m.group(2) or "").strip()]
                last_number = number
            elif m and number < last_number:  # type: ignore[operator]
                break
            elif last_number is not None and line.strip():
                pieces.append(line.strip())
        flush()

    if not entries:
        raise EmptySection("no citation entries found in section")
    return [(marker, text.replace("\t", " ")) for marker, text in entries]


def segment_entries(
    section_text: str,
    heading_patterns: tuple[str, ...] | list[str] | None = None,
) -> list[str]:
    """Split a reference section into raw entry strings, markers removed."""
    return [text for _, text in _segment_with_markers(section_text, heading_patterns)]


def _remove_spans(text: str, spans: list[tuple[int, int]]) -> str:
    out = []
    pos = 0
    for start, end in sorted(spans):
        out.append(text[pos:start])
        out.append(" ")
        pos = end
    out.append(text[pos:])
    return "".join(out)


def _extract_report_numbers(text: str) -> tuple[list[str], str]:
    found: list[tuple[int, str]] = []
    spans: list[tuple[int, int]] = []
    for pattern in (_OLD_ARXIV_RE, _NEW_ARXIV_RE, _INST_REPORT_RE):
        for m in pattern.finditer(text):
            value = m.group(1) if pattern is _NEW_ARXIV_RE else m.group(0)
            found.append((m.start(), value))
            spans.append(m.span())
    found.sort()
    numbers: list[str] = []
    for _, value in found:
        if value not in numbers:
            numbers.append(value)
    return numbers, _remove_spans(text, spans)


def _extract_year(text: str) -> tuple[int | None, str]:
    last = None
    for m in _YEAR_RE.finditer(text):
        value = int(m.group(1) or m.group(2))
        if 1800 <= value <= 2100:
            last = (m.span(), value)
    if last is None:
        return None, text
    (start, end), value = last
    return value, text[:start] + " " + text[end:]


def _find_journal(text: str, kb: JournalKB) -> tuple[str, int] | None:
    """Longest title-prefix lookup, tried from the start and after each comma.

    Returns (canonical title, end offset of the matched prefix).  Entries
    conventionally lead with author names, so candidate start positions
    after commas let the scan reach the journal while staying anchored.
    A candidate title grows by whitespace-separated tokens, at most
    ``_MAX_TITLE_TOKENS``, and stops growing once it is no word prefix of
    any alias.  A comma inside a token starts a candidate at the rest of
    that token.
    """
    spans = [m.span() for m in _TOKEN_RE.finditer(text)]
    words = [_alias_words(text[a:b]) for a, b in spans]
    aliases, prefixes = kb.alias_index, kb._alias_prefixes
    first = 0  # first token ending after the start
    for start in [0] + [m.end() for m in _COMMA_RE.finditer(text)]:
        while first < len(spans) and spans[first][1] <= start:
            first += 1
        if first == len(spans):
            return None
        a, b = spans[first]
        title = list(words[first] if a >= start else _alias_words(text[start:b]))
        hit: tuple[str, int] | None = None
        for k in range(first, min(first + _MAX_TITLE_TOKENS, len(spans))):
            if k > first:
                title += words[k]
            key = " ".join(title)
            if key not in prefixes:
                break
            canonical = aliases.get(key)
            if canonical is not None:
                hit = (canonical, spans[k][1])
        if hit is not None:
            return hit
    return None


_PAGE_RE = re.compile(r"^(\d+)(?:\s*[-–]\s*\d+)?$")


def parse_entry(raw: str, kb: JournalKB) -> CitationEntry:
    """Recover structured citation fields from one raw entry.

    Fields are pulled out in order of reliability: explicit URLs, report
    numbers, year (last standalone 4-digit number in [1800, 2100]), then
    journal by longest-prefix knowledge-base lookup, with volume the first
    alphanumeric token after the journal and page the first integer (first
    bound of a range) after the volume.  Unmatched fields stay absent and
    ``raw`` is preserved byte for byte.
    """
    if not raw.strip():
        raise ValueError("citation entry text is empty")
    entry = CitationEntry(raw=raw)
    work = raw

    m = _LEADING_MARKER_RE.match(work)
    if m:
        entry.marker = m.group(1)
        work = work[m.end():]

    urls = list(_URL_RE.finditer(work))
    if urls:
        entry.url = urls[0].group(0).rstrip(".,;)]")
        work = _remove_spans(work, [u.span() for u in urls])

    entry.report_numbers, work = _extract_report_numbers(work)
    entry.year, work = _extract_year(work)

    found = _find_journal(work, kb)
    if found is not None:
        entry.journal, end = found
        rest_tokens = [t for t in re.finditer(r"\S+", work[end:])]
        vol_idx = None
        for idx, tok in enumerate(rest_tokens):
            stripped = tok.group(0).strip(".,;:()[]")
            if stripped.isalnum():
                entry.volume = stripped
                vol_idx = idx
                break
        if vol_idx is not None:
            for tok in rest_tokens[vol_idx + 1:]:
                stripped = tok.group(0).strip(".,;:()[]")
                pm = _PAGE_RE.match(stripped)
                if pm:
                    entry.page = pm.group(1)
                    break
    return entry


def build_url(entry: CitationEntry, kb: JournalKB) -> str | None:
    """Reconstruct a link to the cited source, without network access.

    An explicit URL on the entry is returned verbatim.  Otherwise, when
    journal, volume and page were all recognized and the knowledge base
    carries a URL template for the journal, placeholders are substituted.
    """
    if entry.url is not None:
        return entry.url
    if entry.journal is None or entry.volume is None or entry.page is None:
        return None
    template = kb.url_template_for(entry.journal)
    if template is None:
        return None
    values = {
        "volume": entry.volume,
        "page": entry.page,
        "year": str(entry.year) if entry.year is not None else None,
    }
    url = template
    for m in _TEMPLATE_FIELD_RE.finditer(template):
        name = m.group(1)
        value = values.get(name)
        if value is None:
            raise TemplateFieldMissing(name)
        url = url.replace("{%s}" % name, value)
    return url


def extract_references(
    fulltext: str,
    kb: JournalKB,
    heading_patterns: tuple[str, ...] | list[str] | None = None,
) -> list[CitationEntry]:
    """Full extraction pipeline for one document.

    Returns an empty list when no reference section can be located or the
    located section holds no entries.  Entry URLs are filled from
    templates where the parsed fields allow it.
    """
    span = locate_reference_section(fulltext, heading_patterns)
    if span is None:
        return []
    section = fulltext[span[0]:span[1]]
    try:
        pairs = _segment_with_markers(section, heading_patterns)
    except EmptySection:
        return []
    entries = []
    for marker, text in pairs:
        raw = f"{marker} {text}" if marker else text
        entry = parse_entry(raw, kb)
        if entry.url is None:
            try:
                entry.url = build_url(entry, kb)
            except TemplateFieldMissing:
                pass
        entries.append(entry)
    return entries
