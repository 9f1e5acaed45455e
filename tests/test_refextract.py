"""Tests for reference section location, segmentation and entry parsing."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biblioforge import (
    CitationEntry,
    DuplicateAlias,
    EmptySection,
    JournalKB,
    KBEntry,
    TemplateFieldMissing,
    build_url,
    extract_references,
    load_journal_kb,
    locate_reference_section,
    normalize_alias,
    normalize_journal,
    parse_entry,
    segment_entries,
)
from biblioforge.refextract import _find_journal, _segment_with_markers

from .oracles import naive_find_journal

DATA_DIR = Path(__file__).parent / "data"

# canonical title -> alternative forms, as shipped in the packaged KB
KB_ROWS = {
    "Astron. Astrophys.": ["A & A", "A A", "A A LETT", "A A LETTERS", "AAL"],
    "ACM Comput. Surv.": ["ACM COMPUTING SURVEYS"],
    "ACM SIGPLAN Not.": ["ACM SIGPLAN NOTICES", "ACM SN"],
    "IEEE J. Quantum Electron.": ["IJQE"],
    "J. High Energy Phys.": ["JHEP"],
    "New Sci.": ["NEW SCIENTIST"],
    "Phys. Rev., A": ["PHYSICAL REVIEW A", "PHYS REV A", "PRA"],
}


class TestJournalKB:
    def test_pra_alias(self, kb):
        assert normalize_journal("PRA", kb) == "Phys. Rev., A"

    def test_ampersand_spacing(self, kb):
        assert normalize_journal("A & A", kb) == "Astron. Astrophys."
        assert normalize_alias("A & A") == normalize_alias("A A")

    def test_unknown_alias(self, kb):
        assert normalize_journal("JOURNAL OF IMAGINARY RESULTS", kb) is None

    def test_all_table_rows_resolve(self, kb):
        for canonical, aliases in KB_ROWS.items():
            for alias in aliases:
                assert normalize_journal(alias, kb) == canonical, alias

    def test_self_alias_idempotent(self, kb):
        for canonical in KB_ROWS:
            assert normalize_journal(canonical, kb) == canonical

    def test_case_and_period_insensitive(self, kb):
        assert normalize_journal("j. high energy phys.", kb) == "J. High Energy Phys."

    def test_alias_collision_rejected(self):
        with pytest.raises(DuplicateAlias):
            JournalKB([KBEntry("One", ["XYZ"]), KBEntry("Two", ["X.Y.Z."])])

    def test_loader_rejects_bad_column_count(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("OnlyOneColumn\n", encoding="utf-8")
        from biblioforge import MalformedLine

        with pytest.raises(MalformedLine):
            load_journal_kb(path)


class TestLocateSection:
    def test_heading_to_end_of_document(self):
        text = "Intro text.\n\nReferences\n[1] a\n[2] b\n"
        span = locate_reference_section(text)
        assert span == (text.index("References"), len(text))

    def test_last_heading_wins(self):
        text = (DATA_DIR / "refcorpus" / "d03.txt").read_text(encoding="utf-8")
        start, end = locate_reference_section(text)
        assert start == text.rindex("References")
        assert end == len(text)

    def test_fallback_covers_marker_run(self):
        text = (DATA_DIR / "refcorpus" / "d05.txt").read_text(encoding="utf-8")
        start, end = locate_reference_section(text)
        assert text[start:].startswith("[1] U. Ochoa")
        assert text[:end].endswith("(1979) 61")

    def test_fallback_needs_three_marker_lines(self):
        text = "Some prose here.\n[1] one\n[2] two\n"
        assert locate_reference_section(text) is None

    def test_no_section(self):
        assert locate_reference_section("just prose\nand more prose\n") is None

    def test_heading_patterns_configurable(self):
        text = "Literatur\n[1] a\n[2] b\n[3] c\n"
        span = locate_reference_section(text, heading_patterns=[r"^literatur$"])
        assert span == (0, len(text))


_HEADINGS = ["References", "  2. Bibliography:", "REFERENCE LIST.", "references ", "10) References"]
_NOT_HEADINGS = [
    "Intro text.",
    "",
    "[1] A. Author, Phys. Rev. A 10 (2000) 100",
    "2. B. Author, JHEP 3 (2001) 4",
    "[3] C. Author",
    "we cite the references below",
    "Bibliography of sorts",
    "References\tand more",
]
_LINE_ENDS = ["\n", "\r\n", "\r", "\u2028", "\x1c", "\x85"]


@st.composite
def _located_documents(draw):
    """(text, offsets of its heading lines) for a document of sampled lines."""
    lines = draw(st.lists(st.sampled_from(_HEADINGS + _NOT_HEADINGS), max_size=14))
    ends = draw(st.lists(st.sampled_from(_LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no line break after the last line
    text, headings = "", []
    for line, end in zip(lines, ends):
        if line in _HEADINGS:
            headings.append(len(text))
        text += line + end
    return text, headings


class TestLocateSectionProperties:
    @given(_located_documents())
    @settings(max_examples=200)
    def test_span_starts_at_last_heading_line(self, document):
        text, headings = document
        span = locate_reference_section(text)
        if headings:
            assert span == (headings[-1], len(text))
        else:
            assert span is None or re.match(r"\[\d+\]|\d+\.", text[span[0]:])


def _tricky_kb() -> JournalKB:
    """Aliases sharing word prefixes, an ampersand alias and one that normalizes to ""."""
    return JournalKB(
        [
            KBEntry("Phys", ["Phys."]),
            KBEntry("Phys Rev", ["Phys. Rev."]),
            KBEntry("Phys Rev Lett", ["Phys. Rev. Lett.", "PRL"]),
            KBEntry("A and B", ["A&B", "A. & B. Lett."]),
            KBEntry("Dot", ["."]),
        ]
    )


_JOINS = [" ", "", ",", ", ", ".", ". ", "&", " & ", "\t", ",,"]


class TestFindJournalOracle:
    @pytest.mark.parametrize("which", ["packaged", "tricky"])
    @given(data=st.data())
    @settings(max_examples=200)
    def test_equals_naive_lookup(self, kb, which, data):
        kb = kb if which == "packaged" else _tricky_kb()
        words = {w for alias in kb.alias_index for w in alias.split()}
        words |= {w.title() for w in words} | {"A.", "Phys.", "Rev.", "et", "al", "10", "&", "."}
        pieces = data.draw(st.lists(st.sampled_from(sorted(words)), max_size=14))
        joins = data.draw(
            st.lists(st.sampled_from(_JOINS), min_size=len(pieces), max_size=len(pieces))
        )
        text = "".join(piece + join for piece, join in zip(pieces, joins))
        assert _find_journal(text, kb) == naive_find_journal(text, kb)

    def test_comma_inside_a_token_starts_a_candidate(self, kb):
        text = "A. Author,Phys. Rev. A 10"
        assert _find_journal(text, kb) == naive_find_journal(text, kb) == (
            "Phys. Rev., A",
            text.index(" 10"),
        )

    def test_token_that_normalizes_to_nothing_extends_the_match(self):
        text = "B. Author, Phys. Rev. & 7"
        assert _find_journal(text, _tricky_kb()) == ("Phys Rev", text.index(" 7"))


class TestSegmentEntries:
    def test_continuation_join(self):
        assert segment_entries("[1] A\n[2] B long\n    wrapped") == ["A", "B long wrapped"]

    def test_majority_style_governs(self):
        section = "1. x\n2. y\n[7] z\n3. w"
        # dotted wins the vote; the bracket line is a continuation of entry 2
        assert segment_entries(section) == ["x", "y [7] z", "w"]

    def test_unmarked_splits_on_blank_lines(self):
        assert segment_entries("first entry\ncontinued\n\nsecond entry") == [
            "first entry continued",
            "second entry",
        ]

    def test_heading_line_dropped(self):
        assert segment_entries("References\n[1] a\n[2] b") == ["a", "b"]

    def test_empty_section_raises(self):
        with pytest.raises(EmptySection):
            segment_entries("References\n\n")
        with pytest.raises(EmptySection):
            segment_entries("")

    def test_repeated_marker_is_continuation(self):
        entries = segment_entries("[1] A\n[2] B\n[2] C\n[3] D")
        assert entries == ["A", "B [2] C", "D"]

    def test_decreasing_marker_ends_segmentation(self):
        entries = segment_entries("[1] A\n[2] B\n[1] X\n[9] Y")
        assert entries == ["A", "B"]

    def test_twenty_entry_golden(self):
        section = (DATA_DIR / "section20.txt").read_text(encoding="utf-8")
        golden = json.loads((DATA_DIR / "section20.json").read_text(encoding="utf-8"))
        assert segment_entries(section) == golden

    def test_markers_strictly_increasing(self):
        section = (DATA_DIR / "section20.txt").read_text(encoding="utf-8")
        pairs = _segment_with_markers(section)
        numbers = [int(re.sub(r"\D", "", marker)) for marker, _ in pairs]
        assert numbers == sorted(set(numbers))


_entry_words = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
    min_size=1,
    max_size=8,
)


@st.composite
def _marked_sections(draw):
    entries = draw(st.lists(_entry_words.map(" ".join), min_size=1, max_size=6))
    lines = []
    for i, text in enumerate(entries, start=1):
        words = text.split()
        cut = draw(st.integers(min_value=1, max_value=len(words)))
        lines.append(f"[{i}] " + " ".join(words[:cut]))
        if cut < len(words):
            lines.append("    " + " ".join(words[cut:]))
    return entries, "\n".join(lines)


class TestSegmentationProperties:
    @given(_marked_sections())
    @settings(max_examples=60)
    def test_conservation_of_non_marker_text(self, section_and_entries):
        entries, section = section_and_entries
        assert segment_entries(section) == entries


class TestParseEntry:
    def test_journal_volume_page_year(self, kb):
        entry = parse_entry("[4] D. Granger, Phys. Rev. A 12 (2005) 345", kb)
        assert entry.marker == "[4]"
        assert entry.journal == "Phys. Rev., A"
        assert entry.volume == "12"
        assert entry.page == "345"
        assert entry.year == 2005

    def test_old_arxiv_form(self, kb):
        entry = parse_entry("[5] gr-qc/0607062", kb)
        assert entry.report_numbers == ["gr-qc/0607062"]
        assert entry.journal is None and entry.year is None and entry.url is None

    def test_degenerate_entry(self, kb):
        entry = parse_entry("see discussion above", kb)
        assert entry.raw == "see discussion above"
        assert (entry.journal, entry.volume, entry.page, entry.year) == (None,) * 4
        assert entry.report_numbers == [] and entry.url is None

    def test_new_arxiv_form(self, kb):
        entry = parse_entry("A. Body, 1203.44556v2", kb)
        assert entry.report_numbers == ["1203.44556"]

    def test_institutional_code(self, kb):
        entry = parse_entry("R. Toth, CERN-TH-7112-94", kb)
        assert entry.report_numbers == ["CERN-TH-7112-94"]

    def test_explicit_url_wins(self, kb):
        entry = parse_entry("X. Yz, A A 1 (2000) 2, https://mirror.example/x", kb)
        assert entry.url == "https://mirror.example/x"
        assert entry.journal == "Astron. Astrophys."

    def test_year_is_last_candidate(self, kb):
        # the 4-digit volume must not be mistaken for the year
        entry = parse_entry("B. Name, New Scientist 1999 (2003) 7", kb)
        assert entry.year == 2003
        assert entry.volume == "1999"

    def test_page_range_keeps_first_bound(self, kb):
        entry = parse_entry("K. Nero, IJQE 25 (1989) 2312-2320", kb)
        assert entry.page == "2312"

    def test_empty_raw_rejected(self, kb):
        with pytest.raises(ValueError):
            parse_entry("   ", kb)

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    @settings(max_examples=60)
    def test_raw_always_preserved(self, kb, raw):
        assert parse_entry(raw, kb).raw == raw


class TestBuildUrl:
    def test_template_substitution(self, kb):
        entry = CitationEntry(
            raw="x", journal="J. High Energy Phys.", volume="11", page="48", year=2003
        )
        assert build_url(entry, kb) == "https://jhep.example/2003/11/48"

    def test_explicit_url_passthrough(self, kb):
        entry = CitationEntry(raw="x", url="https://already.example/here")
        assert build_url(entry, kb) == "https://already.example/here"

    def test_missing_template_field(self, kb):
        entry = CitationEntry(
            raw="x", journal="J. High Energy Phys.", volume="11", page="48", year=None
        )
        with pytest.raises(TemplateFieldMissing) as exc:
            build_url(entry, kb)
        assert exc.value.placeholder == "year"

    def test_no_template_returns_none(self, kb):
        entry = CitationEntry(raw="x", journal="New Sci.", volume="1", page="2", year=1990)
        assert build_url(entry, kb) is None

    def test_incomplete_triple_returns_none(self, kb):
        entry = CitationEntry(raw="x", journal="J. High Energy Phys.", volume="11")
        assert build_url(entry, kb) is None


class TestExtractReferences:
    def test_document_without_section(self, kb):
        assert extract_references("no bibliography here\n", kb) == []

    def test_full_pipeline_on_fixture(self, kb):
        text = (DATA_DIR / "refcorpus" / "d01.txt").read_text(encoding="utf-8")
        entries = extract_references(text, kb)
        assert len(entries) == 5
        assert entries[0].journal == "Phys. Rev., A"
        assert entries[0].url == "https://pra.example/v41/p233"
        assert entries[2].report_numbers == ["gr-qc/0607062"]
        # template url filled only where the parsed triple allows it
        assert entries[3].url is None
