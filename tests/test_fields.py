"""Tests for the one field reader of the ``key: value`` formats and for reading input files."""

from __future__ import annotations

import codecs
import dataclasses
import logging
import tempfile
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from biblioforge import Config, TaxonomyTerm, load_config, load_taxonomy
from biblioforge import config as config_module
from biblioforge import taxonomy as taxonomy_module
from biblioforge.cli import dispatch
from biblioforge.errors import BiblioforgeError, MalformedLine, MissingField
from biblioforge.records import RecordStore
from biblioforge.refextract import load_journal_kb
from biblioforge.usage import read_log

from .oracles import loop_load_config, loop_load_taxonomy

BOM = codecs.BOM_UTF8


def _attributes(table) -> list[str]:
    return sorted(attr for attr, *_ in table.values())


def test_every_config_field_has_one_file_key():
    # a field the table lacks could not be set from a config file
    assert _attributes(config_module._FIELDS) == sorted(f.name for f in dataclasses.fields(Config))


def test_every_taxonomy_term_field_has_one_file_key():
    # a field the table lacks could not be set from a taxonomy file
    expected = sorted(f.name for f in dataclasses.fields(TaxonomyTerm))
    assert _attributes(taxonomy_module._FIELDS) == expected


class TestByteOrderMark:
    """A UTF-8 BOM at the start of an input file is not part of its first line."""

    def test_config(self, tmp_path, caplog):
        path = tmp_path / "forge.cfg"
        path.write_bytes(BOM + b"store_dir: mine\n")
        with caplog.at_level(logging.WARNING):
            assert load_config(path).store_dir == Path("mine")
        assert not caplog.records

    def test_taxonomy(self, tmp_path):
        path = tmp_path / "t.tax"
        path.write_bytes(BOM + b"term: a\npref: alpha\n")
        assert load_taxonomy(path).terms == {"a": TaxonomyTerm("a", "alpha")}

    def test_ingest(self, tmp_path, capsys):
        path = tmp_path / "in.rec"
        path.write_bytes(BOM + b"id: r1\ntitle: Dilaton Gravity\n")
        store = tmp_path / "store"
        assert dispatch(["ingest", str(path), "--store-dir", str(store)]) == 0
        assert capsys.readouterr().out == "ingested\t1\n"
        assert RecordStore(store).get("r1").title == "Dilaton Gravity"

    def test_journal_kb(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_bytes(BOM + "Phys. Rev.\tPhys Rev\n".encode())
        assert [e.canonical_title for e in load_journal_kb(path).entries] == ["Phys. Rev."]

    def test_usage_log(self, tmp_path):
        path = tmp_path / "usage.log"
        path.write_bytes(BOM + b"5\tv1\tr1\tview\n6\tv2\tr1\tdownload\n")
        events, skipped = read_log(path)
        assert [tuple(e) for e in events] == [(5, "v1", "r1", "view"), (6, "v2", "r1", "download")]
        assert skipped == 0


# The hand-written loaders and read_fields against the same line soups.


@contextmanager
def _warnings():
    """The messages logged at WARNING or above while the ``with`` body runs."""
    messages: list[str] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        yield messages
    finally:
        root.removeHandler(handler)


def _outcome(load, path):
    """(loaded value, None, warnings), or (None, the error it raised, warnings)."""
    with _warnings() as messages:
        try:
            return load(path), None, messages
        except (BiblioforgeError, ValueError) as exc:
            return None, exc, messages


def _same_error(old: Exception, new: Exception | None) -> None:
    if isinstance(old, MissingField) and old.field == "pref":
        # Taxonomy, not the line loop, reports a term without a pref, so any
        # line error after the term, or an error of another term, comes first.
        assert new is not None
        return
    if isinstance(new, MalformedLine) and new.reason.startswith("duplicate key "):
        # The one new reason: a repeated single key is named with its first
        # line, and is found before the value's own checks on the same line.
        assert isinstance(old, MalformedLine) and old.line_no == new.line_no
        if old.reason.startswith("duplicate pref "):
            assert new.reason == "duplicate key 'pref' " + old.reason[len("duplicate pref "):]
        return
    assert type(new) is type(old)
    assert str(new) == str(old)
    assert getattr(new, "line_no", None) == getattr(old, "line_no", None)


_CONFIG_LINE = st.one_of(
    st.builds(
        "{}: {}".format,
        st.sampled_from([*config_module._FIELDS, "heading_patterns", "colour", " damping "]),
        st.sampled_from(["", "x", "  a b ", "0.5", "0.9", "high", "3", "1e-9", "nan", "-1", "[a", "r\tx"]),
    ),
    st.sampled_from(["", "   ", "# store_dir: no", "  #", "no separator", ":", ": v", "#:"]),
)
_IDS = ["a", "b", "c", "d"]
_LABELS = ["alpha", "beta ray", "gamma", "delta  wave", "epsilon", "zeta", "eta", "theta", "iota"]
_NOISE = [
    "", "  ", "term", ":", "no separator", "narrower: a", " pref : Alpha", "pref: quarks",
    "pref:", "alt: quark", "alt: x\ty", "term: t\tu", "term: a", "broader: c", "broader: z",
    "composite: a + b", "composite: b+c", "composite: a +", "composite: a + a", "composite: a + z",
]


@st.composite
def _taxonomy_soups(draw) -> str:
    """Well-formed terms of distinct ids and labels, with 0-3 noise lines put in anywhere."""
    ids = draw(st.permutations(_IDS))[: draw(st.integers(0, len(_IDS)))]
    labels = iter(draw(st.permutations(_LABELS)))
    lines: list[str] = []
    for i, term_id in enumerate(ids):
        body = [f"pref: {next(labels)}"]
        body += [f"alt: {next(labels)}" for _ in range(draw(st.integers(0, 1)))]
        # broader links to earlier terms only, so they form no cycle
        body += [f"broader: {ids[j]}" for j in draw(st.lists(st.integers(0, i), max_size=2)) if j < i]
        lines += [*draw(st.sampled_from([[], [""]])), f"term: {term_id}", *draw(st.permutations(body))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_NOISE)))
    return "\n".join(lines)


def _check_both(text: str, old_load, new_load, view) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text, encoding="utf-8")
        old, old_error, old_warnings = _outcome(old_load, path)
        new, new_error, new_warnings = _outcome(new_load, path)
    if old_error is None:
        assert new_error is None
        assert view(new) == view(old)
        assert new_warnings == old_warnings
    else:
        _same_error(old_error, new_error)


@given(st.lists(_CONFIG_LINE, max_size=12).map("\n".join))
@settings(max_examples=150, deadline=None)
def test_config_reader_matches_the_line_loop(text):
    _check_both(text, loop_load_config, load_config, lambda config: config)


@given(_taxonomy_soups())
@settings(max_examples=300, deadline=None)
def test_taxonomy_reader_matches_the_line_loop(text):
    _check_both(text, loop_load_taxonomy, load_taxonomy, lambda t: (t.terms, t.label_index))
