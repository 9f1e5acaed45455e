"""Tests for the config file reader."""

from __future__ import annotations

import logging
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biblioforge import Config, MalformedLine, load_config
from biblioforge.fields import check_value
from biblioforge.refextract import DEFAULT_HEADING_PATTERNS

PATH_KEYS = ("store_dir", "taxonomy_path", "kb_path", "log_path", "alerts_dir", "notifications_dir")


def _write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "forge.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def _storable(value: str) -> bool:
    try:
        check_value("value", value)
    except ValueError:
        return False
    return True


def _compiles(pattern: str) -> bool:
    try:
        re.compile(pattern)
    except re.error:
        return False
    return True


def test_comments_and_blank_lines_are_skipped(tmp_path):
    text = "# paths\n\n  # indented comment\nstore_dir: s\n   \n\ndamping: 0.5\nrank_max_iters: 7\n"
    cfg = load_config(_write(tmp_path, text))
    assert cfg == Config(store_dir=Path("s"), damping=0.5, rank_max_iters=7)


def test_no_file_values_gives_the_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, "# nothing set\n"))
    assert cfg == Config()
    assert cfg.heading_patterns == DEFAULT_HEADING_PATTERNS


def test_repeated_heading_pattern_replaces_the_defaults_in_order(tmp_path):
    text = "heading_pattern: ^Refs$\nstore_dir: s\nheading_pattern: ^Literature$\n"
    cfg = load_config(_write(tmp_path, text))
    assert cfg.heading_patterns == ("^Refs$", "^Literature$")


@pytest.mark.parametrize(
    "line, reason",
    [
        ("log_path:", "empty value for key 'log_path'"),
        ("damping:   ", "empty value for key 'damping'"),
        ("store_dir s", "no key separator"),
        ("damping: high", "bad number for damping: 'high'"),
        ("rank_max_iters: 2.5", "bad number for rank_max_iters: '2.5'"),
        ("rank_tolerance: 1e-x", "bad number for rank_tolerance: '1e-x'"),
    ],
)
def test_faults_name_their_line(tmp_path, line, reason):
    # the comment and the blank line still count towards the line number
    path = _write(tmp_path, f"# settings\nstore_dir: s\n\n{line}\nlog_path: u.log\n")
    with pytest.raises(MalformedLine) as info:
        load_config(path)
    assert (info.value.line_no, info.value.reason) == (4, reason)
    assert str(info.value) == f"line 4: {reason} in {path}"


@pytest.mark.parametrize(
    "line, message",
    [
        ("rank_tolerance: 0", "rank_tolerance must be positive"),
        ("rank_tolerance: nan", "rank_tolerance must be positive"),
        ("rank_tolerance: inf", "rank_tolerance must be positive"),
        ("damping: 1", "damping must be in (0, 1)"),
        ("rank_max_iters: 0", "rank_max_iters must be >= 1"),
        ("heading_pattern: (", "bad heading_pattern '(': missing ), unterminated subpattern"),
    ],
)
def test_invalid_values_are_refused(tmp_path, line, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(_write(tmp_path, f"store_dir: s\n{line}\n"))


def test_unknown_key_warns_and_is_ignored(tmp_path, caplog):
    path = _write(tmp_path, "store_dir: s\ncolour: blue\n")
    with caplog.at_level(logging.WARNING):
        cfg = load_config(path)
    assert cfg == Config(store_dir=Path("s"))
    assert "line 2: ignoring unknown key 'colour'" in caplog.text


def test_field_name_heading_patterns_is_an_unknown_key(tmp_path, caplog):
    # only heading_pattern sets the patterns
    path = _write(tmp_path, "heading_patterns: ^Refs$\nstore_dir: s\n")
    with caplog.at_level(logging.WARNING):
        cfg = load_config(path)
    assert cfg == Config(store_dir=Path("s"))
    assert "line 1: ignoring unknown key 'heading_patterns'" in caplog.text


@given(key=st.sampled_from(PATH_KEYS), value=st.text(min_size=1).filter(_storable))
@settings(max_examples=300, deadline=None)
def test_storable_path_value_round_trips(tmp_path_factory, key, value):
    path = _write(tmp_path_factory.mktemp("cfg"), f"{key}: {value}\n")
    assert getattr(load_config(path), key) == Path(value)


@given(value=st.text(min_size=1).filter(_storable).filter(_compiles))
@settings(max_examples=300, deadline=None)
def test_storable_heading_pattern_round_trips(tmp_path_factory, value):
    path = _write(tmp_path_factory.mktemp("cfg"), f"heading_pattern: {value}\n")
    assert load_config(path).heading_patterns == (value,)
