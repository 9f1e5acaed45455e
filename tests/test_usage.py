"""Tests for access-log parsing and usage reports."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biblioforge import (
    MalformedLine,
    UnknownRecord,
    UsageEvent,
    co_view_recommend,
    parse_log_line,
    read_log,
    top_k,
)
from biblioforge.usage import events_from_lines

from .oracles import naive_co_view, naive_top_k


class TestParseLogLine:
    def test_direct_parse(self):
        event = parse_log_line("1136073600\tv42\tr1\tview")
        assert event == UsageEvent(1136073600, "v42", "r1", "view")

    def test_trailing_whitespace_tolerated(self):
        assert parse_log_line("5\tv\tr\tdownload   \n").action == "download"

    def test_bad_action(self):
        with pytest.raises(MalformedLine):
            parse_log_line("5\tv\tr\tprint")

    def test_bad_timestamp(self):
        with pytest.raises(MalformedLine):
            parse_log_line("soon\tv\tr\tview")

    def test_nonpositive_timestamp(self):
        with pytest.raises(MalformedLine):
            parse_log_line("0\tv\tr\tview")

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine):
            parse_log_line("5\tv\tr")

    def test_empty_ids(self):
        with pytest.raises(MalformedLine):
            parse_log_line("5\t\tr\tview")


class TestBatchReading:
    def test_planted_corruption_count(self, tmp_path):
        rng = random.Random(99)
        lines = []
        for i in range(1000):
            lines.append(f"{1000 + i}\tv{rng.randint(1, 50)}\tr{rng.randint(1, 20)}\tview")
        bad_positions = rng.sample(range(1000), 7)
        for pos in bad_positions:
            lines[pos] = "this line is corrupt"
        path = tmp_path / "usage.log"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        events, skipped = read_log(path)
        assert len(events) == 993
        assert skipped == 7

    def test_invalid_utf8_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "usage.log"
        path.write_bytes(b"5\tv1\tr1\tview\n6\tv2\tr\xff2\tview\r\n7\tv3\tr3\tdownload\n")
        events, skipped = read_log(path)
        assert skipped == 1
        assert events == [_ev(5, "v1", "r1"), _ev(7, "v3", "r3", "download")]

    def test_blank_lines_ignored_silently(self):
        events, skipped = events_from_lines(["", "5\tv\tr\tview", "   "])
        assert len(events) == 1
        assert skipped == 0


def _ev(ts, visitor, record, action="view"):
    return UsageEvent(ts, visitor, record, action)


class TestTopK:
    def test_no_events(self):
        assert top_k([], "view", 5) == []

    def test_tie_broken_lexicographically(self):
        events = [_ev(i, f"v{i}", "r2") for i in range(1, 6)]
        events += [_ev(10 + i, f"w{i}", "r1") for i in range(1, 6)]
        assert top_k(events, "view", 2) == [("r1", 5), ("r2", 5)]

    def test_window_bounds_inclusive(self):
        events = [_ev(10, "v", "r1"), _ev(20, "v", "r1"), _ev(30, "v", "r1")]
        assert top_k(events, "view", 5, (10, 30)) == [("r1", 3)]
        assert top_k(events, "view", 5, (11, 29)) == [("r1", 1)]
        assert top_k(events, "view", 5, (None, 20)) == [("r1", 2)]

    def test_actions_partition(self):
        events = [_ev(1, "v", "r1", "download"), _ev(2, "v", "r1", "view")]
        assert top_k(events, "download", 5) == [("r1", 1)]
        assert top_k(events, "view", 5) == [("r1", 1)]

    def test_k_truncates(self):
        events = [_ev(i, "v", f"r{i}") for i in range(1, 9)]
        assert len(top_k(events, "view", 3)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            top_k([], "view", 0)
        with pytest.raises(ValueError):
            top_k([], "print", 1)


class TestCoView:
    def test_minimal_co_view(self):
        events = [_ev(1, "v1", "r1"), _ev(2, "v1", "r2")]
        assert co_view_recommend(events, "r1", 5) == [("r2", 1)]

    def test_distinct_visitors_not_event_pairs(self):
        events = [_ev(i, "v1", "r1") for i in range(1, 6)]
        events.append(_ev(9, "v1", "r2"))
        assert co_view_recommend(events, "r1", 5) == [("r2", 1)]

    def test_unknown_target(self):
        events = [_ev(1, "v1", "r1")]
        with pytest.raises(UnknownRecord):
            co_view_recommend(events, "missing-id", 5)

    def test_downloads_do_not_contribute(self):
        events = [
            _ev(1, "v1", "r1"),
            _ev(2, "v1", "r2", "download"),
            _ev(3, "v2", "r1"),
            _ev(4, "v2", "r2"),
        ]
        assert co_view_recommend(events, "r1", 5) == [("r2", 1)]

    def test_download_only_target_yields_empty(self):
        events = [_ev(1, "v1", "r1", "download"), _ev(2, "v1", "r2")]
        assert co_view_recommend(events, "r1", 5) == []

    def test_zero_strength_rows_omitted(self):
        events = [_ev(1, "v1", "r1"), _ev(2, "v2", "r2")]
        assert co_view_recommend(events, "r1", 5) == []


def _random_events(rng: random.Random, n: int) -> list[UsageEvent]:
    return [
        UsageEvent(
            rng.randint(1, 1000),
            f"v{rng.randint(1, 12)}",
            f"r{rng.randint(1, 10)}",
            rng.choice(("view", "download")),
        )
        for _ in range(n)
    ]


class TestUsageProperties:
    @given(st.integers(min_value=0, max_value=200), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_order_insensitive(self, n, rng):
        events = _random_events(rng, n)
        shuffled = list(events)
        rng.shuffle(shuffled)
        assert top_k(events, "view", 50) == top_k(shuffled, "view", 50)
        if events:
            target = events[0].record_id
            assert co_view_recommend(events, target, 50) == co_view_recommend(
                shuffled, target, 50
            )

    @given(st.integers(min_value=0, max_value=200), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_unbounded_k_counts_sum_to_event_count(self, n, rng):
        events = _random_events(rng, n)
        rows = top_k(events, "view", 10**9)
        assert sum(c for _, c in rows) == sum(1 for e in events if e.action == "view")

    @given(st.integers(min_value=0, max_value=200), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_shrinking_window_never_increases_counts(self, n, rng):
        events = _random_events(rng, n)
        wide = dict(top_k(events, "view", 10**9, (100, 900)))
        narrow = dict(top_k(events, "view", 10**9, (200, 800)))
        for record_id, count in narrow.items():
            assert count <= wide.get(record_id, 0)

    @given(st.integers(min_value=1, max_value=200), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_co_view_symmetry(self, n, rng):
        events = _random_events(rng, n)
        records = sorted({e.record_id for e in events})
        strengths = {}
        for target in records:
            strengths[target] = dict(co_view_recommend(events, target, 10**9))
        for a in records:
            for b in records:
                if a != b:
                    assert strengths[a].get(b, 0) == strengths[b].get(a, 0)

    @given(st.integers(min_value=0, max_value=150), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_matches_oracles(self, n, rng):
        events = _random_events(rng, n)
        assert top_k(events, "download", 5) == naive_top_k(events, "download", 5)
        if events:
            target = events[0].record_id
            assert co_view_recommend(events, target, 5) == naive_co_view(events, target, 5)
