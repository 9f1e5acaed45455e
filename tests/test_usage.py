"""Tests for access-log parsing and usage reports."""

from __future__ import annotations

import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
from biblioforge import usage
from biblioforge.usage import LogScan, events_from_lines

from .oracles import naive_co_view, naive_read_log, naive_top_k


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


class TestUsageEvent:
    def test_is_a_named_tuple_in_field_order(self):
        event = UsageEvent(5, "v", "r", "view")
        assert event == (5, "v", "r", "view")
        assert (event.timestamp, event.visitor_id, event.record_id, event.action) == tuple(event)


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

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            co_view_recommend([_ev(1, "v1", "r1")], "r1", 0)


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


# Every break str.splitlines knows, plus the \r\n pair.
_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SIMPLE_IDS = st.sampled_from(["v1", "v2", "r1", "r2", "r 3", "r\u00e9"])
_IDS = st.one_of(_SIMPLE_IDS, _SIMPLE_IDS, st.text(st.characters(blacklist_categories=("Cs",)), max_size=3))
# Decimal digits of any script, signs, padding and underscores are what
# int() takes beyond plain ASCII digits; "\u00b2" is a digit int() refuses.
_TIMESTAMPS = st.one_of(
    st.integers(min_value=0, max_value=40).map(str),
    st.sampled_from(["+7", " 8", "9 ", "007", "\u0661\u0662", "1_0", "-4", "\u00b2", "x", ""]),
)
_LOG_LINE = st.builds(
    lambda ts, v, r, a, trail: f"{ts}\t{v}\t{r}\t{a}{trail}".encode(),
    _TIMESTAMPS,
    _IDS,
    _IDS,
    st.sampled_from(["view", "download", "view", "download", "view ", "print", "View"]),
    st.sampled_from(["", "", "\t", " ", "\t\t", "\x1f"]),
)
_LOG_LINES = st.one_of(
    _LOG_LINE,
    _LOG_LINE,
    st.sampled_from([b"", b"   ", b"\t", b"\x00", b"\xff", b"5\tv\tr\xc3\tview", b"\xe2\x80", b"\x80"]),
    st.binary(max_size=6),
)


@st.composite
def _byte_logs(draw) -> bytes:
    lines = draw(st.lists(_LOG_LINES, max_size=25))
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    data = b"".join(line + brk.encode() for line, brk in zip(lines, breaks))
    if draw(st.booleans()) and breaks:
        data = data[: -len(breaks[-1].encode())]  # no break after the last line
    return data


class TestStream:
    """The block-wise stream against the whole-file reader it replaced."""

    @given(
        data=_byte_logs(),
        block_size=st.integers(min_value=1, max_value=48),
        window=st.sampled_from([None, (5, 20), (None, 9), (12, None)]),
        pick=st.integers(min_value=0, max_value=50),
    )
    @example(
        data="\u00b2\tv\tr\tview\n0\tv\tr\tview\n7\t\tr\tview\r\n+7\tv\tr\tview\t\x1c".encode(),
        block_size=3,
        window=None,
        pick=0,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_whole_file_reader(self, data, block_size, window, pick):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "usage.log"
            path.write_bytes(data)
            expected, expected_skipped = naive_read_log(path)
            with mock.patch.object(usage, "BLOCK_SIZE", block_size):
                scan = LogScan()
                assert list(scan.read(path)) == expected
                assert scan.skipped == expected_skipped
                assert read_log(path) == (expected, expected_skipped)

                oracle_events = [UsageEvent(*e) for e in expected]
                for action in ("view", "download"):
                    scan = LogScan()
                    assert top_k(scan.read(path), action, 3, window) == naive_top_k(
                        oracle_events, action, 3, window
                    )
                    assert scan.skipped == expected_skipped
                record_ids = sorted({e.record_id for e in oracle_events})
                targets = [*record_ids, "missing"]
                target = targets[pick % len(targets)]
                scan = LogScan()
                if target in record_ids:
                    assert co_view_recommend(scan.read(path), target, 3) == naive_co_view(
                        oracle_events, target, 3
                    )
                else:
                    with pytest.raises(UnknownRecord):
                        co_view_recommend(scan.read(path), target, 3)
                assert scan.skipped == expected_skipped
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return
        assert events_from_lines(text.splitlines()) == (expected, expected_skipped)

    def test_lines_longer_than_a_block(self, tmp_path):
        path = tmp_path / "usage.log"
        long_id = "r" * (3 * usage.BLOCK_SIZE)
        path.write_bytes(f"5\tv\t{long_id}\tview\n6\tv\tr2\tview".encode())
        scan = LogScan()
        assert list(scan.read(path)) == [(5, "v", long_id, "view"), (6, "v", "r2", "view")]
        assert scan.skipped == 0

    def test_top_k_memory_stays_far_below_the_log_size(self, tmp_path):
        path = tmp_path / "usage.log"
        rng = random.Random(11)
        with open(path, "w", encoding="ascii") as fh:
            for i in range(192_000):
                fh.write(
                    f"{1_136_073_600 + i}\tvisitor{rng.randrange(5000):04d}"
                    f"\trecord{rng.randrange(2000):05d}\t{rng.choice(('view', 'download'))}\n"
                )
        size = path.stat().st_size
        assert size > 8_000_000
        tracemalloc.start()
        try:
            rows = top_k(LogScan().read(path), "view", 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 10
        assert peak < size / 8, f"peak {peak} bytes for a {size}-byte log"
