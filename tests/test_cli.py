"""Tests for the command-line interface: exit codes, reports, config wiring."""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biblioforge import RecordStore
from biblioforge.cli import dispatch

from .conftest import segment_files

DATA_DIR = Path(__file__).parent / "data"
CORPUS = DATA_DIR / "corpus"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def workspace(tmp_path: Path) -> dict[str, Path]:
    store = tmp_path / "store"
    paths = {
        "root": tmp_path,
        "store": store,
        "alerts": tmp_path / "alerts",
        "notes": tmp_path / "notifications",
    }
    return paths


def ingest_corpus(capsys, ws) -> None:
    code, out, _ = run(
        capsys, "ingest", str(CORPUS / "records.rec"), "--store-dir", str(ws["store"])
    )
    assert code == 0
    assert out == "ingested\t8\n"
    shutil.copytree(CORPUS / "ft", ws["store"] / "ft")


class TestExitCodes:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_bad_flag(self, capsys):
        code, _, err = run(capsys, "ingest", "--no-such-flag", "x")
        assert code == 1
        assert err.startswith("usage: biblioforge ingest")
        assert err.endswith("\nbiblioforge ingest: error: unrecognized arguments: --no-such-flag\n")

    def test_bad_flag_value_names_the_command(self, capsys):
        code, _, err = run(capsys, "keywords", "--max", "x")
        assert code == 1
        assert err.startswith("usage: biblioforge keywords")
        assert err.endswith("\nbiblioforge keywords: error: argument --max: invalid int value: 'x'\n")

    def test_missing_positional(self, capsys):
        code, _, _ = run(capsys, "ingest")
        assert code == 1

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_help_is_success(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "biblioforge" in out

    def test_missing_input_file(self, capsys, workspace):
        code, _, err = run(
            capsys, "ingest", "no-such-file.rec", "--store-dir", str(workspace["store"])
        )
        assert code == 1
        assert "error" in err

    @given(st.lists(st.text(max_size=12), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_malformed_argv_never_crashes(self, argv):
        assert dispatch(argv) in (0, 1, 2)


class TestIngestAndExport:
    def test_ingest_counts(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        store = workspace["store"]
        assert sorted(p.name for p in store.iterdir() if p.is_file()) == ["seg-1.records"]
        assert RecordStore(store).record_ids() == [f"r{i:02d}" for i in range(1, 9)]

    def test_export_in_given_order(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        code, out, _ = run(
            capsys, "export", "bibtex", "r03", "r01", "--store-dir", str(workspace["store"])
        )
        assert code == 0
        assert out.index("@misc{r03,") < out.index("@article{r01,")

    def test_export_unknown_id(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        code, _, err = run(
            capsys, "export", "bibtex", "nope", "--store-dir", str(workspace["store"])
        )
        assert code == 1
        assert "unknown record" in err

    def test_out_flag_writes_file(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        out_file = workspace["root"] / "export.bib"
        code, out, _ = run(
            capsys,
            "export",
            "bibtex",
            "r01",
            "--store-dir",
            str(workspace["store"]),
            "--out",
            str(out_file),
        )
        assert code == 0
        assert out == ""
        assert out_file.read_text(encoding="utf-8").startswith("@article{r01,")


class TestKeywordsCommand:
    def test_empty_store_empty_report(self, capsys, workspace):
        code, out, _ = run(
            capsys,
            "keywords",
            "--store-dir",
            str(workspace["store"]),
            "--taxonomy",
            str(DATA_DIR / "taxonomy20.tax"),
        )
        assert code == 0
        assert out == ""

    def test_missing_taxonomy_is_input_error(self, capsys, workspace):
        code, _, err = run(capsys, "keywords", "--store-dir", str(workspace["store"]))
        assert code == 1
        assert "taxonomy" in err

    def test_keywords_report_and_sidecars(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        code, out, _ = run(
            capsys,
            "keywords",
            "--store-dir",
            str(workspace["store"]),
            "--taxonomy",
            str(DATA_DIR / "taxonomy20.tax"),
        )
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert all(len(r) == 4 for r in rows)
        assert any(r[0] == "r01" and r[1] == "dilaton" for r in rows)
        (segment,) = segment_files(workspace["store"], "keywords")
        assert "%%\tr01\ndigest\t" in segment.read_text(encoding="utf-8")
        # records without full text contribute no rows
        assert not any(r[0] in ("r07", "r08") for r in rows)

    def test_tab_in_taxonomy_label_fails_before_any_sidecar(self, capsys, workspace, tmp_path):
        ingest_corpus(capsys, workspace)
        taxonomy = tmp_path / "tab.tax"
        taxonomy.write_text("term: t_dilaton\npref: dilaton\talpha\n", encoding="utf-8")
        code, out, err = run(
            capsys, "keywords", "--store-dir", str(workspace["store"]), "--taxonomy", str(taxonomy)
        )
        assert code == 1
        assert out == ""
        assert "line 2" in err
        assert segment_files(workspace["store"], "keywords") == []


class TestReferencePipeline:
    def test_refextract_then_citegraph(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        code, out, _ = run(capsys, "refextract", "--store-dir", str(workspace["store"]))
        assert code == 0
        assert "r01\t2\n" in out
        (segment,) = segment_files(workspace["store"], "references")
        assert "%%\tr01\ndigest\t" in segment.read_text(encoding="utf-8")

        code, out, err = run(capsys, "citegraph", "--store-dir", str(workspace["store"]))
        assert code == 0
        assert "unresolved entries: 1" in err
        expected_counts = (
            "r01\t3\nr02\t2\nr03\t2\nr04\t1\nr06\t1\nr07\t1\nr08\t1\nr05\t0\n"
        )
        assert out == expected_counts

        code, out, _ = run(capsys, "citegraph", "--edges", "--store-dir", str(workspace["store"]))
        assert code == 0
        assert "r04\tr01\n" in out and "r06\tr07\n" in out

        code, out, _ = run(capsys, "citegraph", "--rank", "--store-dir", str(workspace["store"]))
        assert code == 0
        scores = {line.split("\t")[0]: float(line.split("\t")[1]) for line in out.splitlines()}
        assert abs(sum(scores.values()) - 1.0) < 1e-9
        assert max(scores, key=scores.get) == "r01"


    def test_directory_named_like_a_record_is_skipped(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        (workspace["store"] / "old.rec").mkdir()
        code, out, err = run(capsys, "citegraph", "--store-dir", str(workspace["store"]))
        assert code == 0, err
        assert "old" not in out

    def test_tab_in_reference_line_keeps_the_record_readable(self, capsys, workspace, tmp_path):
        records = tmp_path / "probe.rec"
        records.write_text("id: p1\ntitle: Tab probe\nfulltext: ft/p1.txt\n", encoding="utf-8")
        store = workspace["store"]
        assert run(capsys, "ingest", str(records), "--store-dir", str(store))[0] == 0
        (store / "ft").mkdir()
        (store / "ft" / "p1.txt").write_text(
            "Body.\n\nReferences\n[1] A. Author,\tPhys. Rev. A 10 (2000) 100\n", encoding="utf-8"
        )
        assert run(capsys, "refextract", "--store-dir", str(store)) == (0, "p1\t1\n", "")
        code, _, err = run(capsys, "citegraph", "--store-dir", str(store))
        assert code == 0, err
        (entry,) = RecordStore(store).get("p1").references
        assert entry.raw == "[1] A. Author, Phys. Rev. A 10 (2000) 100"
        assert (entry.journal, entry.volume, entry.page) == ("Phys. Rev., A", "10", "100")


@pytest.mark.parametrize(
    "command", [("keywords", "--taxonomy", str(DATA_DIR / "taxonomy20.tax")), ("refextract",)]
)
def test_full_text_not_utf8_names_record_and_file(capsys, workspace, tmp_path, command):
    records = tmp_path / "probe.rec"
    records.write_text("id: p1\ntitle: Bytes probe\nfulltext: ft/p1.txt\n", encoding="utf-8")
    store = workspace["store"]
    assert run(capsys, "ingest", str(records), "--store-dir", str(store))[0] == 0
    (store / "ft").mkdir()
    (store / "ft" / "p1.txt").write_bytes(b"a\xffb\n")
    code, out, err = run(capsys, *command, "--store-dir", str(store))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: full text not valid UTF-8 for p1: {store / 'ft' / 'p1.txt'}: ")


READERS = ["ingest-input", "taxonomy", "kb", "config", "rec", "refs-sidecar", "keys-sidecar"]


@pytest.mark.parametrize("reader", READERS)
def test_parse_error_names_its_file(capsys, workspace, reader):
    check_fault_names_its_file(capsys, workspace, reader, utf8=False)


@pytest.mark.parametrize("reader", READERS)
def test_bad_utf8_names_its_file(capsys, workspace, reader):
    check_fault_names_its_file(capsys, workspace, reader, utf8=True)


def check_fault_names_its_file(capsys, workspace, reader, utf8):
    """Put a fault into the file ``reader`` reads: a line it cannot parse, or a byte not UTF-8."""
    ingest_corpus(capsys, workspace)
    root, store = workspace["root"], workspace["store"]
    shared = ("--store-dir", str(store), "--alerts-dir", str(workspace["alerts"]))
    assert run(capsys, "refextract", *shared)[0] == 0
    assert run(capsys, "keywords", "--taxonomy", str(DATA_DIR / "taxonomy20.tax"), *shared)[0] == 0
    (root / "good.rec").write_text("id: n1\ntitle: New\n", encoding="utf-8")
    records, refs, keys = (segment_files(store, kind)[0] for kind in ("records", "references", "keywords"))
    # reader -> (file, its text up to the faulty line, that line, the command that reads it,
    # the line's fault); in a store, the fault goes to the end of a segment's last block
    path, head, line, argv, message = {
        "ingest-input": (
            root / "bad.rec",
            "id: n2\ntitle: T\n",
            "no separator\n",
            ["ingest", str(root / "good.rec"), str(root / "bad.rec")],
            "line 3: no key separator",
        ),
        "taxonomy": (
            root / "bad.tax",
            "term: t\npref: tee\n",
            "no separator\n",
            ["keywords", "--taxonomy", str(root / "bad.tax")],
            "line 3: no key separator",
        ),
        "kb": (
            root / "bad.tsv",
            "",
            "Phys. Rev.\n",
            ["refextract", "--kb", str(root / "bad.tsv")],
            "line 1: expected 2 or 3 tab-separated columns, got 1",
        ),
        "config": (
            root / "bad.cfg",
            f"store_dir: {store}\n",
            "no separator\n",
            ["citegraph", "--config", str(root / "bad.cfg")],
            "line 2: no key separator",
        ),
        "rec": (
            records,
            records.read_text(encoding="utf-8"),
            "no separator\n",
            ["citegraph"],
            "line 78: no key separator",
        ),
        "refs-sidecar": (
            refs,
            refs.read_text(encoding="utf-8"),
            "one column\n",
            ["citegraph"],
            "line 25: refs sidecar row has 1 columns",
        ),
        "keys-sidecar": (
            keys,
            keys.read_text(encoding="utf-8"),
            "t\tlabel\tnotint\t\t\n",
            ["alerts", "run", "--now", "5000"],
            "invalid literal for int() with base 10: 'notint'",
        ),
    }[reader]
    if utf8:
        line = "a \udcff byte\n"  # encodes as the byte 0xff
        message = f"line {head.count(chr(10)) + 1}: not valid UTF-8: invalid start byte"
    path.write_bytes((head + line).encode("utf-8", "surrogateescape"))
    code, out, err = run(capsys, *argv, *shared)
    assert (code, out) == (1, "")
    assert err == f"error: {message} in {path}\n"
    # a failed ingest stores nothing, not even the records of a good file before the bad one
    assert segment_files(store, "records") == [records]
    assert "n1" not in RecordStore(store).record_ids()


@pytest.mark.parametrize(
    "reader, text, argv, message",
    [
        (
            "taxonomy",
            "term: a\npref: quark\n\nterm: b\npref: quark\n",
            ["keywords", "--taxonomy"],
            "label 'quark' claimed by terms ['a', 'b']",
        ),
        (
            "kb",
            "Phys. Rev.\tPR\nPhys. Lett.\tPR\n",
            ["refextract", "--kb"],
            "alias 'PR' maps to multiple titles ['Phys. Lett.', 'Phys. Rev.']",
        ),
        ("config", "damping: 2\n", ["citegraph", "--config"], "damping must be in (0, 1)"),
    ],
    ids=["taxonomy-duplicate-label", "kb-duplicate-alias", "config-damping"],
)
def test_fault_across_lines_names_its_file(capsys, workspace, reader, text, argv, message):
    ingest_corpus(capsys, workspace)
    path = workspace["root"] / f"bad.{reader}"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path), "--store-dir", str(workspace["store"]))
    assert (code, out) == (1, "")
    assert err == f"error: {message} in {path}\n"


def test_ingest_of_an_invalid_record_stores_nothing(capsys, workspace):
    root, store = workspace["root"], workspace["store"]
    (root / "good.rec").write_text("id: n1\ntitle: New\n", encoding="utf-8")
    (root / "bad.rec").write_text("id: n2\ntitle: T\nyear: 3000\n", encoding="utf-8")
    argv = ["ingest", str(root / "good.rec"), str(root / "bad.rec"), "--store-dir", str(store)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: record n2: year 3000 outside [1800, 2100] in {root / 'bad.rec'}\n"
    assert list(store.glob("*")) == []


def test_ingest_names_the_invalid_record_of_a_file(capsys, workspace):
    path = workspace["root"] / "multi.rec"
    path.write_text(
        "id: m1\ntitle: One\n%%\nid: m2\ntitle: Two\nyear: 3000\n%%\nid: m3\ntitle: Three\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "ingest", str(path), "--store-dir", str(workspace["store"]))
    assert (code, out) == (1, "")
    assert err == f"error: record m2: year 3000 outside [1800, 2100] in {path}\n"


@pytest.mark.parametrize("populated", [False, True], ids=["empty-store", "with-records"])
def test_keywords_max_below_one_fails_before_the_store_is_read(capsys, workspace, populated):
    store = workspace["store"]
    if populated:
        ingest_corpus(capsys, workspace)
    files = {p: p.read_bytes() for p in store.rglob("*") if p.is_file()}
    argv = ["keywords", "--max", "0", "--taxonomy", str(DATA_DIR / "taxonomy20.tax")]
    code, out, err = run(capsys, *argv, "--store-dir", str(store))
    assert (code, out, err) == (1, "", "error: max_results must be >= 1\n")
    assert {p: p.read_bytes() for p in store.rglob("*") if p.is_file()} == files


def test_ingest_keeps_the_last_of_records_sharing_an_id(capsys, workspace, caplog):
    probe = workspace["root"] / "probe.rec"
    probe.write_text("id: a\ntitle: One\n%%\nid: a\ntitle: Two\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        code, out, _ = run(capsys, "ingest", str(probe), "--store-dir", str(workspace["store"]))
    assert (code, out) == (0, "ingested\t1\n")
    assert [r.getMessage() for r in caplog.records] == [
        "record a given more than once; the last one is stored"
    ]
    assert RecordStore(workspace["store"]).get("a").title == "Two"


def test_each_writing_command_adds_one_segment_per_kind(capsys, workspace):
    ingest_corpus(capsys, workspace)
    store = workspace["store"]
    keywords = ("keywords", "--taxonomy", str(DATA_DIR / "taxonomy20.tax"), "--store-dir", str(store))
    assert run(capsys, *keywords)[0] == 0
    assert run(capsys, "refextract", "--store-dir", str(store))[0] == 0
    files = {p.name: p.read_bytes() for p in store.iterdir() if p.is_file()}
    assert sorted(files) == ["seg-1.records", "seg-2.keywords", "seg-3.references"]
    # nothing changed, so a second run writes nothing
    assert run(capsys, *keywords)[0] == 0
    assert {p.name: p.read_bytes() for p in store.iterdir() if p.is_file()} == files


class TestUsageCommands:
    def test_top_views(self, capsys, workspace):
        code, out, _ = run(
            capsys,
            "usage",
            "top",
            "--action",
            "view",
            "-k",
            "5",
            "--log-path",
            str(CORPUS / "usage.log"),
            "--store-dir",
            str(workspace["store"]),
        )
        assert code == 0
        assert out == "r01\t6\nr02\t4\nr03\t3\nr04\t2\nr06\t2\n"

    def test_top_downloads_with_window(self, capsys, workspace):
        code, out, _ = run(
            capsys,
            "usage",
            "top",
            "--action",
            "download",
            "-k",
            "10",
            "--from",
            "2014",
            "--to",
            "2016",
            "--log-path",
            str(CORPUS / "usage.log"),
            "--store-dir",
            str(workspace["store"]),
        )
        assert code == 0
        assert out == "r01\t2\nr02\t1\n"

    def test_recommend(self, capsys, workspace):
        code, out, _ = run(
            capsys,
            "usage",
            "recommend",
            "r01",
            "-k",
            "5",
            "--log-path",
            str(CORPUS / "usage.log"),
            "--store-dir",
            str(workspace["store"]),
        )
        assert code == 0
        assert out == "r02\t3\nr03\t2\nr04\t1\nr05\t1\nr06\t1\n"

    def test_recommend_unknown_record(self, capsys, workspace):
        code, _, err = run(
            capsys,
            "usage",
            "recommend",
            "missing-id",
            "-k",
            "5",
            "--log-path",
            str(CORPUS / "usage.log"),
            "--store-dir",
            str(workspace["store"]),
        )
        assert code == 1
        assert "unknown record: missing-id" in err

    def test_invalid_utf8_byte_skipped(self, capsys, workspace):
        log = workspace["root"] / "usage.log"
        corpus_log = (CORPUS / "usage.log").read_bytes()
        log.write_bytes(corpus_log + b"1136073600\tv9\tr\xff1\tview\n")
        argv = ["usage", "top", "--action", "view", "-k", "5", "--store-dir", str(workspace["store"])]
        code, out, err = run(capsys, *argv, "--log-path", str(log))
        assert code == 0
        assert "skipped 1 malformed log lines" in err
        assert out == "r01\t6\nr02\t4\nr03\t3\nr04\t2\nr06\t2\n"

    def test_recommend_reports_skipped_lines_before_unknown_record(self, capsys, workspace):
        log = workspace["root"] / "usage.log"
        log.write_bytes((CORPUS / "usage.log").read_bytes() + b"not a log line\n")
        argv = ["usage", "recommend", "missing-id", "--store-dir", str(workspace["store"])]
        code, out, err = run(capsys, *argv, "--log-path", str(log))
        assert code == 1
        assert out == ""
        assert err.index("skipped 1 malformed log lines") < err.index("unknown record: missing-id")

    def test_missing_log_is_input_error(self, capsys, workspace):
        code, _, err = run(
            capsys, "usage", "top", "--action", "view", "--store-dir", str(workspace["store"])
        )
        assert code == 1
        assert "log" in err


class TestAlertsCommands:
    def test_register_and_run(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        code, out, _ = run(
            capsys,
            "alerts",
            "register",
            "--owner",
            "me",
            "--clause",
            "author:contains:pepe",
            "--now",
            "100",
            "--alerts-dir",
            str(workspace["alerts"]),
        )
        assert code == 0
        alert_id = out.strip()
        assert (workspace["alerts"] / f"{alert_id}.alert").is_file()

        code, out, _ = run(
            capsys,
            "alerts",
            "run",
            "--now",
            "5000",
            "--store-dir",
            str(workspace["store"]),
            "--alerts-dir",
            str(workspace["alerts"]),
            "--notifications-dir",
            str(workspace["notes"]),
        )
        assert code == 0
        assert out == f"{alert_id}\t1\n"
        note = workspace["notes"] / "5000" / f"{alert_id}.tsv"
        assert note.read_text(encoding="utf-8") == "r04\tMagnetic Moments in Gauge Theory\n"

        # the watermark advanced: a second run finds nothing new
        code, out, _ = run(
            capsys,
            "alerts",
            "run",
            "--now",
            "6000",
            "--store-dir",
            str(workspace["store"]),
            "--alerts-dir",
            str(workspace["alerts"]),
            "--notifications-dir",
            str(workspace["notes"]),
        )
        assert code == 0
        assert out == ""

    def _run_batch(self, capsys, workspace, now: str) -> tuple[int, str, str]:
        return run(
            capsys,
            "alerts",
            "run",
            "--now",
            now,
            "--store-dir",
            str(workspace["store"]),
            "--alerts-dir",
            str(workspace["alerts"]),
            "--notifications-dir",
            str(workspace["notes"]),
        )

    def test_directory_named_like_a_subscription_is_skipped(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        (workspace["alerts"] / "x.alert").mkdir(parents=True)
        code, out, err = self._run_batch(capsys, workspace, "5000")
        assert (code, out) == (0, ""), err

    def test_malformed_subscription_file_stops_the_batch_and_is_named(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        ids = []
        for owner in ("me", "you"):
            code, out, _ = run(
                capsys,
                "alerts",
                "register",
                "--owner",
                owner,
                "--clause",
                "author:contains:pepe",
                "--now",
                "100",
                "--alerts-dir",
                str(workspace["alerts"]),
            )
            assert code == 0
            ids.append(out.strip())
        path = workspace["alerts"] / f"{ids[1]}.alert"
        path.write_text(path.read_text(encoding="utf-8") + "last_run: 9\n", encoding="utf-8")
        code, out, err = self._run_batch(capsys, workspace, "5000")
        assert (code, out) == (1, "")
        assert f"line 6: duplicate key 'last_run' (first on line 4) in {path}" in err
        assert not workspace["notes"].exists()

    def test_copied_subscription_file_stops_the_batch(self, capsys, workspace):
        # a batch saves each watermark by alert_id, so the copy's would never
        # advance and the copy would deliver the same records in every batch
        ingest_corpus(capsys, workspace)
        code, out, _ = run(
            capsys,
            "alerts",
            "register",
            "--owner",
            "me",
            "--clause",
            "author:contains:pepe",
            "--now",
            "100",
            "--alerts-dir",
            str(workspace["alerts"]),
        )
        assert code == 0
        original = workspace["alerts"] / f"{out.strip()}.alert"
        copy = workspace["alerts"] / "copy.alert"
        shutil.copyfile(original, copy)
        before = original.read_bytes()
        for now in ("200", "300"):
            code, out, err = self._run_batch(capsys, workspace, now)
            assert (code, out) == (1, "")
            assert err == f"error: alert_id {original.stem!r} is not the file name in {copy}\n"
        assert not workspace["notes"].exists()
        assert original.read_bytes() == copy.read_bytes() == before

    @pytest.mark.parametrize(
        "option, value",
        [("--clause", "title:contains:x\nlast_run: 5"), ("--owner", "me\u2028last_run: 5")],
    )
    def test_line_break_in_a_value_is_refused(self, capsys, workspace, option, value):
        ingest_corpus(capsys, workspace)
        argv = {"--owner": "me", "--clause": "author:contains:pepe", option: value}
        code, out, err = run(
            capsys,
            "alerts",
            "register",
            *[word for pair in argv.items() for word in pair],
            "--now",
            "100",
            "--alerts-dir",
            str(workspace["alerts"]),
        )
        assert (code, out) == (1, "")
        assert "line break" in err
        assert list(workspace["alerts"].iterdir()) == []
        assert self._run_batch(capsys, workspace, "5000")[0] == 0

    def test_register_requires_clause(self, capsys, workspace):
        code, _, _ = run(capsys, "alerts", "register", "--owner", "me")
        assert code == 1

    def test_bad_clause_is_input_error(self, capsys, workspace):
        code, _, err = run(
            capsys,
            "alerts",
            "register",
            "--owner",
            "me",
            "--clause",
            "nonsense",
            "--alerts-dir",
            str(workspace["alerts"]),
        )
        assert code == 1
        assert "clause" in err

    @pytest.mark.parametrize("clause, value", [("year:equals:abc", "abc"), ("year:range:1..x", "x")])
    def test_non_integer_year_clause_is_named(self, capsys, workspace, clause, value):
        argv = ["alerts", "register", "--owner", "me", "--clause", clause]
        code, out, err = run(capsys, *argv, "--alerts-dir", str(workspace["alerts"]))
        assert (code, out) == (1, "")
        assert err == f"error: clause {clause!r} needs an integer year, got {value!r}\n"


class TestConfigWiring:
    def test_config_file_and_flag_override(self, capsys, workspace, monkeypatch):
        ingest_corpus(capsys, workspace)
        cfg = workspace["root"] / "forge.cfg"
        cfg.write_text(
            f"store_dir: {workspace['store']}\n"
            f"log_path: {CORPUS / 'usage.log'}\n"
            "damping: 0.9\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "usage", "top", "--action", "view", "--config", str(cfg))
        assert code == 0
        assert out.startswith("r01\t6\n")

        monkeypatch.setenv("BIBLIOFORGE_CONFIG", str(cfg))
        code, out, _ = run(capsys, "export", "bibtex", "r01")
        assert code == 0
        assert out.startswith("@article{r01,")

        # flags override file values: point the store somewhere empty
        empty = workspace["root"] / "empty-store"
        code, _, err = run(
            capsys, "export", "bibtex", "r01", "--config", str(cfg), "--store-dir", str(empty)
        )
        assert code == 1

    def test_removed_composite_window_key_only_warns(self, capsys, workspace, caplog):
        ingest_corpus(capsys, workspace)
        cfg = workspace["root"] / "old.cfg"
        cfg.write_text(
            f"store_dir: {workspace['store']}\ncomposite_window: sentence\n", encoding="utf-8"
        )
        with caplog.at_level(logging.WARNING):
            code, out, _ = run(capsys, "export", "bibtex", "r01", "--config", str(cfg))
        assert code == 0 and out.startswith("@article{r01,")
        assert "unknown key 'composite_window'" in caplog.text

    def test_bad_config_value(self, capsys, workspace):
        cfg = workspace["root"] / "bad.cfg"
        cfg.write_text("damping: not-a-number\n", encoding="utf-8")
        code, _, err = run(capsys, "usage", "top", "--action", "view", "--config", str(cfg))
        assert code == 1

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (("citegraph", "--rank", "--tolerance", "nan"), "", "rank_tolerance must be positive"),
            (("citegraph", "--rank"), "rank_tolerance: nan\n", "rank_tolerance must be positive"),
            (("citegraph", "--rank", "--tolerance", "inf"), "", "rank_tolerance must be positive"),
            (("citegraph", "--rank"), "rank_tolerance: inf\n", "rank_tolerance must be positive"),
            (("refextract",), "heading_pattern: (\n", "bad heading_pattern '('"),
        ],
        ids=[
            "tolerance-flag-nan",
            "tolerance-config-nan",
            "tolerance-flag-inf",
            "tolerance-config-inf",
            "heading-pattern-regex",
        ],
    )
    def test_invalid_setting_is_input_error(self, capsys, workspace, argv, config, message):
        ingest_corpus(capsys, workspace)
        cfg = workspace["root"] / "bad.cfg"
        cfg.write_text(f"store_dir: {workspace['store']}\n{config}", encoding="utf-8")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    def test_rank_that_does_not_converge_warns_and_reports(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        assert run(capsys, "refextract", "--store-dir", str(workspace["store"]))[0] == 0
        cfg = workspace["root"] / "one-iteration.cfg"
        cfg.write_text(f"store_dir: {workspace['store']}\nrank_max_iters: 1\n", encoding="utf-8")
        code, out, err = run(capsys, "citegraph", "--rank", "--config", str(cfg))
        assert code == 0
        assert "warning: rank iteration did not converge after 1 iterations\n" in err
        scores = [float(line.split("\t")[1]) for line in out.splitlines()]
        assert len(scores) == 8 and abs(sum(scores) - 1.0) < 1e-9


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "biblioforge", *argv],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env={**os.environ, "PYTHONPATH": str(src)},
        )

    result = module("ingest", str(CORPUS / "records.rec"), "--store-dir", str(tmp_path / "store"))
    assert (result.returncode, result.stdout) == (0, "ingested\t8\n")
    result = module("frobnicate")
    assert result.returncode == 1
    assert "usage: biblioforge" in result.stderr


def test_python_dash_m_cli_module_runs_the_command_line(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "biblioforge.cli", *argv],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env={**os.environ, "PYTHONPATH": str(src)},
        )

    missing = tmp_path / "missing.rec"
    result = module("ingest", str(missing), "--store-dir", str(tmp_path / "store"))
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: ") and str(missing) in result.stderr
    assert not (tmp_path / "store").exists()
    result = module("--help")
    assert result.returncode == 0
    assert result.stdout.startswith("usage: biblioforge")


def test_ci_workflow_runs_both_suites():
    yaml = pytest.importorskip("yaml")
    path = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
    workflow = yaml.safe_load(path.read_text(encoding="utf-8"))
    [job] = workflow["jobs"].values()
    assert [str(v) for v in job["strategy"]["matrix"]["python-version"]] == ["3.10", "3.11", "3.12", "3.13"]
    commands = "\n".join(step.get("run", "") for step in job["steps"])
    # pyyaml lets this very test run in CI instead of skipping there
    for needed in ("pytest hypothesis numpy pyyaml", "python -m pytest -q", "python3 -m pytest bench/ -q"):
        assert needed in commands
    # text I/O without an explicit encoding fails the tier-1 run, subprocesses included
    [tier1] = [step for step in job["steps"] if "python -m pytest -q" in step.get("run", "")]
    assert tier1["env"] == {
        "PYTHONWARNDEFAULTENCODING": "1",
        "PYTHONWARNINGS": "error::EncodingWarning",
    }
    assert 0 < job["timeout-minutes"] <= 15
    # CI installs exactly the test extra, so `pip install .[test]` runs this test too
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((path.parents[2] / "pyproject.toml").read_text(encoding="utf-8"))
    [install] = [step["run"] for step in job["steps"] if "pip install" in step.get("run", "")]
    packages = install.split("pip install", 1)[1].split()
    assert sorted(packages) == sorted(pyproject["project"]["optional-dependencies"]["test"])
