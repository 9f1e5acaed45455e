"""Tests for the command-line interface: exit codes, reports, config wiring."""

from __future__ import annotations

import logging
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biblioforge import RecordStore
from biblioforge.cli import dispatch

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
        assert "usage" in err

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
        assert len(list(workspace["store"].glob("*.rec"))) == 8

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
        assert (workspace["store"] / "r01.keys.tsv").is_file()
        # records without full text contribute no rows
        assert not any(r[0] in ("r07", "r08") for r in rows)


class TestReferencePipeline:
    def test_refextract_then_citegraph(self, capsys, workspace):
        ingest_corpus(capsys, workspace)
        code, out, _ = run(capsys, "refextract", "--store-dir", str(workspace["store"]))
        assert code == 0
        assert "r01\t2\n" in out
        assert (workspace["store"] / "r01.refs.tsv").is_file()

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
