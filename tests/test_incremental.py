"""Tests for incremental enrichment: `keywords` and `refextract` skip records
whose inputs are unchanged since their sidecar was written."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from biblioforge import RecordStore, cli, default_journal_kb_path
from biblioforge.cli import dispatch

DATA_DIR = Path(__file__).parent / "data"
CORPUS = DATA_DIR / "corpus"
WITH_TEXT = [f"r{i:02d}" for i in range(1, 7)]  # r07 and r08 have no full text


class Counted:
    """Counts the calls of the extractors and sidecar writers, per record."""

    def __init__(self, monkeypatch):
        self.extracted: list[str] = []
        self.written: list[str] = []
        for name in ("extract_keywords", "extract_references"):
            monkeypatch.setattr(cli, name, self._counting(getattr(cli, name), self.extracted))
        for name in ("write_keywords_sidecar", "write_refs_sidecar"):
            original = getattr(RecordStore, name)

            def write(store, record_id, *args, _original=original, **kwargs):
                self.written.append(record_id)
                return _original(store, record_id, *args, **kwargs)

            monkeypatch.setattr(RecordStore, name, write)

    @staticmethod
    def _counting(function, calls):
        def counted(text, *args, **kwargs):
            calls.append(text)
            return function(text, *args, **kwargs)

        return counted

    def reset(self) -> None:
        self.extracted.clear()
        self.written.clear()


@pytest.fixture()
def ws(tmp_path: Path) -> dict[str, Path]:
    store = tmp_path / "store"
    assert dispatch(["ingest", str(CORPUS / "records.rec"), "--store-dir", str(store)]) == 0
    shutil.copytree(CORPUS / "ft", store / "ft")
    taxonomy = tmp_path / "taxonomy.tax"
    shutil.copy(DATA_DIR / "taxonomy20.tax", taxonomy)
    kb = tmp_path / "journals.tsv"
    shutil.copy(default_journal_kb_path(), kb)
    return {"root": tmp_path, "store": store, "taxonomy": taxonomy, "kb": kb}


def keywords(ws, *extra: str) -> str:
    out = ws["root"] / "keywords.tsv"
    argv = ["keywords", "--store-dir", str(ws["store"]), "--taxonomy", str(ws["taxonomy"])]
    assert dispatch([*argv, *extra, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def refextract(ws, *extra: str) -> str:
    out = ws["root"] / "refextract.tsv"
    argv = ["refextract", "--store-dir", str(ws["store"]), "--kb", str(ws["kb"])]
    assert dispatch([*argv, *extra, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def touched(counted: Counted) -> list[str]:
    """Record ids recomputed since the last reset; every extraction is also written."""
    assert len(counted.extracted) == len(counted.written)
    return sorted(counted.written)


@pytest.fixture()
def counted(monkeypatch) -> Counted:
    return Counted(monkeypatch)


@pytest.mark.parametrize("command", [keywords, refextract])
class TestInvalidation:
    def test_unchanged_store_reuses_every_result(self, ws, counted, command):
        first = command(ws)
        assert touched(counted) == WITH_TEXT
        sidecars = {p.name: p.read_bytes() for p in ws["store"].glob("*.tsv")}
        counted.reset()
        assert command(ws) == first
        assert touched(counted) == []
        assert {p.name: p.read_bytes() for p in ws["store"].glob("*.tsv")} == sidecars

    def test_changed_full_text_recomputes_that_record(self, ws, counted, command):
        first = command(ws)
        counted.reset()
        text = ws["store"] / "ft" / "r03.txt"
        text.write_text(text.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        assert command(ws) == first
        assert touched(counted) == ["r03"]

    def test_deleted_sidecar_recomputes_that_record(self, ws, counted, command):
        first = command(ws)
        counted.reset()
        for sidecar in ws["store"].glob("r05.*.tsv"):
            sidecar.unlink()
        assert command(ws) == first
        assert touched(counted) == ["r05"]

    def test_sidecar_without_digest_recomputes_that_record(self, ws, counted, command):
        first = command(ws)
        counted.reset()
        (sidecar,) = ws["store"].glob("r02.*.tsv")
        lines = sidecar.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0].startswith("digest\t")
        sidecar.write_text("".join(lines[1:]), encoding="utf-8")  # as older versions wrote it
        assert RecordStore(ws["store"]).get("r02") is not None
        assert command(ws) == first
        assert touched(counted) == ["r02"]
        assert sidecar.read_text(encoding="utf-8") == "".join(lines)

    def test_missing_full_text_fails_as_before(self, ws, counted, command, capsys):
        command(ws)
        (ws["store"] / "ft" / "r04.txt").unlink()
        argv = {keywords: ["keywords", "--taxonomy", str(ws["taxonomy"])], refextract: ["refextract"]}
        code = dispatch([*argv[command], "--store-dir", str(ws["store"])])
        assert code == 1
        assert "full text missing for r04" in capsys.readouterr().err


@pytest.mark.parametrize("command", [keywords, refextract])
def test_dropped_full_text_removes_the_sidecar(ws, command):
    probe = ws["root"] / "p1.rec"
    probe.write_text("id: p1\ntitle: Probe\nfulltext: ft/r01.txt\n", encoding="utf-8")
    assert dispatch(["ingest", str(probe), "--store-dir", str(ws["store"])]) == 0
    assert "p1\t" in command(ws)
    store = RecordStore(ws["store"])
    assert store.get("p1").keywords or store.get("p1").references

    probe.write_text("id: p1\ntitle: Probe\n", encoding="utf-8")
    assert dispatch(["ingest", str(probe), "--store-dir", str(ws["store"])]) == 0
    assert "p1\t" not in command(ws)
    assert store.get("p1").keywords == [] and store.get("p1").references == []
    assert list(ws["store"].glob("p1.*.tsv")) == []


class TestSettingsInvalidate:
    def test_taxonomy_file(self, ws, counted):
        keywords(ws)
        counted.reset()
        with ws["taxonomy"].open("a", encoding="utf-8") as fh:
            fh.write("\nterm: t_unused_extra\npref: unused extra term\n")
        keywords(ws)
        assert touched(counted) == WITH_TEXT

    def test_max_results(self, ws, counted):
        full = keywords(ws)
        counted.reset()
        fewer = keywords(ws, "--max", "1")
        assert touched(counted) == WITH_TEXT
        assert len(fewer.splitlines()) < len(full.splitlines())
        counted.reset()
        assert keywords(ws, "--max", "1") == fewer
        assert touched(counted) == []

    def test_kb_file(self, ws, counted):
        refextract(ws)
        counted.reset()
        with ws["kb"].open("a", encoding="utf-8") as fh:
            fh.write("Unused Journal\tUnused J.\n")
        refextract(ws)
        assert touched(counted) == WITH_TEXT

    def test_heading_pattern(self, ws, counted):
        refextract(ws)
        counted.reset()
        config = ws["root"] / "forge.cfg"
        config.write_text("heading_pattern: ^\\s*references\\s*$\n", encoding="utf-8")
        refextract(ws, "--config", str(config))
        assert touched(counted) == WITH_TEXT
        counted.reset()
        refextract(ws, "--config", str(config))
        assert touched(counted) == []

    def test_keywords_and_refextract_are_independent(self, ws, counted):
        keywords(ws)
        refextract(ws)
        counted.reset()
        with ws["taxonomy"].open("a", encoding="utf-8") as fh:
            fh.write("\nterm: t_unused_extra\npref: unused extra term\n")
        refextract(ws)
        assert touched(counted) == []


def test_refextract_leaves_record_file_alone(ws):
    rec = ws["store"] / "r01.rec"
    before = rec.read_bytes()
    assert "r01\t2\n" in refextract(ws)
    assert rec.read_bytes() == before
    assert b"reference_raw" not in before
    references = RecordStore(ws["store"]).get("r01").references
    assert len(references) == 2
    assert all(entry.raw for entry in references)


def test_importing_the_cli_leaves_hashlib_unloaded():
    """hashlib loads OpenSSL, megabytes of resident memory in every command."""
    src = Path(cli.__file__).resolve().parent.parent
    probe = "import sys, biblioforge.cli; print('_hashlib' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "False"
