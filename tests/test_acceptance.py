"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path

import pytest

from biblioforge import (
    CitationGraph,
    build_graph,
    citation_counts,
    cocitation,
    default_journal_kb_path,
    extract_keywords,
    link_rank,
    load_journal_kb,
    load_taxonomy,
    locate_reference_section,
    extract_references,
    read_log,
    top_k,
    co_view_recommend,
)
from biblioforge.cli import dispatch

from .conftest import GRAPH_FIXTURE_COUNTS, GRAPH_FIXTURE_EDGES, graph_fixture_records
from .oracles import dense_link_rank, naive_co_view, naive_keyword_scan, naive_top_k
from .test_alerts import run_interleaving_trial
from .test_refextract import KB_ROWS

DATA_DIR = Path(__file__).parent / "data"


def _report(n: int, message: str) -> None:
    print(f"[acceptance] criterion {n}: PASS - {message}")


def test_criterion_1_journal_kb_fidelity():
    """All knowledge-base alternative forms normalize exactly, in < 1 ms."""
    kb = load_journal_kb(default_journal_kb_path())
    lookups = [
        (alias, canonical)
        for canonical, aliases in KB_ROWS.items()
        for alias in [*aliases, canonical]
    ]
    from biblioforge import normalize_journal

    start = time.perf_counter()
    results = [normalize_journal(alias, kb) for alias, _ in lookups]
    elapsed = time.perf_counter() - start
    for (alias, canonical), got in zip(lookups, results):
        assert got == canonical, f"{alias!r} -> {got!r}, expected {canonical!r}"
    assert elapsed < 0.001, f"lookups took {elapsed * 1000:.3f} ms"
    _report(1, f"{len(lookups)} alias lookups exact in {elapsed * 1e6:.0f} us")


_FILLERS = [
    "the", "of", "and", "we", "study", "model", "results", "in", "a",
    "with", "for", "two", "loop", "order", "terms", "limit", "case",
]
_LABEL_WORDS = [
    "physics", "gravitation", "gravity", "dilaton", "quantum", "field",
    "theory", "gauge", "scalar", "fermion", "fermions", "dirac", "operator",
    "quantization", "nonperturbative", "methods", "magnetic", "moment",
    "effective", "action", "ghost", "ghosts", "poisson", "bracket",
    "minkowski", "space", "bosonization", "scalars", "moments",
]


def _generate_document(rng: random.Random, max_tokens: int = 500) -> str:
    vocab = _LABEL_WORDS + _FILLERS
    budget = rng.randint(1, max_tokens)
    sentences = []
    used = 0
    while used < budget:
        n = min(rng.randint(3, 18), budget - used)
        words = [rng.choice(vocab) for _ in range(n)]
        used += n
        sentences.append(" ".join(words) + rng.choice([".", "?", "!"]))
    return " ".join(sentences)


def test_criterion_2_keyword_oracle_equivalence():
    """200 generated documents: exact oracle equality and composite bound, < 5 s."""
    taxonomy = load_taxonomy(DATA_DIR / "taxonomy20.tax")
    rng = random.Random(20060607)
    docs = [_generate_document(rng) for _ in range(200)]
    start = time.perf_counter()
    composite_rows = 0
    for doc in docs:
        got = extract_keywords(doc, taxonomy, max_results=50)
        expected = naive_keyword_scan(doc, taxonomy, max_results=50)
        assert got == expected
        for ka in got:
            if ka.component_counts is not None:
                composite_rows += 1
                assert ka.occurrence <= min(ka.component_counts)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _report(2, f"200 docs equal the scan oracle ({composite_rows} composite rows) in {elapsed:.2f} s")


def test_criterion_3_reference_pipeline():
    """20-document corpus: 100% spans, >= 95% exact entries, fields match goldens, < 2 s."""
    kb = load_journal_kb(default_journal_kb_path())
    docs = sorted((DATA_DIR / "refcorpus").glob("d*.txt"))
    assert len(docs) == 20
    start = time.perf_counter()
    total = exact = spans_ok = 0
    for doc in docs:
        text = doc.read_text(encoding="utf-8")
        golden = json.loads(doc.with_suffix(".json").read_text(encoding="utf-8"))

        offsets, pos = [], 0
        for line in text.splitlines(keepends=True):
            offsets.append((pos, len(line.rstrip("\n"))))
            pos += len(line)
        expected_start = offsets[golden["section_start_line"]][0]
        if golden["section_end_line"] is None:
            expected_end = len(text)
        else:
            line_start, line_len = offsets[golden["section_end_line"]]
            expected_end = line_start + line_len
        if locate_reference_section(text) == (expected_start, expected_end):
            spans_ok += 1

        entries = {e.raw: e for e in extract_references(text, kb)}
        for ge in golden["entries"]:
            total += 1
            raw = f"{ge['marker']} {ge['text']}" if ge["marker"] else ge["text"]
            entry = entries.get(raw)
            if entry is None:
                continue
            exact += 1
            for field in ("journal", "volume", "page", "year", "url"):
                assert getattr(entry, field) == ge[field], (doc.name, raw, field)
            assert entry.report_numbers == ge["report_numbers"], (doc.name, raw)
            assert entry.marker == ge["marker"], (doc.name, raw)
    elapsed = time.perf_counter() - start
    assert spans_ok == len(docs), f"{spans_ok}/{len(docs)} section spans located"
    recovery = exact / total
    assert recovery >= 0.95, f"segmentation recovery {recovery:.3f} < 0.95"
    assert elapsed < 2.0, f"took {elapsed:.2f} s"
    _report(3, f"spans 20/20, entries {exact}/{total} ({recovery:.1%}) in {elapsed:.2f} s")


def test_criterion_4_citation_graph():
    """Fixture adjacency matches the hand oracle; in-degree sums on 1000 random graphs."""
    graph = build_graph(graph_fixture_records())
    assert graph.edges == GRAPH_FIXTURE_EDGES
    assert graph.unresolved == 3
    counts = citation_counts(graph)
    assert counts == GRAPH_FIXTURE_COUNTS
    # co-citation values against brute-force intersections of citer sets
    citers = {}
    for node in graph.nodes:
        citers[node] = {u for u, v in graph.edges if v == node}
    nodes = sorted(graph.nodes)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            assert cocitation(graph, a, b) == len(citers[a] & citers[b])

    rng = random.Random(451)
    for _ in range(1000):
        n = rng.randint(1, 50)
        node_set = {f"n{i}" for i in range(n)}
        pool = [(a, b) for a in sorted(node_set) for b in sorted(node_set) if a != b]
        edges = set(rng.sample(pool, min(len(pool), rng.randint(0, 2 * n))))
        g = CitationGraph(nodes=node_set, edges=edges)
        assert sum(citation_counts(g).values()) == len(edges)
    _report(4, "fixture adjacency exact; in-degree sums hold on 1000 random graphs")


def test_criterion_5_link_rank():
    """Rank matches the dense-matrix oracle to 1e-8 per node on graphs <= 20 nodes."""
    graph = CitationGraph(nodes={"a", "b"}, edges={("a", "b"), ("b", "a")})
    scores = link_rank(graph, damping=0.85, tolerance=1e-12)
    assert scores["a"] == pytest.approx(0.5, abs=1e-9)
    assert scores["b"] == pytest.approx(0.5, abs=1e-9)

    rng = random.Random(1105)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 20)
        node_set = {f"n{i}" for i in range(n)}
        pool = [(a, b) for a in sorted(node_set) for b in sorted(node_set) if a != b]
        edges = set(rng.sample(pool, min(len(pool), rng.randint(0, 3 * n))))
        g = CitationGraph(nodes=node_set, edges=edges)
        scores = link_rank(g, damping=0.85, tolerance=1e-12, max_iters=10000)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
        oracle = dense_link_rank(node_set, edges, damping=0.85)
        for node in node_set:
            assert scores[node] == pytest.approx(oracle[node], abs=1e-8)
        checked += 1
    _report(5, f"{checked} random graphs within 1e-8 of the dense oracle; sums within 1e-9")


def _synthetic_log(path: Path, n_events: int = 100_000) -> None:
    rng = random.Random(885_020)
    records = [f"r{i:03d}" for i in range(50)]
    weights = [1.0 / (i + 1) for i in range(50)]  # zipf-like popularity
    visitors = [f"v{i:04d}" for i in range(1500)]
    lines = []
    for _ in range(n_events):
        action = "view" if rng.random() < 0.7 else "download"
        lines.append(
            f"{rng.randint(1, 10_000_000)}\t{rng.choice(visitors)}"
            f"\t{rng.choices(records, weights)[0]}\t{action}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_criterion_6_usage_reports(tmp_path):
    """10^5-event log: top-k and co-view equal brute force; symmetry on all pairs; < 5 s."""
    log = tmp_path / "usage.log"
    _synthetic_log(log)

    start = time.perf_counter()
    events, skipped = read_log(log)
    top_views = top_k(events, "view", 10)
    top_downloads = top_k(events, "download", 10, time_window=(1_000_000, 9_000_000))
    records = sorted({e.record_id for e in events})
    strengths = {rid: dict(co_view_recommend(events, rid, 10**9)) for rid in records}
    elapsed = time.perf_counter() - start

    assert skipped == 0 and len(events) == 100_000
    assert top_views == naive_top_k(events, "view", 10)
    assert top_downloads == naive_top_k(events, "download", 10, (1_000_000, 9_000_000))
    for rid in records[::5]:  # brute-force co-view oracle on a spread of targets
        assert co_view_recommend(events, rid, 25) == naive_co_view(events, rid, 25)
    for a in records:
        for b in records:
            if a != b:
                assert strengths[a].get(b, 0) == strengths[b].get(a, 0)
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _report(6, f"top-k and co-view match oracles; symmetry on {len(records)} records in {elapsed:.2f} s")


def test_criterion_7_alert_semantics():
    """Exactly-once and completeness hold in 100% of 1000 randomized trials."""
    for seed in range(1000):
        run_interleaving_trial(random.Random(seed))
    _report(7, "1000/1000 interleaving trials satisfy exactly-once and completeness")


CORPUS = DATA_DIR / "corpus"

# hand-drawn adjacency of the shipped fixture corpus (citing -> cited)
CORPUS_EDGES = {
    ("r01", "r02"), ("r01", "r03"), ("r02", "r03"), ("r02", "r08"),
    ("r03", "r01"), ("r04", "r01"), ("r04", "r06"), ("r05", "r01"),
    ("r05", "r02"), ("r05", "r04"), ("r06", "r07"),
}


def _run_pipeline(store: Path, out_dir: Path, workspace: Path) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    base = ["--store-dir", str(store)]
    reports = {}

    def cmd(name: str, *argv: str) -> None:
        out = out_dir / f"{name}.tsv"
        assert dispatch([*argv, *base, "--out", str(out)]) == 0, name
        reports[name] = out

    cmd("ingest", "ingest", str(CORPUS / "records.rec"))
    if not (store / "ft").exists():
        shutil.copytree(CORPUS / "ft", store / "ft")
    cmd("keywords", "keywords", "--taxonomy", str(DATA_DIR / "taxonomy20.tax"))
    cmd("refextract", "refextract")
    cmd("counts", "citegraph")
    cmd("rank", "citegraph", "--rank")
    cmd("edges", "citegraph", "--edges")
    cmd("top_view", "usage", "top", "--action", "view", "-k", "10",
        "--log-path", str(CORPUS / "usage.log"))
    cmd("top_download", "usage", "top", "--action", "download", "-k", "10",
        "--log-path", str(CORPUS / "usage.log"))
    cmd("recommend", "usage", "recommend", "r01", "-k", "10",
        "--log-path", str(CORPUS / "usage.log"))
    cmd("bibtex", "export", "bibtex", *(f"r{i:02d}" for i in range(1, 9)))
    return reports


def test_criterion_8_end_to_end_determinism(tmp_path):
    """The full CLI pipeline run twice produces byte-identical reports."""
    store = tmp_path / "store"
    first = _run_pipeline(store, tmp_path / "out1", tmp_path)
    second = _run_pipeline(store, tmp_path / "out2", tmp_path)
    for name, path in first.items():
        assert path.read_bytes() == second[name].read_bytes(), name

    # the pipeline reports are not just stable, they match the module oracles
    edges = set(
        tuple(line.split("\t")) for line in first["edges"].read_text(encoding="utf-8").splitlines()
    )
    assert edges == CORPUS_EDGES
    oracle = dense_link_rank(
        {f"r{i:02d}" for i in range(1, 9)}, CORPUS_EDGES, damping=0.85
    )
    rank_rows = dict(
        line.split("\t") for line in first["rank"].read_text(encoding="utf-8").splitlines()
    )
    assert set(rank_rows) == set(oracle)
    for record_id, value in rank_rows.items():
        assert float(value) == pytest.approx(oracle[record_id], abs=1e-8)
    _report(8, f"{len(first)} reports byte-identical across runs; rank matches the dense oracle")
