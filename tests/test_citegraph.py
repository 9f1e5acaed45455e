"""Tests for citation graph building, counts, co-citation and link rank."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biblioforge import (
    BibRecord,
    CitationEntry,
    CitationGraph,
    NonConvergence,
    UnknownNode,
    build_graph,
    citation_counts,
    cocitation,
    link_rank,
)
from biblioforge.citegraph import edges_tsv, report_tsv

from .conftest import GRAPH_FIXTURE_COUNTS, GRAPH_FIXTURE_EDGES, graph_fixture_records
from .oracles import dense_link_rank


class TestBuildGraph:
    def test_report_number_resolution(self):
        r1 = BibRecord("r1", "Cited", report_numbers=["AAA-1"])
        r2 = BibRecord("r2", "Citing")
        r2.references = [CitationEntry(raw="x", report_numbers=["AAA-1"])]
        graph = build_graph([r1, r2])
        assert graph.edges == {("r2", "r1")}
        assert graph.unresolved == 0

    def test_unknown_report_number_unresolved(self):
        r1 = BibRecord("r1", "Cited", report_numbers=["AAA-1"])
        r2 = BibRecord("r2", "Citing")
        r2.references = [CitationEntry(raw="x", report_numbers=["BBB-9"])]
        graph = build_graph([r1, r2])
        assert graph.edges == set()
        assert graph.unresolved == 1

    def test_hand_drawn_fixture(self):
        records = graph_fixture_records()
        graph = build_graph(records)
        assert graph.nodes == {r.record_id for r in records}
        assert graph.edges == GRAPH_FIXTURE_EDGES
        assert graph.unresolved == 3
        assert citation_counts(graph) == GRAPH_FIXTURE_COUNTS

    def test_report_number_beats_journal_triple(self):
        r1 = BibRecord("r1", "By report", report_numbers=["AAA-1"])
        r2 = BibRecord("r2", "By triple", journal="New Sci.", volume="1", page="2")
        r3 = BibRecord("r3", "Citing")
        r3.references = [
            CitationEntry(
                raw="x",
                report_numbers=["AAA-1"],
                journal="New Sci.",
                volume="1",
                page="2",
            )
        ]
        graph = build_graph([r1, r2, r3])
        assert graph.edges == {("r3", "r1")}

    def test_duplicate_citations_collapse(self):
        r1 = BibRecord("r1", "Cited", report_numbers=["AAA-1"])
        r2 = BibRecord("r2", "Citing")
        r2.references = [
            CitationEntry(raw="x", report_numbers=["AAA-1"]),
            CitationEntry(raw="y", report_numbers=["AAA-1"]),
        ]
        graph = build_graph([r1, r2])
        assert graph.edges == {("r2", "r1")}
        assert graph.unresolved == 0

    def test_self_citation_never_edges(self):
        r1 = BibRecord("r1", "Self", report_numbers=["AAA-1"])
        r1.references = [CitationEntry(raw="x", report_numbers=["AAA-1"])]
        graph = build_graph([r1])
        assert graph.edges == set()
        assert graph.unresolved == 0

    def test_deterministic(self):
        first = build_graph(graph_fixture_records())
        second = build_graph(graph_fixture_records())
        assert first.edges == second.edges
        assert first.unresolved == second.unresolved


class TestCitationCounts:
    def test_empty_graph(self):
        graph = CitationGraph(nodes={"a", "b", "c"})
        assert citation_counts(graph) == {"a": 0, "b": 0, "c": 0}

    def test_star_graph(self):
        edges = {(f"leaf{i}", "center") for i in range(4)}
        nodes = {"center"} | {f"leaf{i}" for i in range(4)}
        counts = citation_counts(CitationGraph(nodes=nodes, edges=edges))
        assert counts["center"] == 4
        assert all(counts[f"leaf{i}"] == 0 for i in range(4))

    @given(st.integers(min_value=1, max_value=50), st.randoms())
    @settings(max_examples=80)
    def test_counts_sum_to_edge_count(self, n, rng):
        nodes = {f"n{i}" for i in range(n)}
        pool = [(a, b) for a in nodes for b in nodes if a != b]
        edges = set(rng.sample(pool, min(len(pool), rng.randint(0, 3 * n))))
        graph = CitationGraph(nodes=nodes, edges=edges)
        assert sum(citation_counts(graph).values()) == len(edges)

    def test_adding_edge_never_decreases_count(self):
        nodes = {"a", "b", "c"}
        edges = {("a", "b")}
        before = citation_counts(CitationGraph(nodes=nodes, edges=set(edges)))
        after = citation_counts(CitationGraph(nodes=nodes, edges=edges | {("c", "b")}))
        assert all(after[n] >= before[n] for n in nodes)


class TestCocitation:
    def test_no_common_citer(self):
        graph = CitationGraph(nodes={"a", "b", "x"}, edges={("x", "a")})
        assert cocitation(graph, "a", "b") == 0

    def test_three_common_citers(self):
        # brute-force intersection of citer sets: c1, c2, c3 cite both
        edges = set()
        for citer in ("c1", "c2", "c3"):
            edges.add((citer, "a"))
            edges.add((citer, "b"))
        edges.add(("c4", "a"))
        graph = CitationGraph(nodes={"a", "b", "c1", "c2", "c3", "c4"}, edges=edges)
        assert cocitation(graph, "a", "b") == 3

    def test_symmetry_on_fixture(self):
        graph = build_graph(graph_fixture_records())
        nodes = sorted(graph.nodes)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                assert cocitation(graph, a, b) == cocitation(graph, b, a)

    def test_bounded_by_min_indegree(self):
        graph = build_graph(graph_fixture_records())
        counts = citation_counts(graph)
        nodes = sorted(graph.nodes)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                assert cocitation(graph, a, b) <= min(counts[a], counts[b])

    def test_unknown_node(self):
        graph = CitationGraph(nodes={"a"})
        with pytest.raises(UnknownNode):
            cocitation(graph, "a", "zzz")

    def test_same_node_rejected(self):
        graph = CitationGraph(nodes={"a", "b"})
        with pytest.raises(ValueError):
            cocitation(graph, "a", "a")


def _random_graph(rng: random.Random, max_nodes: int) -> CitationGraph:
    n = rng.randint(1, max_nodes)
    nodes = {f"n{i}" for i in range(n)}
    pool = [(a, b) for a in sorted(nodes) for b in sorted(nodes) if a != b]
    edges = set(rng.sample(pool, min(len(pool), rng.randint(0, 2 * n))))
    return CitationGraph(nodes=nodes, edges=edges)


class TestLinkRank:
    def test_single_node(self):
        graph = CitationGraph(nodes={"only"})
        assert link_rank(graph) == {"only": pytest.approx(1.0, abs=1e-9)}

    def test_symmetric_two_cycle(self):
        graph = CitationGraph(nodes={"a", "b"}, edges={("a", "b"), ("b", "a")})
        scores = link_rank(graph, damping=0.85, tolerance=1e-12)
        assert scores["a"] == pytest.approx(0.5, abs=1e-9)
        assert scores["b"] == pytest.approx(0.5, abs=1e-9)

    def test_five_node_fixture_matches_dense_oracle(self):
        nodes = {"a", "b", "c", "d", "e"}
        edges = {("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("d", "c")}
        graph = CitationGraph(nodes=nodes, edges=edges)
        scores = link_rank(graph, damping=0.85, tolerance=1e-10)
        oracle = dense_link_rank(nodes, edges, damping=0.85)
        for node in nodes:
            assert scores[node] == pytest.approx(oracle[node], abs=1e-8)

    def test_scores_sum_to_one_and_positive(self):
        rng = random.Random(42)
        for _ in range(25):
            graph = _random_graph(rng, 20)
            scores = link_rank(graph, damping=0.85, tolerance=1e-12)
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v > 0 for v in scores.values())

    def test_empty_graph(self):
        assert link_rank(CitationGraph()) == {}

    def test_non_convergence_carries_scores(self):
        graph = CitationGraph(nodes={"a", "b"}, edges={("a", "b")})
        with pytest.raises(NonConvergence) as exc:
            link_rank(graph, damping=0.85, tolerance=1e-15, max_iters=2)
        assert exc.value.iterations == 2
        assert set(exc.value.scores) == {"a", "b"}

    def test_parameter_validation(self):
        graph = CitationGraph(nodes={"a"})
        with pytest.raises(ValueError):
            link_rank(graph, damping=1.0)
        with pytest.raises(ValueError):
            link_rank(graph, tolerance=0.0)
        with pytest.raises(ValueError):
            link_rank(graph, max_iters=0)

    def test_bitwise_deterministic(self):
        rng = random.Random(7)
        graph = _random_graph(rng, 15)
        assert link_rank(graph) == link_rank(graph)


class TestReports:
    def test_edges_tsv_sorted(self):
        graph = CitationGraph(nodes={"a", "b", "c"}, edges={("c", "a"), ("b", "a")})
        assert edges_tsv(graph) == "b\ta\nc\ta\n"

    def test_report_tsv_value_then_id(self):
        assert report_tsv({"r2": 5, "r1": 5, "r3": 9}) == "r3\t9\nr1\t5\nr2\t5\n"
