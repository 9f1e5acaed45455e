"""Record-to-record citation graph and bibliometric scores.

The graph is built by resolving each parsed citation entry against the
stored records: report numbers first (globally unique identifiers), then
the (journal, volume, page) triple.  Analytics on a built graph are
read-only and thread-safe; rank iteration uses a fixed node ordering so
results are bitwise reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Container, Iterable

from .errors import NonConvergence, UnknownNode
from .records import BibRecord

logger = logging.getLogger(__name__)


@dataclass
class CitationGraph:
    """Directed citation edges (citing -> cited) over stored records."""

    nodes: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)
    unresolved: int = 0


def build_graph(records: Iterable[BibRecord]) -> CitationGraph:
    """Resolve stored references into a citation graph, in one pass over ``records``.

    Each citation entry resolves, first match wins, by exact report number,
    else by exact (journal, volume, page) triple; otherwise it counts as
    unresolved.  When records share a report number or a triple, the
    smallest record id takes it, whatever the input order.  Duplicate
    citations of one target collapse to a single edge and self-citations
    never become edges.

    No record is kept.  The pass keeps the ids, the two resolution indexes
    and, per citation, only its keys (its report numbers in order, then its
    triple): each distinct key tuple once, with the ids citing by it.  The
    keys are resolved after the pass, so memory grows with the records and
    the distinct citation keys, not with the reference text.
    """
    graph = CitationGraph()
    by_report: dict[str, str] = {}
    by_triple: dict[tuple[str, str, str], str] = {}
    # (report numbers in order, triple or None) -> the citing id of each entry with those keys
    citers: dict[tuple[tuple[str, ...], tuple[str, str, str] | None], list[str]] = {}
    for record in records:
        record_id = record.record_id
        graph.nodes.add(record_id)
        for rn in record.report_numbers:
            if by_report.setdefault(rn, record_id) > record_id:
                by_report[rn] = record_id
        if record.journal and record.volume and record.page:
            triple = (record.journal, record.volume, record.page)
            if by_triple.setdefault(triple, record_id) > record_id:
                by_triple[triple] = record_id
        for entry in record.references:
            report_numbers = tuple(entry.report_numbers)
            triple = None
            if entry.journal and entry.volume and entry.page:
                triple = (entry.journal, entry.volume, entry.page)
            if report_numbers or triple:
                citers.setdefault((report_numbers, triple), []).append(record_id)
            else:
                graph.unresolved += 1

    for (report_numbers, triple), citing_ids in citers.items():
        target = next((by_report[rn] for rn in report_numbers if rn in by_report), None)
        if target is None and triple:
            target = by_triple.get(triple)
        if target is None:
            graph.unresolved += len(citing_ids)
        else:
            graph.edges.update((citing, target) for citing in citing_ids if citing != target)
    return graph


def _check_nodes(nodes: Container[str], *ends: str) -> None:
    for node in ends:
        if node not in nodes:
            raise UnknownNode(node)


def citation_counts(graph: CitationGraph) -> dict[str, int]:
    """In-degree per node; nodes nothing cites appear with count 0.

    UnknownNode when an edge names a record that is not a node.
    """
    counts = {node: 0 for node in graph.nodes}
    for citing, cited in graph.edges:
        _check_nodes(counts, citing, cited)
        counts[cited] += 1
    return counts


def _citers(graph: CitationGraph, node: str) -> set[str]:
    return {citing for citing, cited in graph.edges if cited == node}


def cocitation(graph: CitationGraph, a: str, b: str) -> int:
    """Number of distinct records citing both a and b."""
    _check_nodes(graph.nodes, a, b)
    if a == b:
        raise ValueError("cocitation needs two distinct records")
    return len(_citers(graph, a) & _citers(graph, b))


def check_rank_settings(damping: float, tolerance: float, max_iters: int) -> None:
    """Raise ValueError unless ``link_rank`` and ``Config`` can take these rank settings."""
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    if not 0 < tolerance < float("inf"):  # NaN fails this too
        raise ValueError("rank_tolerance must be positive and finite")
    if max_iters < 1:
        raise ValueError("rank_max_iters must be >= 1")


def link_rank(
    graph: CitationGraph,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iters: int = 1000,
) -> dict[str, float]:
    """Damped power-iteration rank over the citation graph.

    Rank flows along edges from citing to cited records; dangling nodes
    redistribute their mass uniformly.  Iteration stops when the L1 change
    drops below ``tolerance``; the scores sum to 1.  Hitting ``max_iters``
    raises NonConvergence with the last scores attached; an edge naming a
    record that is not a node raises UnknownNode.
    """
    check_rank_settings(damping, tolerance, max_iters)

    nodes = sorted(graph.nodes)
    n = len(nodes)
    if n == 0:
        return {}

    # Nodes by their index in sorted order, each node's citers in sorted edge
    # order: every sum runs in a fixed order, so the scores are reproducible.
    index = {node: i for i, node in enumerate(nodes)}
    out_degree = [0] * n
    incoming: list[list[int]] = [[] for _ in nodes]
    for citing, cited in sorted(graph.edges):
        _check_nodes(index, citing, cited)
        out_degree[index[citing]] += 1
        incoming[index[cited]].append(index[citing])
    dangling_nodes = [i for i in range(n) if out_degree[i] == 0]

    rank = [1.0 / n] * n
    for _ in range(max_iters):
        dangling = sum(rank[i] for i in dangling_nodes)
        base = (1.0 - damping) / n + damping * dangling / n
        share = [r / d if d else 0.0 for r, d in zip(rank, out_degree)]
        new_rank = [base + damping * sum([share[u] for u in citers]) for citers in incoming]
        delta = sum(abs(new - old) for new, old in zip(new_rank, rank))
        rank = new_rank
        if delta < tolerance:
            return dict(zip(nodes, rank))
    raise NonConvergence(max_iters, dict(zip(nodes, rank)))


def edges_tsv(graph: CitationGraph) -> str:
    """Edge list as ``citing<TAB>cited`` rows, sorted."""
    return "".join(f"{citing}\t{cited}\n" for citing, cited in sorted(graph.edges))


def report_tsv(values: dict[str, float] | dict[str, int]) -> str:
    """``record_id<TAB>value`` rows sorted by value descending, id ascending."""
    rows = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    out = []
    for record_id, value in rows:
        text = str(value) if isinstance(value, int) else format(value, ".12g")
        out.append(f"{record_id}\t{text}\n")
    return "".join(out)
