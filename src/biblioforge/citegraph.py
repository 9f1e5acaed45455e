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
from typing import Iterable

from .errors import NonConvergence, UnknownNode
from .records import BibRecord, sorted_records

logger = logging.getLogger(__name__)


@dataclass
class CitationGraph:
    """Directed citation edges (citing -> cited) over stored records."""

    nodes: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)
    unresolved: int = 0


def build_graph(store: Iterable[BibRecord]) -> CitationGraph:
    """Resolve stored references into a citation graph.

    Each citation entry resolves, first match wins, by exact report number,
    else by exact (journal, volume, page) triple; otherwise it counts as
    unresolved.  Duplicate citations of one target collapse to a single
    edge and self-citations never become edges.
    """
    records = sorted_records(store, keywords=False)
    graph = CitationGraph(nodes={r.record_id for r in records})

    by_report: dict[str, str] = {}
    by_triple: dict[tuple[str, str, str], str] = {}
    for record in records:  # sorted, so the smallest id wins collisions
        for rn in record.report_numbers:
            by_report.setdefault(rn, record.record_id)
        if record.journal and record.volume and record.page:
            by_triple.setdefault((record.journal, record.volume, record.page), record.record_id)

    for record in records:
        for entry in record.references:
            target = None
            for rn in entry.report_numbers:
                target = by_report.get(rn)
                if target is not None:
                    break
            if target is None and entry.journal and entry.volume and entry.page:
                target = by_triple.get((entry.journal, entry.volume, entry.page))
            if target is None:
                graph.unresolved += 1
            elif target != record.record_id:
                graph.edges.add((record.record_id, target))
    return graph


def citation_counts(graph: CitationGraph) -> dict[str, int]:
    """In-degree per node; nodes nothing cites appear with count 0."""
    counts = {node: 0 for node in graph.nodes}
    for _, cited in graph.edges:
        counts[cited] += 1
    return counts


def _citers(graph: CitationGraph, node: str) -> set[str]:
    return {citing for citing, cited in graph.edges if cited == node}


def cocitation(graph: CitationGraph, a: str, b: str) -> int:
    """Number of distinct records citing both a and b."""
    for node in (a, b):
        if node not in graph.nodes:
            raise UnknownNode(node)
    if a == b:
        raise ValueError("cocitation needs two distinct records")
    return len(_citers(graph, a) & _citers(graph, b))


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
    raises NonConvergence with the last scores attached.
    """
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    nodes = sorted(graph.nodes)
    n = len(nodes)
    if n == 0:
        return {}

    out_degree = {node: 0 for node in nodes}
    incoming: dict[str, list[str]] = {node: [] for node in nodes}
    for citing, cited in sorted(graph.edges):
        out_degree[citing] += 1
        incoming[cited].append(citing)

    rank = {node: 1.0 / n for node in nodes}
    for iteration in range(1, max_iters + 1):
        dangling = sum(rank[node] for node in nodes if out_degree[node] == 0)
        base = (1.0 - damping) / n + damping * dangling / n
        new_rank = {}
        for node in nodes:
            inflow = sum(rank[u] / out_degree[u] for u in incoming[node])
            new_rank[node] = base + damping * inflow
        delta = sum(abs(new_rank[node] - rank[node]) for node in nodes)
        rank = new_rank
        if delta < tolerance:
            return rank
    raise NonConvergence(max_iters, rank)


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
