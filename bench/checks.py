"""Checks of the pipeline's outputs against results computed apart from it.

Each check takes the program's output (a report file's text, the
notification directory, the clusters) and what the generator planted, and
returns a list of problems; an empty list means the output is right.  The
expected values come from the generator's own bookkeeping, from plain
counts over the regenerated usage log, from the brute-force keyword scan
in ``tests/oracles.py`` and from a power iteration and a grouping written
here, never from the code under test.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from pathlib import Path

from inputs import Inputs, log_lines

RANK_TOLERANCE = 1e-8


def _rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines() if line]


def planted_edges(inputs: Inputs, present: set[str]) -> set[tuple[str, str]]:
    """Citations the generator planted among present records, self-citations dropped."""
    return {
        (rec.record_id, cited)
        for rec in inputs.records
        if rec.record_id in present
        for cited in rec.citations
        if cited != rec.record_id and cited in present
    }


def check_ingest(text: str, expected: int) -> list[str]:
    return [] if text == f"ingested\t{expected}\n" else [f"ingest reported {text!r}, expected {expected}"]


def check_refextract(text: str, expected: dict[str, int]) -> list[str]:
    got = {row[0]: int(row[1]) for row in _rows(text)}
    if got == expected:
        return []
    wrong = sorted(k for k in expected.keys() | got.keys() if got.get(k) != expected.get(k))
    return [f"refextract entry counts differ for {len(wrong)} records, e.g. {wrong[:3]}"]


def check_keywords(
    text: str, sample: dict[str, str], taxonomy, tracers: dict[str, tuple[str, int]], naive_scan
) -> list[str]:
    """Sampled documents equal the brute-force scan; planted tracer terms are found.

    ``sample`` maps record id to full text; ``tracers`` maps record id to the
    tracer label and its planted occurrence count.
    """
    rows: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
    for rid, label, occurrence, counts in _rows(text):
        rows[rid].append((label, occurrence, counts))
    problems = []
    for rid, fulltext in sample.items():
        expected = [
            (
                ka.display_label,
                str(ka.occurrence),
                ",".join(str(c) for c in ka.component_counts) if ka.component_counts else "",
            )
            for ka in naive_scan(fulltext, taxonomy, 10)
        ]
        if rows.get(rid, []) != expected:
            problems.append(f"keywords of {rid} differ from the brute-force scan")
    for rid, (label, count) in tracers.items():
        if (label, str(count), "") not in rows.get(rid, []):
            problems.append(f"tracer term {label} x{count} missing from keywords of {rid}")
    return problems


def check_counts(text: str, edges: set[tuple[str, str]], present: set[str]) -> list[str]:
    indegree = Counter(cited for _, cited in edges)
    expected = sorted(((rid, indegree[rid]) for rid in present), key=lambda kv: (-kv[1], kv[0]))
    got = [(rid, int(value)) for rid, value in _rows(text)]
    return [] if got == expected else ["citation counts differ from the in-degrees of the planted edges"]


def check_edges(text: str, edges: set[tuple[str, str]]) -> list[str]:
    got = [tuple(row) for row in _rows(text)]
    if got == sorted(edges):
        return []
    missing = len(edges - set(got))
    extra = len(set(got) - edges)
    return [f"edge list: {missing} planted edges missing, {extra} extra (of {len(edges)})"]


def power_iteration(nodes: set[str], edges: set[tuple[str, str]], damping: float = 0.85) -> dict[str, float]:
    """Damped rank with dangling mass spread uniformly, iterated to 1e-14 in L1."""
    order = sorted(nodes)
    index = {node: i for i, node in enumerate(order)}
    n = len(order)
    out_degree = [0] * n
    cited_by: list[list[int]] = [[] for _ in range(n)]
    for citing, cited in edges:
        out_degree[index[citing]] += 1
        cited_by[index[cited]].append(index[citing])
    rank = [1.0 / n] * n
    for _ in range(10_000):
        dangling = sum(r for r, d in zip(rank, out_degree) if d == 0)
        base = (1 - damping) / n + damping * dangling / n
        new = [base + damping * sum(rank[u] / out_degree[u] for u in cited_by[v]) for v in range(n)]
        delta = sum(abs(a - b) for a, b in zip(new, rank))
        rank = new
        if delta < 1e-14:
            break
    return {node: rank[index[node]] for node in order}


def check_rank(text: str, nodes: set[str], edges: set[tuple[str, str]]) -> list[str]:
    got = {rid: float(value) for rid, value in _rows(text)}
    problems = []
    if abs(sum(got.values()) - 1.0) > RANK_TOLERANCE:
        problems.append(f"link rank sums to {sum(got.values())!r}")
    expected = power_iteration(nodes, edges)
    if got.keys() != expected.keys():
        problems.append("link rank covers other records than the store")
    else:
        worst = max((abs(got[k] - expected[k]) for k in expected), default=0.0)
        if worst > RANK_TOLERANCE:
            problems.append(f"link rank off by {worst:.3g} from the power iteration")
    return problems


class UsageTruth:
    """Plain counts over the regenerated usage log."""

    def __init__(self, inputs: Inputs):
        self.views: Counter[str] = Counter()
        self.windowed_downloads: Counter[str] = Counter()
        self.viewers: dict[str, set[str]] = defaultdict(set)
        lo, hi = inputs.window
        for line in log_lines(inputs):
            ts, visitor, rid, action = line.rstrip("\n").split("\t")
            if action == "view":
                self.views[rid] += 1
                self.viewers[rid].add(visitor)
            elif lo <= int(ts) <= hi:
                self.windowed_downloads[rid] += 1

    @staticmethod
    def _top(counts: Counter[str], k: int) -> list[tuple[str, int]]:
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def top_views(self, k: int) -> list[tuple[str, int]]:
        return self._top(self.views, k)

    def top_downloads(self, k: int) -> list[tuple[str, int]]:
        return self._top(self.windowed_downloads, k)

    def co_views(self, target: str, k: int) -> list[tuple[str, int]]:
        mine = self.viewers[target]
        shared = Counter({rid: len(mine & who) for rid, who in self.viewers.items() if rid != target})
        return self._top(+shared, k)


def check_ranking(text: str, expected: list[tuple[str, int]], what: str) -> list[str]:
    got = [(rid, int(value)) for rid, value in _rows(text)]
    return [] if got == expected else [f"{what} differs from plain counts over the log"]


def read_notifications(root: Path) -> dict[tuple[str, str], list[tuple[str, str]]]:
    """(alert id, record id) -> [(batch clock, title)] over every batch directory."""
    seen: dict[tuple[str, str], list[tuple[str, str]]] = defaultdict(list)
    if root.is_dir():
        for path in sorted(root.glob("*/*.tsv")):
            for rid, title in _rows(path.read_text(encoding="utf-8")):
                seen[(path.stem, rid)].append((path.parent.name, title))
    return seen


def check_deliveries(
    seen: dict[tuple[str, str], list[tuple[str, str]]],
    expected: dict[tuple[str, str], tuple[str, str]],
) -> tuple[dict[tuple[str, str], str | None], list[str]]:
    """Exactly-once delivery of every planted match, and of nothing else.

    ``expected`` maps (alert id, record id) to (batch clock, title).  Returns
    a verdict per expected delivery (None when it arrived exactly once, in the
    right batch) and the problems with deliveries nobody expected.
    """
    verdicts: dict[tuple[str, str], str | None] = {}
    for key, (clock, title) in expected.items():
        got = seen.get(key, [])
        if not got:
            verdicts[key] = "never delivered"
        elif len(got) > 1:
            verdicts[key] = f"delivered {len(got)} times"
        elif got[0] != (clock, title):
            verdicts[key] = f"delivered as {got[0]}, expected {(clock, title)}"
        else:
            verdicts[key] = None
    extra = [f"unexpected delivery {key}" for key in seen if key not in expected]
    return verdicts, extra


def independent_clusters(term_sets: dict[str, set[str]], threshold: float) -> list[list[str]]:
    """Connected components of the Jaccard >= threshold graph, via an inverted index."""
    by_term: dict[str, list[str]] = defaultdict(list)
    for rid, terms in term_sets.items():
        for term in terms:
            by_term[term].append(rid)
    neighbours: dict[str, set[str]] = defaultdict(set)
    for members in by_term.values():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if b in neighbours[a]:
                    continue
                sa, sb = term_sets[a], term_sets[b]
                if len(sa & sb) / len(sa | sb) >= threshold:
                    neighbours[a].add(b)
                    neighbours[b].add(a)
    seen: set[str] = set()
    clusters = []
    for rid in sorted(term_sets):
        if rid in seen:
            continue
        component, frontier = [], [rid]
        seen.add(rid)
        while frontier:
            node = frontier.pop()
            component.append(node)
            for other in neighbours[node] - seen:
                seen.add(other)
                frontier.append(other)
        clusters.append(sorted(component))
    return sorted(clusters)


def check_clusters(got: list[list[str]], term_sets: dict[str, set[str]], threshold: float) -> list[str]:
    expected = independent_clusters(term_sets, threshold)
    return [] if got == expected else [f"{len(got)} clusters, the independent grouping has {len(expected)}"]
