"""Independent reference implementations used to check the real ones.

Everything here is deliberately naive: brute-force scans, dense matrices,
full sorts.  Keep these free of imports from the code paths they verify,
beyond the data types they need to read.
"""

from __future__ import annotations

import codecs
import logging
import re
from collections import defaultdict
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from biblioforge.alerts import Notification, serialize_subscription
from biblioforge.citegraph import CitationGraph
from biblioforge.config import Config
from biblioforge.errors import MalformedLine, MissingField
from biblioforge.fields import line_blocks, reading
from biblioforge.records import match_query
from biblioforge.taxonomy import (
    SENTENCE_BOUNDARY,
    KeywordAssignment,
    Taxonomy,
    TaxonomyTerm,
    expanded_term_ids,
    stem,
)

_NAIVE_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*|[.!?]")


def naive_tokenize(text: str) -> list[str]:
    """One regex match at a time: lowercase words, a sentinel per sentence break.

    A period, question mark or exclamation mark is a sentence break when
    the next character is whitespace or the text ends there.
    """
    tokens: list[str] = []
    for m in _NAIVE_TOKEN_RE.finditer(text):
        tok = m.group(0)
        if tok in (".", "!", "?"):
            end = m.end()
            if end >= len(text) or text[end].isspace():
                tokens.append(SENTENCE_BOUNDARY)
        else:
            tokens.append(tok.lower())
    return tokens


def naive_find_journal(text: str, kb):
    """Every start (0 and after each comma) re-tokenized, every prefix normalized.

    Returns (canonical title, end offset) of the longest alias among the
    first eight tokens at the first start that has one, or None.
    """

    def normalize(alias: str) -> str:
        return " ".join(alias.upper().replace(".", "").replace("&", " ").split())

    starts = [0] + [m.end() for m in re.finditer(",", text)]
    for start in starts:
        tokens = list(re.finditer(r"\S+", text[start:]))
        if not tokens:
            continue
        first = tokens[0].start()
        hit = None
        for tok in tokens[:8]:
            prefix = text[start + first:start + tok.end()]
            canonical = kb.alias_index.get(normalize(prefix))
            if canonical is not None:
                hit = (canonical, start + tok.end())
        if hit is not None:
            return hit
    return None


def naive_keyword_scan(text: str, taxonomy, max_results: int = 10):
    """O(tokens x labels) keyword scan: per sentence, greedy longest match.

    Re-derives single-term counts and sentence co-occurrence for composites
    without the candidate index used by the real implementation.
    """
    tokens = [t if t == SENTENCE_BOUNDARY else stem(t) for t in naive_tokenize(text)]
    sentences: list[list[str]] = [[]]
    for tok in tokens:
        if tok == SENTENCE_BOUNDARY:
            sentences.append([])
        else:
            sentences[-1].append(tok)

    phrases = []  # (stemmed tuple, term_id) over every label of every basic term
    for term in taxonomy.terms.values():
        if term.is_composite:
            continue
        for label in term.labels():
            stems = tuple(
                stem(t) for t in naive_tokenize(label) if t != SENTENCE_BOUNDARY
            )
            phrases.append((stems, term.term_id))

    counts: dict[str, int] = defaultdict(int)
    per_sentence_terms: list[set[str]] = []
    for sentence in sentences:
        found: set[str] = set()
        i = 0
        while i < len(sentence):
            best = None
            for stems, term_id in phrases:
                n = len(stems)
                if tuple(sentence[i:i + n]) == stems:
                    if best is None or n > best[1]:
                        best = (term_id, n)
            if best is not None:
                counts[best[0]] += 1
                found.add(best[0])
                i += best[1]
            else:
                i += 1
        per_sentence_terms.append(found)

    results = []
    for term_id, count in counts.items():
        results.append(KeywordAssignment(term_id, taxonomy.terms[term_id].pref_label, count))
    for term in taxonomy.terms.values():
        if not term.is_composite:
            continue
        a, b = term.composite_of
        co = sum(1 for found in per_sentence_terms if a in found and b in found)
        if co:
            results.append(
                KeywordAssignment(
                    term.term_id,
                    term.pref_label,
                    co,
                    component_counts=(counts[a], counts[b]),
                    components=(a, b),
                )
            )
    results.sort(key=lambda ka: (-ka.occurrence, ka.display_label))
    return results[:max_results]


def naive_build_graph(records):
    """All records sorted and held, then every citation resolved against them.

    Resolution indexes are filled in id order with ``setdefault``, so the
    smallest id wins a shared report number or triple.
    """
    records = sorted(records, key=lambda r: r.record_id)
    graph = CitationGraph(nodes={r.record_id for r in records})

    by_report = {}
    by_triple = {}
    for record in records:
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


def naive_alert_batch(records, subscriptions, now):
    """Every subscription scans every held record: (notifications, writes).

    Advances each subscription's watermark to ``now``, never backwards.
    ``writes`` lists, in order, each file a batch with a notification
    directory and an alert store writes, as (``notifications/<now>/<alert_id>.tsv``
    or ``alerts/<alert_id>.alert``, text): per subscription in the given
    order, its notification if it has one, then the subscription.
    """
    records = list(records)
    titles = {r.record_id: r.title.replace("\t", " ") for r in records}
    notifications = []
    writes = []
    for sub in subscriptions:
        matching = sorted(
            r.record_id
            for r in records
            if r.ingest_time is not None
            and sub.last_run < r.ingest_time <= now
            and match_query(sub.query, r)
        )
        if matching:
            notifications.append(Notification(sub.alert_id, tuple(matching)))
            rows = "".join(f"{rid}\t{titles[rid]}\n" for rid in matching)
            writes.append((f"notifications/{now}/{sub.alert_id}.tsv", rows))
        sub.last_run = max(sub.last_run, now)
        writes.append((f"alerts/{sub.alert_id}.alert", serialize_subscription(sub)))
    notifications.sort(key=lambda n: n.alert_id)
    return notifications, writes


def naive_link_rank(graph, damping, tolerance, max_iters):
    """The rank iteration over dicts keyed by record id, as sums in node order.

    Same arithmetic in the same order as ``link_rank``, so the scores must
    be equal as floats.  Returns (scores, whether the iteration converged).
    """
    nodes = sorted(graph.nodes)
    n = len(nodes)
    out_degree = {node: 0 for node in nodes}
    incoming = {node: [] for node in nodes}
    for citing, cited in sorted(graph.edges):
        out_degree[citing] += 1
        incoming[cited].append(citing)
    rank = {node: 1.0 / n for node in nodes}
    for _ in range(max_iters):
        dangling = sum(rank[node] for node in nodes if out_degree[node] == 0)
        base = (1.0 - damping) / n + damping * dangling / n
        new_rank = {}
        for node in nodes:
            inflow = sum(rank[u] / out_degree[u] for u in incoming[node])
            new_rank[node] = base + damping * inflow
        delta = sum(abs(new_rank[node] - rank[node]) for node in nodes)
        rank = new_rank
        if delta < tolerance:
            return rank, True
    return rank, False


def dense_link_rank(nodes, edges, damping, tolerance=1e-14, max_iters=100000):
    """Dense-matrix power iteration over the full Google matrix."""
    order = sorted(nodes)
    index = {node: i for i, node in enumerate(order)}
    n = len(order)
    if n == 0:
        return {}
    transition = np.zeros((n, n))
    out_degree = np.zeros(n)
    for citing, cited in edges:
        out_degree[index[citing]] += 1
    for citing, cited in edges:
        i, j = index[citing], index[cited]
        transition[j, i] = 1.0 / out_degree[i]
    for i in range(n):
        if out_degree[i] == 0:
            transition[:, i] = 1.0 / n
    google = damping * transition + (1.0 - damping) / n * np.ones((n, n))
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        new_rank = google @ rank
        if np.abs(new_rank - rank).sum() < tolerance:
            rank = new_rank
            break
        rank = new_rank
    return {node: float(rank[index[node]]) for node in order}


def naive_top_k(events, action, k, window=None):
    """Full count over all events, full sort, then truncate."""
    counts: dict[str, int] = {}
    for e in events:
        if e.action != action:
            continue
        if window is not None:
            start, end = window
            if start is not None and e.timestamp < start:
                continue
            if end is not None and e.timestamp > end:
                continue
        counts[e.record_id] = counts.get(e.record_id, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def naive_read_log(path):
    """The whole-file log reader: (events as 4-tuples, skipped count).

    Decodes the whole file as text; when that fails, decodes it line by
    line and counts each line that is not valid UTF-8 as skipped.  Blank
    lines are ignored; every other line is checked field by field.
    """
    path = Path(path)
    undecodable = 0
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()  # less a leading BOM
    except UnicodeDecodeError:
        lines = []
        for raw in path.read_bytes().removeprefix(codecs.BOM_UTF8).splitlines():
            try:
                lines.extend(raw.decode("utf-8").splitlines())
            except UnicodeDecodeError:
                undecodable += 1
    events = []
    skipped = undecodable
    for line in lines:
        if not line.strip():
            continue
        parts = line.rstrip().split("\t")
        if len(parts) != 4:
            skipped += 1
            continue
        ts_text, visitor_id, record_id, action = parts
        try:
            timestamp = int(ts_text)
        except ValueError:
            skipped += 1
            continue
        if timestamp <= 0 or not visitor_id or not record_id or action not in ("view", "download"):
            skipped += 1
            continue
        events.append((timestamp, visitor_id, record_id, action))
    return events, skipped


def naive_co_view(events, target, k):
    """Iterate every visitor's view set and count those containing both."""
    viewed: dict[str, set[str]] = defaultdict(set)
    all_records = set()
    for e in events:
        all_records.add(e.record_id)
        if e.action == "view":
            viewed[e.visitor_id].add(e.record_id)
    strengths: dict[str, int] = defaultdict(int)
    for visitor_records in viewed.values():
        if target not in visitor_records:
            continue
        for rid in visitor_records:
            if rid != target:
                strengths[rid] += 1
    ranked = sorted(strengths.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def whitespace_punct_token_count(text: str) -> int:
    """Reference splitter: map non-word, non-hyphen chars to spaces, split."""
    cleaned = []
    for ch in text:
        if ch.isalnum() or ch == "-":
            cleaned.append(ch)
        else:
            cleaned.append(" ")
    return len("".join(cleaned).split())


def naive_cluster_documents(assignments, threshold):
    """Every pair of documents compared: Jaccard over expanded term-id sets.

    Documents join through pairs at or above ``threshold``, by union-find
    with the smaller id as root; two empty sets never join.  Clusters are
    sorted lists ordered by their smallest member id.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    ids = sorted(assignments)
    term_sets = {rid: expanded_term_ids(assignments[rid]) for rid in ids}

    parent = {rid: rid for rid in ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            sa, sb = term_sets[a], term_sets[b]
            union = len(sa | sb)
            if union == 0:
                continue
            if len(sa & sb) / union >= threshold:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    groups: dict[str, list[str]] = defaultdict(list)
    for rid in ids:
        groups[find(rid)].append(rid)
    clusters = [sorted(members) for members in groups.values()]
    clusters.sort(key=lambda c: c[0])
    return clusters


# The hand-written config and taxonomy loaders that fields.read_fields replaced,
# kept as they were but for their names (and the line splitter they shared).

logger = logging.getLogger(__name__)


def key_value_lines(lines: Iterable[str], first_line: int = 1) -> Iterator[tuple[int, str, str]]:
    """Yield ``(line_no, key, value)`` per non-blank line; MalformedLine if one has no ``:``."""
    for line_no, line in enumerate(lines, start=first_line):
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise MalformedLine("no key separator", line_no)
        yield line_no, key.strip(), value.strip()


# Config annotation (a string: annotations are postponed) -> parser; str for the rest
_PARSERS = {"Path": Path, "Path | None": Path, "float": float, "int": int}


def loop_load_config(path: str | Path) -> Config:
    """Parse a config file into a Config; unknown keys warn and are ignored."""
    values: dict[str, object] = {}
    patterns: list[str] = []
    # heading_patterns is set only by heading_pattern lines, so as a key it is unknown
    types = {f.name: f.type for f in fields(Config) if f.name != "heading_patterns"}
    with reading(path) as text:
        # a comment reads as a blank line, so later line numbers stay put
        lines = ("" if line.lstrip().startswith("#") else line for line in text.splitlines())
        for line_no, key, value in key_value_lines(lines):
            if not value:
                raise MalformedLine(f"empty value for key {key!r}", line_no)
            if key == "heading_pattern":
                patterns.append(value)
            elif key in types:
                try:
                    values[key] = _PARSERS.get(types[key], str)(value)
                except ValueError:
                    raise MalformedLine(f"bad number for {key}: {value!r}", line_no) from None
            else:
                logger.warning("config %s line %d: ignoring unknown key %r", path, line_no, key)
        if patterns:
            values["heading_patterns"] = tuple(patterns)
        return Config(**values)  # type: ignore[arg-type]


_TERM_KEYS = ("term", "pref", "alt", "broader", "composite")


def loop_load_taxonomy(path: str | Path) -> Taxonomy:
    """Load a taxonomy from its line-oriented file format.

    The file is in the ``key: value`` format of ``fields``, with no empty
    values.  ``term: <id>`` opens a term; ``pref:``, ``alt:`` (repeatable),
    ``broader:`` (repeatable) and ``composite: <id> + <id>`` fill it in; a
    blank line ends it.  Unknown keys are ignored with a warning.
    """
    terms: list[TaxonomyTerm] = []
    current: TaxonomyTerm | None = None
    current_pref_line: int | None = None

    def close(term: TaxonomyTerm | None) -> None:
        if term is None:
            return
        if not term.pref_label:
            raise MissingField("pref", f"term {term.term_id}")
        terms.append(term)

    with reading(path) as text:
        # each block is read whole before the blank line after it closes its last term
        for first, block in line_blocks(text.splitlines(), lambda line: not line.strip()):
            for line_no, key, value in key_value_lines(block, first):
                if not value:
                    raise MalformedLine(f"empty value for key {key!r}", line_no)
                if key in _TERM_KEYS and "\t" in value:
                    # a term id or label ends up in a keywords sidecar row, where a tab splits it
                    raise MalformedLine(f"tab in {key!r} value", line_no)
                if key == "term":
                    close(current)
                    current = TaxonomyTerm(term_id=value, pref_label="")
                    current_pref_line = None
                elif key not in _TERM_KEYS:
                    logger.warning(
                        "taxonomy %s line %d: ignoring unknown key %r", path, line_no, key
                    )
                elif current is None:
                    raise MalformedLine(f"{key!r} outside a term block", line_no)
                elif key == "pref":
                    if current.pref_label:
                        raise MalformedLine(
                            f"duplicate pref (first on line {current_pref_line})", line_no
                        )
                    current.pref_label = value
                    current_pref_line = line_no
                elif key == "alt":
                    current.alt_labels.append(value)
                elif key == "broader":
                    current.broader.append(value)
                elif key == "composite":
                    parts = [p.strip() for p in value.split("+")]
                    if len(parts) != 2 or not all(parts):
                        raise MalformedLine("composite must name two ids joined by '+'", line_no)
                    if current.composite_of is not None:
                        raise MalformedLine("duplicate composite definition", line_no)
                    current.composite_of = (parts[0], parts[1])
            close(current)
            current = None
        return Taxonomy(terms)
