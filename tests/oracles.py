"""Independent reference implementations used to check the real ones.

Everything here is deliberately naive: brute-force scans, dense matrices,
full sorts.  Keep these free of imports from the code paths they verify,
beyond the data types they need to read.
"""

from __future__ import annotations

import re
from collections import defaultdict

import numpy as np

from biblioforge.taxonomy import SENTENCE_BOUNDARY, KeywordAssignment, stem

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
