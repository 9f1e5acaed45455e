"""Controlled-vocabulary taxonomy loading and keyword assignment.

A taxonomy is a SKOS-like subset: terms with one preferred label, any
number of alternative labels, broader links forming an acyclic graph, and
composite terms defined as the pairing of two basic terms.  Keyword
assignment counts label-phrase occurrences over a tokenized document;
composite terms are counted as sentence-level co-occurrence of their two
components.

A taxonomy file is in the ``key: value`` format of ``fields``, read by
``fields.read_fields`` through the ``_FIELDS`` table, with no empty values.
``term: <id>`` opens a term; ``pref``, ``alt`` (repeatable), ``broader``
(repeatable) and ``composite: <id> + <id>`` fill it in.  The taxonomy's own
rule: a term is the run of lines from its ``term`` line to the next blank or
``term`` line, and a term key anywhere else is refused.

The taxonomy is immutable after load and safe to share across threads;
``extract_keywords`` is a pure function of its inputs.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

from .errors import (
    CyclicBroaderLink,
    DanglingReference,
    DuplicateLabel,
    MissingField,
)
from .fields import FieldTable, read_fields, reading

# Sentinel emitted by tokenize() where a sentence ends.  Real tokens are
# lowercase word characters and intra-word hyphens, so no collision.
SENTENCE_BOUNDARY = "<eos>"

# Word tokens keep intra-word hyphens; every other character separates.  A
# sentence mark counts only before whitespace or at the end of the text;
# regex \s and str.isspace agree on every code point.
_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*|[.!?](?=\s|\Z)", re.UNICODE)
_SENTENCE_MARKS = frozenset(".!?")


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens with sentence-break sentinels.

    Hyphens inside words are preserved; all other punctuation separates
    tokens.  A period, question mark or exclamation mark followed by
    whitespace (or end of text) emits a SENTENCE_BOUNDARY token.
    """
    raw = _TOKEN_RE.findall(text)
    # each distinct token is lowercased once
    lowered = {
        tok: SENTENCE_BOUNDARY if tok in _SENTENCE_MARKS else tok.lower() for tok in set(raw)
    }
    return list(map(lowered.__getitem__, raw))


def stem(token: str) -> str:
    """Minimal plural stripping: drop a trailing 's' when >= 3 chars remain."""
    if token.endswith("s") and len(token) >= 4:
        return token[:-1]
    return token


def normalize_label(label: str) -> str:
    """Lowercase and collapse runs of whitespace to single spaces."""
    return " ".join(label.lower().split())


def _stemmed_phrase(label: str) -> tuple[str, ...]:
    return tuple(stem(t) for t in tokenize(label) if t != SENTENCE_BOUNDARY)


@dataclass
class TaxonomyTerm:
    """One controlled-vocabulary term."""

    term_id: str
    pref_label: str
    alt_labels: list[str] = field(default_factory=list)
    broader: list[str] = field(default_factory=list)
    composite_of: tuple[str, str] | None = None

    @property
    def is_composite(self) -> bool:
        return self.composite_of is not None

    def labels(self) -> list[str]:
        return [self.pref_label, *self.alt_labels]


@dataclass
class KeywordAssignment:
    """One keyword assigned to a document.

    For composite terms, ``occurrence`` is the number of sentences where
    both components occur, ``components`` names the two component term ids
    and ``component_counts`` carries each component's whole-document count.
    """

    term_id: str
    display_label: str
    occurrence: int
    component_counts: tuple[int, int] | None = None
    components: tuple[str, str] | None = None


class Taxonomy:
    """Validated, indexed set of taxonomy terms.

    ``label_index`` maps every normalized label phrase to its owning term
    id; collisions are a load error.  A parallel stemmed-phrase index
    drives matching and applies the same one-owner rule to stemmed forms.
    """

    def __init__(self, terms: Iterable[TaxonomyTerm]):
        self.terms: dict[str, TaxonomyTerm] = {}
        self.label_index: dict[str, str] = {}
        # stemmed phrase -> term_id, non-composite terms only
        self._match_index: dict[tuple[str, ...], str] = {}
        # first stemmed token -> candidate phrases, longest first
        self._candidates: dict[str, list[tuple[tuple[str, ...], str]]] = {}
        self._composites: list[TaxonomyTerm] = []
        for term in terms:
            if term.term_id in self.terms:
                raise ValueError(f"duplicate term id: {term.term_id}")
            self.terms[term.term_id] = term
        self._validate_and_index()

    def __len__(self) -> int:
        return len(self.terms)

    def _validate_and_index(self) -> None:
        for term in self.terms.values():
            if not term.pref_label.strip():
                raise MissingField("pref", f"term {term.term_id}")
            for ref in term.broader:
                if ref not in self.terms:
                    raise DanglingReference(ref)
            if term.composite_of is not None:
                a, b = term.composite_of
                if a == b:
                    raise ValueError(
                        f"composite term {term.term_id} pairs {a} with itself"
                    )
                for ref in (a, b):
                    if ref not in self.terms:
                        raise DanglingReference(ref)
                    if self.terms[ref].is_composite:
                        raise ValueError(
                            f"composite term {term.term_id} references composite {ref}"
                        )
            # drop duplicate alt labels (including repeats of pref) after
            # normalization, preserving first occurrence order
            seen = {normalize_label(term.pref_label)}
            kept = []
            for alt in term.alt_labels:
                norm = normalize_label(alt)
                if norm not in seen:
                    seen.add(norm)
                    kept.append(alt)
            term.alt_labels = kept

        self._check_broader_acyclic()

        for term_id in sorted(self.terms):
            term = self.terms[term_id]
            for label in term.labels():
                norm = normalize_label(label)
                owner = self.label_index.get(norm)
                if owner is not None and owner != term_id:
                    raise DuplicateLabel(norm, [owner, term_id])
                self.label_index[norm] = term_id
                if term.is_composite:
                    continue
                phrase = _stemmed_phrase(label)
                if not phrase:
                    raise ValueError(
                        f"label {label!r} of term {term_id} has no word tokens"
                    )
                owner = self._match_index.get(phrase)
                if owner is not None and owner != term_id:
                    raise DuplicateLabel(" ".join(phrase), [owner, term_id])
                self._match_index[phrase] = term_id

        for phrase, term_id in self._match_index.items():
            self._candidates.setdefault(phrase[0], []).append((phrase, term_id))
        for cands in self._candidates.values():
            cands.sort(key=lambda pt: (-len(pt[0]), pt[0]))
        self._composites = [t for t in self.terms.values() if t.is_composite]

    def _check_broader_acyclic(self) -> None:
        try:
            TopologicalSorter({tid: t.broader for tid, t in sorted(self.terms.items())}).prepare()
        except CycleError as exc:
            # graphlib lists the cycle from broader to narrower
            raise CyclicBroaderLink(exc.args[1][::-1]) from None

    def broader_closure(self, term_id: str) -> set[str]:
        """All term ids reachable through broader links, excluding the term."""
        closure: set[str] = set()
        frontier = list(self.terms[term_id].broader)
        while frontier:
            tid = frontier.pop()
            if tid not in closure:
                closure.add(tid)
                frontier.extend(self.terms[tid].broader)
        return closure

    def composite_terms(self) -> list[TaxonomyTerm]:
        return list(self._composites)


def _text(key: str, value: str) -> str:
    if "\t" in value:
        # a term id or label ends up in a keywords sidecar row, where a tab splits it
        raise ValueError(f"tab in {key!r} value")
    return value


def _composite(value: str) -> tuple[str, str]:
    parts = [p.strip() for p in _text("composite", value).split("+")]
    if len(parts) != 2 or not all(parts):
        raise ValueError("composite must name two ids joined by '+'")
    return parts[0], parts[1]


def _outside(key: str, value: str) -> NoReturn:
    _text(key, value)
    raise ValueError(f"{key!r} outside a term block")


# The fields of a taxonomy term, in file order.
_FIELDS = {
    "term": ("term_id", False, partial(_text, "term"), str),
    "pref": ("pref_label", False, partial(_text, "pref"), str),
    "alt": ("alt_labels", True, partial(_text, "alt"), str),
    "broader": ("broader", True, partial(_text, "broader"), str),
    "composite": ("composite_of", False, _composite, " + ".join),
}
# The same keys outside a term, each refused after the tab check.
_OUTSIDE: FieldTable = {key: (key, True, partial(_outside, key), str) for key in _FIELDS}


def _term_runs(lines: list[str]) -> Iterator[tuple[int, list[str], FieldTable]]:
    """Yield ``(first_line_no, run, table)`` per run of ``lines`` up to a blank or ``term`` line."""
    start, table = 0, _OUTSIDE
    for i, line in enumerate([*lines, ""]):
        is_term = line.partition(":")[0].strip() == "term"
        if is_term or not line.strip():
            yield start + 1, lines[start:i], table
            start, table = i, _FIELDS if is_term else _OUTSIDE


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Load a taxonomy from its line-oriented file format (see the module docstring)."""
    with reading(path) as text:
        runs = _term_runs(text.splitlines())
        values = (read_fields(run, table, f"taxonomy {path}", first) for first, run, table in runs)
        # a run outside any term reads as {}; Taxonomy refuses a term without a pref
        return Taxonomy(TaxonomyTerm(**{"pref_label": "", **v}) for v in values if v)


def _match_stream(
    stems: Sequence[str], taxonomy: Taxonomy
) -> tuple[Counter[str], list[tuple[str, int]]]:
    """Greedy longest-match-first, non-overlapping label matching.

    Returns per-term occurrence counts and the list of (term_id, sentence
    index) for every match.  Sentence sentinels never match a label, so a
    phrase cannot span a sentence boundary.  Only positions whose stem can
    start a label are visited; a sentence index is the number of sentinels
    before the match.
    """
    candidates = taxonomy._candidates
    boundaries = [i for i, tok in enumerate(stems) if tok == SENTENCE_BOUNDARY]
    counts: Counter[str] = Counter()
    hits: list[tuple[str, int]] = []
    free = 0  # first position not consumed by an earlier match
    for i in [i for i, tok in enumerate(stems) if tok in candidates]:
        if i < free:
            continue
        for phrase, term_id in candidates[stems[i]]:
            length = len(phrase)
            if length == 1 or tuple(stems[i:i + length]) == phrase:
                counts[term_id] += 1
                hits.append((term_id, bisect_left(boundaries, i)))
                free = i + length
                break
    return counts, hits


def extract_keywords(
    fulltext: str, taxonomy: Taxonomy, max_results: int = 10
) -> list[KeywordAssignment]:
    """Assign controlled keywords to a document by phrase occurrence.

    Single-term occurrence counts non-overlapping matches of any of the
    term's labels over the stemmed token stream, longest match first at
    each position.  Composite occurrence is the number of sentences
    containing both components; component whole-document counts ride along.
    Results sort by occurrence descending, then display label ascending,
    truncated to ``max_results``; zero-occurrence terms are omitted.
    """
    if max_results < 1:
        raise ValueError("max_results must be >= 1")
    tokens = tokenize(fulltext)
    # each distinct token is stemmed once
    stemmed = {t: t if t == SENTENCE_BOUNDARY else stem(t) for t in set(tokens)}
    counts, hits = _match_stream(list(map(stemmed.__getitem__, tokens)), taxonomy)

    sentences_with: dict[str, set[int]] = defaultdict(set)
    for term_id, sentence in hits:
        sentences_with[term_id].add(sentence)

    results: list[KeywordAssignment] = []
    for term_id, count in counts.items():
        term = taxonomy.terms[term_id]
        results.append(KeywordAssignment(term_id, term.pref_label, count))
    for term in taxonomy._composites:
        a, b = term.composite_of  # type: ignore[misc]
        shared = sentences_with[a] & sentences_with[b]
        if shared:
            results.append(
                KeywordAssignment(
                    term.term_id,
                    term.pref_label,
                    len(shared),
                    component_counts=(counts[a], counts[b]),
                    components=(a, b),
                )
            )
    results.sort(key=lambda ka: (-ka.occurrence, ka.display_label))
    return results[:max_results]


def expanded_term_ids(assignments: Iterable[KeywordAssignment]) -> set[str]:
    """Term id set for similarity: composites add their two components."""
    ids: set[str] = set()
    for ka in assignments:
        ids.add(ka.term_id)
        if ka.components is not None:
            ids.update(ka.components)
    return ids


def cluster_documents(
    assignments: Mapping[str, Iterable[KeywordAssignment]],
    threshold: float,
) -> list[list[str]]:
    """Group documents by keyword overlap.

    Similarity is the Jaccard index over expanded term-id sets; documents
    join the same cluster when connected through pairs with similarity at
    or above ``threshold``.  Two empty keyword sets count as similarity 0.
    Clusters are sorted lists, ordered by their smallest member id;
    singletons are included.

    Only pairs that share a term are compared: an inverted index from term
    to the documents holding it counts each pair's overlap (the AllPairs
    join of Bayardo et al., WWW 2007, without its prefix filter).  A pair
    sharing no term has similarity 0, below any valid threshold.  Counting
    takes one step per term a pair shares, so the cost grows with the pairs
    that share a term, not with all n(n-1)/2; when nearly every pair shares
    a term, it is the all-pairs cost.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    ids = sorted(assignments)
    term_sets = [expanded_term_ids(assignments[rid]) for rid in ids]
    sizes = [len(terms) for terms in term_sets]

    parent = list(range(len(ids)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    postings: dict[str, list[int]] = defaultdict(list)
    for b, terms in enumerate(term_sets):
        overlap: Counter[int] = Counter()
        for term in terms:
            earlier = postings[term]
            overlap.update(earlier)
            earlier.append(b)
        size_b = sizes[b]
        for a, shared in overlap.items():
            # |a & b| / |a | b|, the same two integers as the set operations give
            if shared / (sizes[a] + size_b - shared) >= threshold:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, list[str]] = defaultdict(list)
    for i, rid in enumerate(ids):
        groups[find(i)].append(rid)
    # members arrive in id order, and a group first appears at its smallest member
    return list(groups.values())
