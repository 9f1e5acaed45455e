"""Spans around the public functions of each biblioforge layer.

The tracer wraps module attributes and class methods from outside the
program, so the program itself is unchanged.  A span records its name,
start, end and the span that was open when it began (its parent); spans
stay in memory and are written out when the run ends.  A span's self time
is its duration minus the durations of its direct children; calls in this
single-threaded run nest strictly, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from biblioforge import alerts, cli, records, refextract, taxonomy


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # name index, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._name_index: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    # --- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        name_id = self._name_index.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name_id, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if on_result is not None:
                on_result(self, result, args, parent)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def parent_name(self, parent: int) -> str | None:
        return self.names[self.spans[parent][0]] if parent >= 0 else None

    # --- aggregation -------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive time, self time and number of calls."""
        inclusive: dict[str, float] = defaultdict(float)
        children: list[float] = [0.0] * len(self.spans)
        calls: dict[str, int] = defaultdict(int)
        for name_id, start, end, parent in self.spans:
            duration = end - start
            inclusive[self.names[name_id]] += duration
            calls[self.names[name_id]] += 1
            if parent >= 0:
                children[parent] += duration
        own: dict[str, float] = defaultdict(float)
        for index, (name_id, start, end, _) in enumerate(self.spans):
            own[self.names[name_id]] += end - start - children[index]
        return inclusive, own, calls

    def time_under(self, name: str, parent_name: str) -> float:
        """Inclusive time of spans called ``name`` whose parent is ``parent_name``."""
        total = 0.0
        for name_id, start, end, parent in self.spans:
            if self.names[name_id] == name and self.parent_name(parent) == parent_name:
                total += end - start
        return total

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def write(self, path: Path) -> None:
        """Write the spans held now as JSON: names plus one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name_id, round(start - base, 7), round(end - base, 7), parent]
            for name_id, start, end, parent in self.spans
        ]
        path.write_text(
            json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "names": self.names, "spans": rows}),
            encoding="utf-8",
        )


# --- the layers -------------------------------------------------------------


def _count_tokens(tracer: Tracer, result, args, parent: int) -> None:
    if tracer.parent_name(parent) == "taxonomy.extract_keywords":
        tracer.counts["taxonomy.tokens"] += len(result)


def _count_cluster_docs(tracer: Tracer, result, args, parent: int) -> None:
    tracer.counts["taxonomy.cluster_docs"] += len(args[0])


def _count_entries(tracer: Tracer, result, args, parent: int) -> None:
    tracer.counts["refextract.entries"] += len(result)
    tracer.counts["refextract.journal_entries"] += sum(1 for e in result if e.journal)
    tracer.counts["refextract.entries_since_command"] += len(result)


def _count_sections(tracer: Tracer, result, args, parent: int) -> None:
    tracer.counts["refextract.sections_found"] += result is not None


def _count_graph(tracer: Tracer, result, args, parent: int) -> None:
    tracer.counts["citegraph.edges"] = len(result.edges)
    entries = tracer.counts["refextract.entries_since_command"]
    if entries:
        tracer.counts["citegraph.resolved_ratio"] = 1.0 - result.unresolved / entries


def _count_events(tracer: Tracer, result, args, parent: int) -> None:
    tracer.counts["usage.events_parsed"] += len(result[0])


def _count_deliveries(tracer: Tracer, result, args, parent: int) -> None:
    tracer.counts["alerts.deliveries"] += sum(len(n.record_ids) for n in result)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; ``tracer.active`` gates recording."""
    store = records.RecordStore
    tracer.wrap(cli, "dispatch", "cli.dispatch")
    tracer.wrap(store, "get", "records.get")
    tracer.wrap(records, "parse_record", "records.parse_record")
    tracer.wrap(store, "upsert", "records.upsert")
    tracer.wrap(store, "write_keywords_sidecar", "records.sidecar_write")
    tracer.wrap(store, "write_refs_sidecar", "records.sidecar_write")
    tracer.wrap(alerts, "match_query", "records.match_query")
    tracer.wrap(cli, "load_taxonomy", "taxonomy.load")
    tracer.wrap(cli, "extract_keywords", "taxonomy.extract_keywords")
    tracer.wrap(taxonomy, "tokenize", "taxonomy.tokenize", _count_tokens)
    tracer.wrap(taxonomy, "cluster_documents", "taxonomy.cluster_documents", _count_cluster_docs)
    tracer.wrap(cli, "extract_references", "refextract.extract_references", _count_entries)
    tracer.wrap(refextract, "locate_reference_section", "refextract.locate", _count_sections)
    tracer.wrap(refextract, "parse_entry", "refextract.parse_entry")
    tracer.wrap(cli, "build_graph", "citegraph.build_graph", _count_graph)
    tracer.wrap(cli, "link_rank", "citegraph.link_rank")
    tracer.wrap(cli, "read_log", "usage.read_log", _count_events)
    tracer.wrap(cli, "top_k", "usage.top_k")
    tracer.wrap(cli, "co_view_recommend", "usage.co_view")
    tracer.wrap(cli, "run_alert_batch", "alerts.run_batch", _count_deliveries)
    tracer.wrap(alerts.AlertStore, "load_all", "alerts.load_all")


def layer_metrics(tracer: Tracer, new_records: int, store_files: int) -> dict[str, float]:
    """Per-layer figures of the spans and counts gathered in one cycle."""
    inclusive, own, calls = tracer.totals()
    counts = tracer.counts
    entries = counts["refextract.entries"]
    deliveries = counts["alerts.deliveries"]
    usage_reports = calls["usage.read_log"]
    scanned = sum(
        1
        for name_id, _, _, parent in tracer.spans
        if tracer.names[name_id] == "records.get"
        and _ancestor_named(tracer, parent, "alerts.run_batch")
    )
    return {
        "records.get_s": inclusive["records.get"],
        "records.get_calls": calls["records.get"],
        "records.parse_record_s": inclusive["records.parse_record"],
        "records.gets_per_new_record": calls["records.get"] / new_records,
        "records.upsert_s": inclusive["records.upsert"],
        "records.upsert_calls": calls["records.upsert"],
        "records.sidecar_write_s": inclusive["records.sidecar_write"],
        "records.files_written": calls["records.upsert"] + calls["records.sidecar_write"],
        "records.store_files": store_files,
        "records.match_query_s": inclusive["records.match_query"],
        "records.match_query_calls": calls["records.match_query"],
        "taxonomy.load_s": inclusive["taxonomy.load"],
        "taxonomy.extract_keywords_s": inclusive["taxonomy.extract_keywords"],
        "taxonomy.extract_keywords_calls": calls["taxonomy.extract_keywords"],
        "taxonomy.tokenize_s": tracer.time_under("taxonomy.tokenize", "taxonomy.extract_keywords"),
        "taxonomy.tokens": counts["taxonomy.tokens"],
        "taxonomy.cluster_docs": counts["taxonomy.cluster_docs"],
        "refextract.extract_references_s": inclusive["refextract.extract_references"],
        "refextract.extract_references_calls": calls["refextract.extract_references"],
        "refextract.locate_s": inclusive["refextract.locate"],
        "refextract.parse_entry_s": inclusive["refextract.parse_entry"],
        "refextract.entries": entries,
        "refextract.section_found_ratio": counts["refextract.sections_found"]
        / max(1, calls["refextract.locate"]),
        "refextract.journal_ratio": counts["refextract.journal_entries"] / max(1, entries),
        "citegraph.build_graph_s": own["citegraph.build_graph"],
        "citegraph.link_rank_s": inclusive["citegraph.link_rank"],
        "citegraph.edges": counts["citegraph.edges"],
        "citegraph.resolved_ratio": counts["citegraph.resolved_ratio"],
        "usage.read_log_s": inclusive["usage.read_log"],
        "usage.events_parsed": counts["usage.events_parsed"],
        "usage.events_per_report": counts["usage.events_parsed"] / max(1, usage_reports),
        "usage.top_k_s": inclusive["usage.top_k"],
        "usage.co_view_s": inclusive["usage.co_view"],
        "alerts.run_batch_s": own["alerts.run_batch"],
        "alerts.load_all_s": inclusive["alerts.load_all"],
        "alerts.deliveries": deliveries,
        "alerts.records_scanned_per_delivery": scanned / max(1, deliveries),
        "cli.self_s": own["cli.dispatch"],
        "cli.commands": calls["cli.dispatch"],
    }


def _ancestor_named(tracer: Tracer, index: int, name: str) -> bool:
    while index >= 0:
        name_id, _, _, parent = tracer.spans[index]
        if tracer.names[name_id] == name:
            return True
        index = parent
    return False
