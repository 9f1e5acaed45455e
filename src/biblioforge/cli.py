"""Command-line entry point wiring the batch pipeline.

Subcommands: ``ingest``, ``keywords``, ``refextract``, ``citegraph``,
``usage top``, ``usage recommend``, ``alerts register``, ``alerts run``,
``export bibtex``.  Reports are TSV on stdout (or ``--out`` file) so the
tool composes in shell pipelines.  Exit codes: 0 success, 1 input error,
2 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import os
import sys
import time
from pathlib import Path

from .alerts import AlertStore, run_alert_batch
from .citegraph import build_graph, citation_counts, edges_tsv, link_rank, report_tsv
from .config import CONFIG_ENV_VAR, Config, load_config
from .errors import BiblioforgeError, NonConvergence
from .records import (
    FieldQuery,
    RecordStore,
    export_bibtex,
    input_digest,
    parse_clause,
    parse_records_text,
)
from .refextract import extract_references, load_journal_kb
from .taxonomy import extract_keywords, load_taxonomy
# read_log is not called here, but stays importable from this module: the
# benchmark's tracer (bench/tracing.py) wraps it, top_k and co_view_recommend
# by name.
from .usage import LogScan, co_view_recommend, read_log, top_k  # noqa: F401

logger = logging.getLogger(__name__)


class _ArgvError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _ArgvError(message, self.format_usage())


def _common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (or set $BIBLIOFORGE_CONFIG)")
    parser.add_argument("--out", help="write the report to this file instead of stdout")
    parser.add_argument("--store-dir", help="record store directory")
    parser.add_argument("--taxonomy", help="taxonomy file path")
    parser.add_argument("--kb", help="journal knowledge base path")
    parser.add_argument("--log-path", help="usage log path")
    parser.add_argument("--alerts-dir", help="subscription store directory")
    parser.add_argument("--notifications-dir", help="notification output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="biblioforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse record files into the store")
    _common_options(p)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("keywords", help="assign taxonomy keywords to stored records")
    _common_options(p)
    p.add_argument("--max", type=int, default=10, help="keywords per record (default 10)")
    p.set_defaults(func=cmd_keywords)

    p = sub.add_parser("refextract", help="extract references from stored full texts")
    _common_options(p)
    p.set_defaults(func=cmd_refextract)

    p = sub.add_parser("citegraph", help="build the citation graph and report")
    _common_options(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--rank", action="store_true", help="report link rank instead of counts")
    group.add_argument("--edges", action="store_true", help="report the edge list")
    p.add_argument("--damping", type=float, help="rank damping factor")
    p.add_argument("--tolerance", type=float, help="rank convergence tolerance")
    p.set_defaults(func=cmd_citegraph)

    p = sub.add_parser("usage", help="access-log reports")
    usage_sub = p.add_subparsers(dest="usage_command", required=True, parser_class=_Parser)
    pt = usage_sub.add_parser("top", help="most viewed/downloaded records")
    _common_options(pt)
    pt.add_argument("--action", choices=("view", "download"), required=True)
    pt.add_argument("-k", type=int, default=10)
    pt.add_argument("--from", dest="window_from", type=int, default=None)
    pt.add_argument("--to", dest="window_to", type=int, default=None)
    pt.set_defaults(func=cmd_usage_top)
    pr = usage_sub.add_parser("recommend", help="people-who-viewed-also-viewed")
    _common_options(pr)
    pr.add_argument("record_id")
    pr.add_argument("-k", type=int, default=10)
    pr.set_defaults(func=cmd_usage_recommend)

    p = sub.add_parser("alerts", help="saved-search subscriptions")
    alerts_sub = p.add_subparsers(dest="alerts_command", required=True, parser_class=_Parser)
    pa = alerts_sub.add_parser("register", help="store a new subscription")
    _common_options(pa)
    pa.add_argument("--owner", required=True)
    pa.add_argument(
        "--clause",
        action="append",
        required=True,
        help="field:match:value, repeatable (e.g. author:contains:smith)",
    )
    pa.add_argument("--now", type=int, default=None, help="override the registration clock")
    pa.set_defaults(func=cmd_alerts_register)
    pb = alerts_sub.add_parser("run", help="run a notification batch")
    _common_options(pb)
    pb.add_argument("--now", type=int, default=None, help="override the batch clock")
    pb.set_defaults(func=cmd_alerts_run)

    p = sub.add_parser("export", help="export records")
    export_sub = p.add_subparsers(dest="export_command", required=True, parser_class=_Parser)
    pe = export_sub.add_parser("bibtex", help="render records as BibTeX")
    _common_options(pe)
    pe.add_argument("ids", nargs="+")
    pe.set_defaults(func=cmd_export_bibtex)

    return parser


def _build_config(args: argparse.Namespace) -> Config:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    cfg = load_config(path) if path else Config()
    overrides: dict[str, object] = {}
    for flag, key in (
        ("store_dir", "store_dir"),
        ("taxonomy", "taxonomy_path"),
        ("kb", "kb_path"),
        ("log_path", "log_path"),
        ("alerts_dir", "alerts_dir"),
        ("notifications_dir", "notifications_dir"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = Path(value)
    if getattr(args, "damping", None) is not None:
        overrides["damping"] = args.damping
    if getattr(args, "tolerance", None) is not None:
        overrides["rank_tolerance"] = args.tolerance
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_ingest(args, cfg: Config, out) -> None:
    store = RecordStore(cfg.store_dir)
    total = 0
    for name in args.files:
        for record in parse_records_text(Path(name).read_text(encoding="utf-8")):
            store.upsert(record)
            total += 1
    out.write(f"ingested\t{total}\n")


def _records_with_text(store: RecordStore, settings: str, sidecar: str):
    """Yield (record, full text, input digest) for every stored record with a full text.

    Each record is read with the command's ``sidecar`` (``.keys.tsv`` or
    ``.refs.tsv``) only.  The digest covers the command's settings digest
    and the full text, so it changes whenever anything the extractor reads
    does.  A record without a full text loses the command's sidecar, if it
    has one: its rows describe a text the record no longer names.
    """
    keywords = sidecar == ".keys.tsv"
    for record in store.iter_records(keywords=keywords, references=not keywords):
        path = store.fulltext_file(record)
        if path is None:
            store.remove_sidecar(record.record_id, sidecar)
            continue
        if not path.is_file():
            raise BiblioforgeError(f"full text missing for {record.record_id}: {path}")
        text = path.read_text(encoding="utf-8")
        yield record, text, input_digest(settings.encode(), text.encode())


def cmd_keywords(args, cfg: Config, out) -> None:
    if cfg.taxonomy_path is None:
        raise ValueError("no taxonomy configured (set taxonomy_path or --taxonomy)")
    # Bytes read before the taxonomy is parsed: if the file changes in
    # between, the stored digest is stale and the next run recomputes.
    settings = input_digest(cfg.taxonomy_path.read_bytes(), str(args.max).encode())
    taxonomy = load_taxonomy(cfg.taxonomy_path)
    store = RecordStore(cfg.store_dir)
    for record, text, digest in _records_with_text(store, settings, ".keys.tsv"):
        assignments = record.keywords
        if record.keywords_digest != digest:
            assignments = extract_keywords(text, taxonomy, max_results=args.max)
            store.write_keywords_sidecar(record.record_id, assignments, digest)
        for ka in assignments:
            counts = ",".join(str(c) for c in ka.component_counts) if ka.component_counts else ""
            out.write(f"{record.record_id}\t{ka.display_label}\t{ka.occurrence}\t{counts}\n")


def cmd_refextract(args, cfg: Config, out) -> None:
    kb_path = cfg.resolved_kb_path()
    # As in cmd_keywords, the bytes are read before the knowledge base is parsed.
    settings = input_digest(kb_path.read_bytes(), *(p.encode() for p in cfg.heading_patterns))
    kb = load_journal_kb(kb_path)
    store = RecordStore(cfg.store_dir)
    for record, text, digest in _records_with_text(store, settings, ".refs.tsv"):
        entries = record.references
        if record.references_digest != digest:
            entries = extract_references(text, kb, cfg.heading_patterns)
            store.write_refs_sidecar(record.record_id, entries, digest)
        out.write(f"{record.record_id}\t{len(entries)}\n")


def cmd_citegraph(args, cfg: Config, out) -> None:
    store = RecordStore(cfg.store_dir)
    graph = build_graph(store)
    print(f"unresolved entries: {graph.unresolved}", file=sys.stderr)
    if args.edges:
        out.write(edges_tsv(graph))
        return
    if args.rank:
        try:
            scores = link_rank(graph, cfg.damping, cfg.rank_tolerance, cfg.rank_max_iters)
        except NonConvergence as exc:
            print(f"warning: {exc}", file=sys.stderr)
            scores = exc.scores
        out.write(report_tsv(scores))
    else:
        out.write(report_tsv(citation_counts(graph)))


def _require_log(cfg: Config) -> Path:
    if cfg.log_path is None:
        raise ValueError("no usage log configured (set log_path or --log-path)")
    return cfg.log_path


@contextlib.contextmanager
def _log_scan(cfg: Config):
    """Events of the configured log; the skipped count is printed after the scan."""
    scan = LogScan()
    try:
        yield scan.read(_require_log(cfg))
    finally:
        if scan.skipped:
            print(f"skipped {scan.skipped} malformed log lines", file=sys.stderr)


def cmd_usage_top(args, cfg: Config, out) -> None:
    window = None
    if args.window_from is not None or args.window_to is not None:
        window = (args.window_from, args.window_to)
    with _log_scan(cfg) as events:
        rows = top_k(events, args.action, args.k, window)
    for record_id, count in rows:
        out.write(f"{record_id}\t{count}\n")


def cmd_usage_recommend(args, cfg: Config, out) -> None:
    with _log_scan(cfg) as events:
        rows = co_view_recommend(events, args.record_id, args.k)
    for record_id, strength in rows:
        out.write(f"{record_id}\t{strength}\n")


def cmd_alerts_register(args, cfg: Config, out) -> None:
    query = FieldQuery(tuple(parse_clause(c) for c in args.clause))
    alert_store = AlertStore(cfg.alerts_dir)
    sub = alert_store.register(query, args.owner, now=args.now)
    out.write(f"{sub.alert_id}\n")


def cmd_alerts_run(args, cfg: Config, out) -> None:
    alert_store = AlertStore(cfg.alerts_dir)
    store = RecordStore(cfg.store_dir)
    now = args.now if args.now is not None else int(time.time())
    notes = run_alert_batch(
        store,
        alert_store.load_all(),
        now,
        notifications_dir=cfg.notifications_dir,
        alert_store=alert_store,
    )
    for note in notes:
        out.write(f"{note.alert_id}\t{len(note.record_ids)}\n")


def cmd_export_bibtex(args, cfg: Config, out) -> None:
    store = RecordStore(cfg.store_dir)
    out.write(export_bibtex(store.get(record_id) for record_id in args.ids))


def dispatch(argv=None) -> int:
    """Run one command; returns the process exit code."""
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgvError as exc:
        print(exc.usage, end="", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1

    try:
        cfg = _build_config(args)
        if args.out:
            ctx = open(args.out, "w", encoding="utf-8")
        else:
            ctx = contextlib.nullcontext(sys.stdout)
        with ctx as out:
            args.func(args, cfg, out)
        return 0
    except (BiblioforgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is an internal error
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())
