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
from .errors import BiblioforgeError, MalformedLine, NonConvergence
from .fields import decode, reading
from .records import (
    FieldQuery,
    RecordStore,
    export_bibtex,
    input_digest,
    parse_clause,
    parse_records_text,
    validate_record,
)
from .refextract import extract_references, load_journal_kb
from .taxonomy import extract_keywords, load_taxonomy
# read_log is not called here, but stays importable from this module: the
# benchmark's tracer (bench/tracing.py) wraps it, top_k and co_view_recommend
# by name.
from .usage import LogScan, co_view_recommend, read_log, top_k  # noqa: F401

logger = logging.getLogger(__name__)


# Options every command takes; a flag whose dest names a Config field
# overrides that field (_build_config).
_SHARED = argparse.ArgumentParser(add_help=False)
_SHARED.add_argument("--config", help="config file (or set $BIBLIOFORGE_CONFIG)")
_SHARED.add_argument("--out", help="write the report to this file instead of stdout")
_SHARED.add_argument("--store-dir", type=Path, help="record store directory")
_SHARED.add_argument(
    "--taxonomy", dest="taxonomy_path", type=Path, metavar="TAXONOMY", help="taxonomy file path"
)
_SHARED.add_argument(
    "--kb", dest="kb_path", type=Path, metavar="KB", help="journal knowledge base path"
)
_SHARED.add_argument("--log-path", type=Path, help="usage log path")
_SHARED.add_argument("--alerts-dir", type=Path, help="subscription store directory")
_SHARED.add_argument("--notifications-dir", type=Path, help="notification output directory")


def _command(sub, name: str, help: str, func) -> argparse.ArgumentParser:
    """Add command ``name`` with the shared options; ``func`` runs it."""
    parser = sub.add_parser(name, help=help, parents=[_SHARED])
    parser.set_defaults(func=func, command_parser=parser)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="biblioforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "ingest", "parse record files into the store", cmd_ingest)
    p.add_argument("files", nargs="+")

    p = _command(sub, "keywords", "assign taxonomy keywords to stored records", cmd_keywords)
    p.add_argument("--max", type=int, default=10, help="keywords per record (default 10)")

    _command(sub, "refextract", "extract references from stored full texts", cmd_refextract)

    p = _command(sub, "citegraph", "build the citation graph and report", cmd_citegraph)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--rank", action="store_true", help="report link rank instead of counts")
    group.add_argument("--edges", action="store_true", help="report the edge list")
    p.add_argument("--damping", type=float, help="rank damping factor")
    p.add_argument(
        "--tolerance",
        dest="rank_tolerance",
        type=float,
        metavar="TOLERANCE",
        help="rank convergence tolerance",
    )

    p = sub.add_parser("usage", help="access-log reports")
    usage_sub = p.add_subparsers(dest="usage_command", required=True)
    p = _command(usage_sub, "top", "most viewed/downloaded records", cmd_usage_top)
    p.add_argument("--action", choices=("view", "download"), required=True)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--from", dest="window_from", type=int, default=None)
    p.add_argument("--to", dest="window_to", type=int, default=None)
    p = _command(usage_sub, "recommend", "people-who-viewed-also-viewed", cmd_usage_recommend)
    p.add_argument("record_id")
    p.add_argument("-k", type=int, default=10)

    p = sub.add_parser("alerts", help="saved-search subscriptions")
    alerts_sub = p.add_subparsers(dest="alerts_command", required=True)
    p = _command(alerts_sub, "register", "store a new subscription", cmd_alerts_register)
    p.add_argument("--owner", required=True)
    p.add_argument(
        "--clause",
        action="append",
        required=True,
        help="field:match:value, repeatable (e.g. author:contains:smith)",
    )
    p.add_argument("--now", type=int, default=None, help="override the registration clock")
    p = _command(alerts_sub, "run", "run a notification batch", cmd_alerts_run)
    p.add_argument("--now", type=int, default=None, help="override the batch clock")

    p = sub.add_parser("export", help="export records")
    export_sub = p.add_subparsers(dest="export_command", required=True)
    p = _command(export_sub, "bibtex", "render records as BibTeX", cmd_export_bibtex)
    p.add_argument("ids", nargs="+")

    return parser


def _build_config(args: argparse.Namespace) -> Config:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    cfg = load_config(path) if path else Config()
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(Config)
        if getattr(args, f.name, None) is not None
    }
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_ingest(args, cfg: Config, out) -> None:
    # every record is parsed and checked before the first upsert, so a failed ingest stores nothing
    records = {}  # id -> the last record given with that id
    for name in args.files:
        with reading(name) as text:
            for record in parse_records_text(text):
                validate_record(record)
                if (record_id := record.record_id) in records:
                    logger.warning("record %s given more than once; the last one is stored",
                                   record_id)
                records[record_id] = record
    store = RecordStore(cfg.store_dir)
    with store.batch():
        for record in records.values():
            store.upsert(record)
    out.write(f"ingested\t{len(records)}\n")


def _records_with_text(store: RecordStore, records, settings: str, sidecar: str):
    """Yield (record, full text, input digest) for each of ``records`` with a full text.

    The digest covers the command's settings digest and the full text's bytes, so
    it changes whenever anything the extractor reads does.  A record without
    a full text loses the command's ``sidecar`` (``keywords`` or
    ``references``), if it has one: its rows describe a text the record no
    longer names.
    """
    for record in records:
        path = store.fulltext_file(record)
        if path is None:
            store.remove_sidecar(record.record_id, sidecar)
            continue
        try:
            text = decode(data := path.read_bytes())
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise BiblioforgeError(f"full text missing for {record.record_id}: {path}") from None
        except MalformedLine as exc:
            raise BiblioforgeError(
                f"full text not valid UTF-8 for {record.record_id}: {path}: {exc}"
            ) from None
        yield record, text, input_digest(settings.encode(), data)


def cmd_keywords(args, cfg: Config, out) -> None:
    if args.max < 1:  # extract_keywords would refuse it only at the first full text
        raise ValueError("max_results must be >= 1")
    if cfg.taxonomy_path is None:
        raise ValueError("no taxonomy configured (set taxonomy_path or --taxonomy)")
    # Bytes read before the taxonomy is parsed: if the file changes in
    # between, the stored digest is stale and the next run recomputes.
    settings = input_digest(cfg.taxonomy_path.read_bytes(), str(args.max).encode())
    taxonomy = load_taxonomy(cfg.taxonomy_path)
    store = RecordStore(cfg.store_dir)
    records = store.iter_records(references=False)
    with store.batch():
        for record, text, digest in _records_with_text(store, records, settings, "keywords"):
            assignments = record.keywords
            if record.keywords_digest != digest:
                assignments = extract_keywords(text, taxonomy, max_results=args.max)
                store.write_keywords_sidecar(record.record_id, assignments, digest)
            for ka in assignments:
                counts = ",".join(map(str, ka.component_counts or ()))
                out.write(f"{record.record_id}\t{ka.display_label}\t{ka.occurrence}\t{counts}\n")


def cmd_refextract(args, cfg: Config, out) -> None:
    kb_path = cfg.resolved_kb_path()
    # As in cmd_keywords, the bytes are read before the knowledge base is parsed.
    settings = input_digest(kb_path.read_bytes(), *(p.encode() for p in cfg.heading_patterns))
    kb = load_journal_kb(kb_path)
    store = RecordStore(cfg.store_dir)
    records = store.iter_records(keywords=False)
    with store.batch():
        for record, text, digest in _records_with_text(store, records, settings, "references"):
            entries = record.references
            if record.references_digest != digest:
                entries = extract_references(text, kb, cfg.heading_patterns)
                store.write_refs_sidecar(record.record_id, entries, digest)
            out.write(f"{record.record_id}\t{len(entries)}\n")


def cmd_citegraph(args, cfg: Config, out) -> None:
    store = RecordStore(cfg.store_dir)
    graph = build_graph(store.iter_records(keywords=False))
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


@contextlib.contextmanager
def _log_scan(cfg: Config):
    """Events of the configured log; the skipped count is printed after the scan."""
    if cfg.log_path is None:
        raise ValueError("no usage log configured (set log_path or --log-path)")
    scan = LogScan()
    try:
        yield scan.read(cfg.log_path)
    finally:
        if scan.skipped:
            print(f"skipped {scan.skipped} malformed log lines", file=sys.stderr)


def cmd_usage_top(args, cfg: Config, out) -> None:
    with _log_scan(cfg) as events:
        rows = top_k(events, args.action, args.k, (args.window_from, args.window_to))
    out.write(report_tsv(dict(rows)))


def cmd_usage_recommend(args, cfg: Config, out) -> None:
    with _log_scan(cfg) as events:
        rows = co_view_recommend(events, args.record_id, args.k)
    out.write(report_tsv(dict(rows)))


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
        store.iter_records(references=False),  # queries never read references
        alert_store.load_all(),
        now,
        notifications_dir=cfg.notifications_dir,
        alert_store=alert_store,
    )
    for note in notes:
        out.write(f"{note.alert_id}\t{len(note.record_ids)}\n")


def cmd_export_bibtex(args, cfg: Config, out) -> None:
    store = RecordStore(cfg.store_dir)
    out.write(export_bibtex(store.iter_records(args.ids)))


def dispatch(argv=None) -> int:
    """Run one command; returns the process exit code."""
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # the chosen command's parser reports what it was given and does not take
            args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # --help exits 0; a usage error, printed by argparse, exits 2
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


if __name__ == "__main__":
    main()
