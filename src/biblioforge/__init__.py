"""biblioforge: batch enrichment toolkit for bibliographic records.

Capabilities: a line-oriented record store with a small field-query
language and BibTeX export; taxonomy-driven keyword extraction with
composite terms and document clustering; reference extraction and
normalization against a journal knowledge base; citation-graph
bibliometrics (counts, co-citation, link rank); access-log analytics;
and saved-search alert batches.
"""

from .alerts import AlertStore, AlertSubscription, Notification, run_alert_batch
from .citegraph import CitationGraph, build_graph, citation_counts, cocitation, link_rank
from .config import Config, load_config
from .errors import (
    BiblioforgeError,
    CyclicBroaderLink,
    DanglingReference,
    DuplicateAlias,
    DuplicateLabel,
    EmptySection,
    MalformedLine,
    MissingField,
    NonConvergence,
    StorageFailure,
    TemplateFieldMissing,
    UnknownNode,
    UnknownRecord,
)
from .records import (
    BibRecord,
    FieldQuery,
    QueryClause,
    RecordStore,
    export_bibtex,
    match_query,
    parse_clause,
    parse_record,
    parse_records_text,
    serialize_record,
    validate_record,
)
from .refextract import (
    CitationEntry,
    JournalKB,
    KBEntry,
    build_url,
    default_journal_kb_path,
    extract_references,
    load_journal_kb,
    locate_reference_section,
    normalize_alias,
    normalize_journal,
    parse_entry,
    segment_entries,
)
from .taxonomy import (
    SENTENCE_BOUNDARY,
    KeywordAssignment,
    Taxonomy,
    TaxonomyTerm,
    cluster_documents,
    extract_keywords,
    load_taxonomy,
    stem,
    tokenize,
)
from .usage import UsageEvent, co_view_recommend, parse_log_line, read_log, top_k

__version__ = "0.1.0"
