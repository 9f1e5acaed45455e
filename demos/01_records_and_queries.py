"""
Records, stores, field queries and BibTeX export
================================================

Parse the line-oriented record format, keep records in a directory store,
match saved-search style queries against them, and export BibTeX.
"""

import tempfile

from biblioforge import (
    FieldQuery,
    QueryClause,
    RecordStore,
    export_bibtex,
    match_query,
    parse_records_text,
)

# Two records in the on-disk format: "key: value" lines, "%%" separators.
RAW = """\
id: r1
title: Dilaton Gravity in Two Dimensions
author: D. Granger
author: R. Meyer
year: 2006
journal: Phys. Rev., A
report_number: gr-qc/0607062
%%
id: r2
title: Notes on Bosonization
author: J. Jensen
year: 2005
"""

records = parse_records_text(RAW)
print(f"parsed {len(records)} records")
for r in records:
    print(" ", r.record_id, "-", r.title)

# A store is a directory of segment files; a batch of upserts adds one
# records segment. Upserting the same id again replaces the record (the
# newest block wins).
with tempfile.TemporaryDirectory() as tmp:
    store = RecordStore(tmp)
    with store.batch():
        for r in records:
            store.upsert(r)
    print(f"\nstore holds {len(store)} records at {store.root}")

    # Queries are AND-combined clauses over metadata fields.
    by_author = FieldQuery((QueryClause("author", "contains", "jensen"),))
    in_window = FieldQuery(
        (
            QueryClause("year", "range", (2005, 2010)),
            QueryClause("any", "contains", "gravity"),
        )
    )
    for name, query in [("author~jensen", by_author), ("2005..2010 & gravity", in_window)]:
        hits = [r.record_id for r in store.iter_records() if match_query(query, r)]
        print(f"query [{name}] matches: {hits}")

# BibTeX export: @article when a journal is present, @misc otherwise.
print("\n" + export_bibtex(records))
