#!/usr/bin/env python3
"""A document-retrieval store over schema-less complex objects.

The paper's second motivating application is office automation / document
retrieval: documents are heterogeneous (missing attributes, nested sections,
keyword sets) and do not fit a rigid schema.  This example runs a small
document database end to end:

* load a generated collection into a file-backed :class:`ObjectDatabase`;
* *discover* a schema from the data (the paper's future-work item 4) and
  enforce it on later writes;
* build a path index on keywords and compare indexed vs scan lookups;
* answer content queries with calculus formulae and restructure the results
  with rules (an inverted keyword index built by a rule);
* run a transactional multi-document update.

Run with::

    python examples/document_store.py [documents]
"""

import sys
import tempfile
import time

from repro import parse_formula, parse_object, parse_rule
from repro.api import Session
from repro.core.builder import obj
from repro.core.errors import SchemaError
from repro.schema.inference import infer_type
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage
from repro.workloads import make_document_collection


def main() -> None:
    documents = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    collection = make_document_collection(documents, 4, 5, rng=7)

    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as handle:
        path = handle.name
    store = ObjectDatabase(FileStorage(path))
    session = Session(database=store)  # the query facade over the store
    store.put("library", collection)
    print(f"Stored {documents} documents in {path}")

    # --- schema discovery and enforcement --------------------------------------------
    discovered = infer_type(collection)
    store.declare_schema("library", discovered)
    print("\nDiscovered schema (truncated):")
    print("  " + discovered.to_text()[:110] + "...")
    try:
        store.put("library", obj({"docs": [{"title": 42}]}))
    except SchemaError as error:
        print(f"  non-conforming write rejected: {str(error)[:90]}...")
    store.put("library", collection)  # restore the conforming value

    # --- content queries ---------------------------------------------------------------
    query = parse_formula("[docs: {[title: T, sections: {[keywords: {lattice}]}]}]")
    start = time.perf_counter()
    result = session.query(query, against="library")
    elapsed = (time.perf_counter() - start) * 1000
    hits = 0 if result.is_bottom else len(result.get("docs"))
    print(f"\nDocuments mentioning 'lattice': {hits}  ({elapsed:.2f} ms, calculus formula)")

    # Documents by a given author (some documents have no author at all).
    by_author = session.query("[docs: {[title: T, author: mary]}]", against="library")
    authored = 0 if by_author.is_bottom else len(by_author.get("docs"))
    print(f"Documents authored by mary: {authored}")

    # --- restructuring with a rule: an inverted keyword index --------------------------
    rule = parse_rule(
        "[keyword_index: {[keyword: K, title: T]}] :-"
        " [docs: {[title: T, sections: {[keywords: {K}]}]}]"
    )
    start = time.perf_counter()
    inverted = rule.apply(store["library"])
    elapsed = (time.perf_counter() - start) * 1000
    pairs = inverted.get("keyword_index")
    print(f"\nInverted keyword index built by one rule: {len(pairs)} (keyword, title) pairs"
          f" ({elapsed:.2f} ms)")
    store.put("keyword_index", pairs)

    # --- indexed lookup vs scan ---------------------------------------------------------
    store.create_index("keyword")
    probe = parse_object("[keyword: lattice]")
    start = time.perf_counter()
    scan_matches = store.find(probe)
    scan_ms = (time.perf_counter() - start) * 1000
    start = time.perf_counter()
    indexed_matches = store.find(probe, path="keyword")
    indexed_ms = (time.perf_counter() - start) * 1000
    print(f"Find objects containing [keyword: lattice]: scan {scan_ms:.2f} ms,"
          f" indexed {indexed_ms:.2f} ms, same answer: {scan_matches == indexed_matches}")

    # --- transactional update -----------------------------------------------------------
    with store.transaction() as txn:
        txn.put("catalog", obj({"documents": documents, "indexed": True}))
        txn.put("audit", obj([{"action": "reindex", "by": "librarian"}]))
    print(f"\nTransactional metadata written: {store['catalog']}")

    store.close()
    print("Store closed; the JSON log can be reopened with ObjectDatabase(FileStorage(path)).")


if __name__ == "__main__":
    main()
