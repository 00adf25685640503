"""A persistent object store for complex objects.

The paper treats the whole database as one complex object but leaves storage,
updates ("we have no primitives for updating the object space", future-work
item 3) and physical design out of scope.  This package supplies that
substrate so the calculus can be used as an actual database system:

* :mod:`repro.store.codec` — serialization of complex objects to/from a plain
  JSON-compatible form and the concrete text syntax;
* :mod:`repro.store.updates` — functional update primitives (assign,
  insert, remove) at attribute paths (:mod:`repro.core.paths`) that always
  return new objects;
* :mod:`repro.store.storage` — the write-ahead log that makes commits
  durable: group commit, torn-tail crash recovery and quarantine;
* :mod:`repro.store.locks` — the writer mutex that serialises commits; readers
  take no lock, since every commit publishes one immutable state;
* :mod:`repro.store.transactions` — atomic multi-statement transactions with
  validate-before-apply commit and optimistic snapshot validation;
* :mod:`repro.store.database` — the :class:`~repro.store.database.ObjectDatabase`
  facade tying everything together: the one ``name → object`` map (published
  as one immutable state per commit), the whole database as one object for
  the session's queries, pattern search and updates.  The store keeps
  untyped objects: it neither checks schemas (:mod:`repro.schema` is a
  library a caller runs before a write), plans nor evaluates rules.  It sits
  below the planner and the engine in the layer order, and no module of it
  imports the calculus; the session plans every query against that one
  object and closes it under its rules, and the executor's bucket tables
  live on its sets.
"""

from repro.store.codec import (
    decode_json,
    encode_json,
    frame_record,
    from_json_text,
    loads_object,
    dumps_object,
    parse_record,
    to_json_text,
)
from repro.store.database import ObjectDatabase
from repro.store.locks import WriteLock
from repro.store.storage import FileStorage
from repro.store.transactions import Transaction
from repro.store.updates import (
    assign_path,
    insert_element,
    merge_object,
    remove_element,
    remove_path,
)

__all__ = [
    "FileStorage",
    "ObjectDatabase",
    "Transaction",
    "WriteLock",
    "assign_path",
    "decode_json",
    "dumps_object",
    "encode_json",
    "frame_record",
    "from_json_text",
    "parse_record",
    "insert_element",
    "loads_object",
    "merge_object",
    "remove_element",
    "remove_path",
    "to_json_text",
]
