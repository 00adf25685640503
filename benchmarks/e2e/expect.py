"""Independent expectations: what each workload's answers must equal.

None of these goes through ``repro.api``, the planner or the executor.  They
read generator outputs and answers with plain accessors (``.get``,
``.elements``, ``.value``) and compare Python sets, so a wrong answer from the
fast path cannot agree with itself here.  A mismatch is a failed op.

* genealogy — ``Genealogy.expected_descendants`` (computed on the tree);
* bill of materials — ``repro.relational.algebra.equijoin`` on the flat database;
* documents — a plain-Python filter over rows read off the generated object;
* ad-hoc texts — ``repro.calculus.interpret`` (the Definition 4.2 oracle);
* ingest — a dict model of the acknowledged writes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.calculus.interpretation import interpret
from repro.core.objects import Atom, ComplexObject, SetObject, TupleObject
from repro.parser import parse_formula
from repro.relational import algebra

__all__ = [
    "atom_values",
    "bom_rows",
    "doc_rows",
    "doc_answer",
    "doc_expected",
    "edges",
    "oracle",
    "part_rows",
    "IngestModel",
]


def _value(node: ComplexObject):
    return node.value if isinstance(node, Atom) else None


def _elements(node: ComplexObject) -> Tuple[ComplexObject, ...]:
    return node.elements if isinstance(node, SetObject) else ()


def atom_values(answer: ComplexObject, attribute: str) -> FrozenSet:
    """The atoms of the set stored at ``attribute`` of a tuple answer (⊥ → empty)."""
    if not isinstance(answer, TupleObject):
        return frozenset()
    return frozenset(_value(element) for element in _elements(answer.get(attribute)))


def edges(family: ComplexObject) -> FrozenSet[Tuple[str, str]]:
    """(parent, child) pairs read off a ``{[name, children: {[name]}]}`` set."""
    return frozenset(
        (_value(person.get("name")), _value(child.get("name")))
        for person in _elements(family)
        for child in _elements(person.get("children"))
    )


# -- bill of materials ---------------------------------------------------------------
def bom_rows(flat_database) -> Tuple[Dict, Dict]:
    """component ⋈ part through the relational algebra, grouped two ways.

    Returns ``(by_assembly, by_kind)``: assembly id → its
    ``(part_id, kind, weight)`` rows, and kind → the
    ``(assembly_id, part_id, weight)`` rows of that kind.
    """
    part = algebra.rename(flat_database["part"], {"part_id": "pid"})
    joined = algebra.equijoin(flat_database["component"], part, [("part_id", "pid")])
    by_assembly: Dict[int, set] = {}
    by_kind: Dict[str, set] = {}
    for row in joined.to_dicts():
        by_assembly.setdefault(row["assembly_id"], set()).add(
            (row["part_id"], row["kind"], row["weight"])
        )
        by_kind.setdefault(row["kind"], set()).add(
            (row["assembly_id"], row["part_id"], row["weight"])
        )
    return by_assembly, by_kind


def part_rows(answer: ComplexObject) -> FrozenSet[Tuple]:
    """``(part_id, kind, weight)`` of the ``part`` side of a join answer."""
    if not isinstance(answer, TupleObject):
        return frozenset()
    return frozenset(
        (_value(row.get("part_id")), _value(row.get("kind")), _value(row.get("weight")))
        for row in _elements(answer.get("part"))
    )


# -- documents ------------------------------------------------------------------------
def doc_rows(docs: ComplexObject) -> Dict[str, Tuple[Optional[str], FrozenSet]]:
    """title → (author or None, {(heading, length)}) read off a set of documents."""
    rows = {}
    for doc in _elements(docs):
        sections = frozenset(
            (_value(section.get("heading")), _value(section.get("length")))
            for section in _elements(doc.get("sections"))
        )
        rows[_value(doc.get("title"))] = (_value(doc.get("author")), sections)
    return rows


def doc_answer(answer: ComplexObject, attribute: str = "docs") -> FrozenSet[Tuple]:
    """``(title, author, heading, length)`` rows of a document-read answer."""
    if not isinstance(answer, TupleObject):
        return frozenset()
    return frozenset(
        (
            _value(doc.get("title")),
            _value(doc.get("author")),
            _value(section.get("heading")),
            _value(section.get("length")),
        )
        for doc in _elements(answer.get(attribute))
        for section in _elements(doc.get("sections"))
    )


def doc_expected(rows: Dict, title: str) -> FrozenSet[Tuple]:
    """What the read of ``title`` must return: the plain-Python filter.

    A document without an author binds ``A`` to ⊥, which the strict
    semantics drops, so it contributes no row.
    """
    author, sections = rows.get(title, (None, frozenset()))
    if author is None:
        return frozenset()
    return frozenset((title, author, heading, length) for heading, length in sections)


# -- ad-hoc texts ----------------------------------------------------------------------
def oracle(text: str, database: ComplexObject) -> ComplexObject:
    """``E(O)`` by the calculus interpreter of Definition 4.2."""
    return interpret(parse_formula(text), database)


# -- ingest ----------------------------------------------------------------------------
class IngestModel:
    """A dict of the acknowledged writes; the store must equal it after reopen."""

    def __init__(self) -> None:
        self.acked: Dict[str, ComplexObject] = {}

    def acknowledge(self, changes: Dict[str, ComplexObject]) -> None:
        self.acked.update(changes)

    def lost_in(self, session) -> int:
        """Acknowledged writes the reopened store does not return exactly."""
        return sum(
            1 for name, value in self.acked.items() if session.get(name) != value
        )
