"""Attribute-path statistics: the optimizer's cardinality oracle.

One walk over a database object collects, per set reachable through tuple
attributes from the root (a *spine* set, the only kind a body plan scans):

* its **cardinality** — how many elements a :class:`~repro.plan.ir.ScanLeaf`
  at that path enumerates, and
* per attribute path *inside* its elements, the number of **distinct atoms**
  found there — the classic ``V(R, a)`` statistic, so an equality probe at
  that key path is estimated to keep ``cardinality / distinct`` elements.

Each spine set's part (its *summary*: cardinality and key-path counts) is
walked once per interned set, memoised on its intern id in the ``set_summary``
memo table and shared by every caller — plan misses, engine runs, lint; a raw
set is walked every time.  Estimates describe the object the optimizer saw,
not the final closure — staleness costs ordering quality, never correctness,
because every leaf order computes the same substitution set (see
:mod:`repro.plan.ir`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from repro.core.intern import IdPairCache, register_cache
from repro.core.objects import Atom, ComplexObject, SetObject, TupleObject
from repro.core.paths import Path

__all__ = ["DatabaseStatistics", "DEFAULT_CARDINALITY"]

_ROOT = Path(())

#: Guess used for a set the statistics never saw (absent path, or no
#: statistics collected at all).  Deliberately modest: an unknown set should
#: neither look free nor dominate every known cost.
DEFAULT_CARDINALITY = 32.0

#: Cap on the per-key distinct-atom sets kept during collection; beyond this
#: the count saturates (the estimate is already "essentially unique").
_MAX_DISTINCT_TRACKED = 4096

#: ``(intern id, 0)`` → that set's ``(cardinality, ((key path, distinct), ...))``.
_SUMMARIES: IdPairCache = register_cache(IdPairCache(maxsize=1 << 12), "set_summary")


@dataclass
class DatabaseStatistics:
    """Cardinalities and distinct-atom counts of one database object."""

    set_cardinalities: Dict[Path, int] = field(default_factory=dict)
    distinct_atoms: Dict[Tuple[Path, Path], int] = field(default_factory=dict)
    #: Optional :class:`~repro.lint.shapes.ProgramShapes` attached by the
    #: engine: when a path was never profiled, a shape-derived bound (a dead
    #: region estimates 0, a finite ``max_card`` caps the guess) beats the
    #: flat :data:`DEFAULT_CARDINALITY`.  Grounded inferences only.
    shapes: object = None

    # -- collection -----------------------------------------------------------------
    @classmethod
    def collect(cls, database: ComplexObject) -> "DatabaseStatistics":
        """Walk ``database``'s spine and record every spine set's summary."""
        stats = cls()

        def walk_spine(value: ComplexObject, path: Path) -> None:
            if isinstance(value, TupleObject):
                for name, item in value.items():
                    walk_spine(item, path.child(name))
            elif isinstance(value, SetObject):
                stats.set_cardinalities[path], counts = _summary(value)
                stats.distinct_atoms.update(((path, key), n) for key, n in counts)

        walk_spine(database, _ROOT)
        return stats

    # -- estimates ------------------------------------------------------------------
    def cardinality(self, set_path: Path) -> float:
        """Estimated element count of the set at ``set_path``.

        Resolution order: the profiled count, then a shape-derived bound
        (when a grounded shape inference is attached), then
        :data:`DEFAULT_CARDINALITY`.
        """
        known = self.set_cardinalities.get(set_path)
        if known is not None:
            return float(known)
        if self.shapes is not None and getattr(self.shapes, "grounded", False):
            bound = self.shapes.set_cardinality(set_path)
            if bound is not None:
                return bound
        return DEFAULT_CARDINALITY

    def distinct(self, set_path: Path, key_path: Path) -> float:
        """Distinct atoms at ``key_path`` inside the elements at ``set_path``.

        Falls back to the square root of the cardinality (the textbook guess
        for an unknown attribute) so an unprofiled key still reads as somewhat
        selective.
        """
        known = self.distinct_atoms.get((set_path, key_path))
        if known is not None and known > 0:
            return float(known)
        return max(1.0, self.cardinality(set_path) ** 0.5)

    def equality_estimate(self, set_path: Path, key_path: Path) -> float:
        """Estimated elements surviving an equality probe at ``key_path``."""
        cardinality = self.cardinality(set_path)
        return max(1.0, cardinality / self.distinct(set_path, key_path))

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """A JSON-friendly snapshot (string paths), used by tests and tooling."""
        return {
            "cardinalities": {
                str(path) or ".": float(count)
                for path, count in sorted(
                    self.set_cardinalities.items(), key=lambda item: str(item[0])
                )
            },
            "distinct": {
                f"{str(set_path) or '.'}::{key_path}": float(count)
                for (set_path, key_path), count in sorted(
                    self.distinct_atoms.items(), key=lambda item: (str(item[0][0]), str(item[0][1]))
                )
            },
        }


def _summary(value: SetObject) -> Tuple[int, Tuple[Tuple[Path, int], ...]]:
    """``value``'s cardinality and distinct-atom counts, memoised when interned."""
    iid = value._iid
    known = None if iid is None else _SUMMARIES.get(iid, 0)
    if known is not None:
        return known
    distinct: Dict[Path, Set[Atom]] = {}

    def walk_element(item: ComplexObject, key_path: Path) -> None:
        # Mirror repro.plan.indexes.element_keys: key paths descend
        # through the element's tuple attributes only.
        if isinstance(item, Atom):
            bucket = distinct.setdefault(key_path, set())
            if len(bucket) < _MAX_DISTINCT_TRACKED:
                bucket.add(item)
        elif isinstance(item, TupleObject):
            for name, child in item.items():
                walk_element(child, key_path.child(name))

    for element in value.elements:
        walk_element(element, _ROOT)
    known = len(value.elements), tuple((key, len(atoms)) for key, atoms in distinct.items())
    if iid is not None:
        _SUMMARIES.put(iid, 0, known)
    return known
