"""Attribute-path statistics: the optimizer's cardinality oracle.

One walk over a database object's *spine* — the sets reachable through tuple
attributes from the root, the only kind a body plan scans — records each
spine set's **cardinality**: how many elements a
:class:`~repro.plan.ir.ScanLeaf` at that path enumerates.  The walk never
looks inside a set.

The classic ``V(R, a)`` statistic — the number of distinct atoms at a key
path inside a spine set's elements, so an equality probe at that key path
is estimated to keep ``cardinality / distinct`` elements — is the size of
the executor's bucket table for that ``(set path, key path)``, which the set
carries; whichever of optimizer and executor first reads the table of a set
no write derived builds it for both.  Estimates describe the object the
optimizer saw, not the final closure — staleness costs ordering quality,
never correctness, because every leaf order computes the same substitution
set (see :mod:`repro.plan.ir`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.objects import ComplexObject, SetObject, TupleObject
from repro.core.paths import Path
from repro.plan.indexes import TargetIndexes

__all__ = ["DatabaseStatistics", "DEFAULT_CARDINALITY"]

_ROOT = Path(())

#: Guess used for a set the statistics never saw (absent path, or no
#: statistics collected at all).  Deliberately modest: an unknown set should
#: neither look free nor dominate every known cost.
DEFAULT_CARDINALITY = 32.0


@dataclass
class DatabaseStatistics:
    """Cardinalities of one database object, and the index store its distinct counts read."""

    set_cardinalities: Dict[Path, int] = field(default_factory=dict)
    #: The profiled object's match indexes: :meth:`distinct` is a table's size.
    indexes: Optional[TargetIndexes] = None

    # -- collection -----------------------------------------------------------------
    @classmethod
    def collect(
        cls, database: ComplexObject, indexes: Optional[TargetIndexes] = None
    ) -> "DatabaseStatistics":
        """Walk ``database``'s spine and record every spine set's cardinality.

        ``indexes`` is ``database``'s index store — pass one whose build hook
        counts the estimates' builds; a fresh one otherwise.
        """
        stats = cls(indexes=TargetIndexes(database) if indexes is None else indexes)
        # Breadth-first on a list that only grows: no recursion, so a spine of
        # any depth is walked.
        spine = [(database, _ROOT)]
        for value, path in spine:
            if isinstance(value, TupleObject):
                for name, item in value.items():
                    spine.append((item, path.child(name)))
            elif isinstance(value, SetObject):
                stats.set_cardinalities[path] = len(value)
        return stats

    # -- estimates ------------------------------------------------------------------
    def cardinality(self, set_path: Path, shapes=None) -> float:
        """Estimated element count of the set at ``set_path``.

        Resolution order: the profiled count, then a bound derived from
        ``shapes`` (a grounded :class:`~repro.lint.shapes.ProgramShapes`: a
        dead region estimates 0, a finite ``max_card`` caps the guess), then
        :data:`DEFAULT_CARDINALITY`.
        """
        known = self.set_cardinalities.get(set_path)
        if known is not None:
            return float(known)
        if shapes is not None and shapes.grounded:
            bound = shapes.set_cardinality(set_path)
            if bound is not None:
                return bound
        return DEFAULT_CARDINALITY

    def distinct(self, set_path: Path, key_path: Path, shapes=None) -> float:
        """Distinct atoms at ``key_path`` inside the elements at ``set_path``.

        The size of that ``(set path, key path)``'s bucket table.  Falls back
        to the square root of the cardinality (the textbook guess for an
        unknown attribute) when the table is empty or the set cannot be
        indexed (absent, or raw), so an unprofiled key still reads as
        somewhat selective.
        """
        table = None if self.indexes is None else self.indexes.table(set_path, key_path)
        if table:
            return float(len(table))
        return max(1.0, self.cardinality(set_path, shapes) ** 0.5)

    def equality_estimate(self, set_path: Path, key_path: Path, shapes=None) -> float:
        """Estimated elements surviving an equality probe at ``key_path``."""
        cardinality = self.cardinality(set_path, shapes)
        return max(1.0, cardinality / self.distinct(set_path, key_path, shapes))
