"""Path indexes: accelerate pattern selections over stored collections.

A :class:`PathIndex` maps the values found at one attribute path (descending
through sets, see :func:`repro.core.paths.iter_paths`) to the names of the
stored objects containing them.  The :class:`ObjectDatabase` consults its
indexes before falling back to a scan when answering ``find`` queries, and
the static selections of a session query's plan leaves are probed against
them to short-circuit whole-database queries (see
:meth:`repro.store.ObjectDatabase.access_path`);
``benchmarks/run_plan_benchmarks.py`` measures that pushdown.

Maintenance is O(keys-of-the-object), not O(index): alongside the inverted
``value → names`` entries the index keeps a reverse ``name → keys`` map, so
:meth:`PathIndex.remove` (and therefore every re-``add`` on overwrite) drops
exactly the entries the object contributed instead of scanning the full
table.  ``benchmarks/run_store_benchmarks.py`` records the before/after of
this change as the ``indexed_write`` speedup.

Wildcards
---------
An object carrying ⊤ on (or at the end of) the indexed path matches *any*
probe value under the sub-object order, so such names are kept in a separate
wildcard set that every :meth:`lookup` unions in.  This makes a lookup miss a
definitive "no stored witness" — the property the query planner's index
short-circuit relies on — instead of silently dropping ⊤-carrying objects
the way a plain value bucket would.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple, Union

from repro.core.objects import ComplexObject, SetObject, TupleObject
from repro.core.paths import Path

__all__ = ["PathIndex"]


class PathIndex:
    """An inverted index from values at a path to object names."""

    def __init__(self, path: Union[Path, str]):
        self.path = path if isinstance(path, Path) else Path(path)
        self._entries: Dict[ComplexObject, Set[str]] = {}
        self._keys_by_name: Dict[str, Set[ComplexObject]] = {}
        self._wildcards: Set[str] = set()

    def __repr__(self) -> str:
        return f"<PathIndex on {self.path} covering {len(self._keys_by_name)} objects>"

    # -- maintenance ---------------------------------------------------------------
    def add(self, name: str, value: ComplexObject) -> None:
        """Index the stored object ``value`` under ``name``."""
        self.assign(name, self.keys_of(value))

    def assign(self, name: str, keyed: Tuple[Set[ComplexObject], bool]) -> None:
        """Index ``name`` under ``keyed``, the :meth:`keys_of` its object.

        Cannot fail, so a commit computes every ``keys_of`` first and then
        assigns: a batch that fails leaves the index as it was.
        """
        keys, wildcard = keyed
        self.remove(name)
        if wildcard:
            self._wildcards.add(name)
        for key in keys:
            self._entries.setdefault(key, set()).add(name)
        self._keys_by_name[name] = keys

    def remove(self, name: str) -> None:
        """Drop ``name`` from the index (no error when absent).

        Costs O(keys the object contributed) via the reverse map — a full
        scan of the inverted table is never needed.
        """
        self._wildcards.discard(name)
        keys = self._keys_by_name.pop(name, None)
        if keys is None:
            return
        for key in keys:
            names = self._entries.get(key)
            if names is not None:
                names.discard(name)
                if not names:
                    del self._entries[key]

    def rebuild(self, items: Iterable[Tuple[str, ComplexObject]]) -> None:
        """Re-index the whole collection from scratch."""
        self._entries.clear()
        self._keys_by_name.clear()
        self._wildcards.clear()
        for name, value in items:
            self.add(name, value)

    def keys_of(self, value: ComplexObject) -> Tuple[Set[ComplexObject], bool]:
        """The values at the path in ``value``, and whether ⊤ makes it a wildcard.

        Follows the same traversal as :func:`repro.core.paths.get_path`
        (tuple attributes consume steps, sets are descended transparently)
        but keeps every collected value instead of folding them into a
        normalized set — set reduction would absorb dominated keys — and
        flags ⊤ anywhere along or at the end of the path as a wildcard.
        The walk keeps its own stack, so no nesting depth makes it fail.
        """
        keys: Set[ComplexObject] = set()
        wildcard = False
        pending = [(value, self.path.steps)]
        while pending:
            value, steps = pending.pop()
            if value.is_top:
                wildcard = True
            elif isinstance(value, SetObject):
                for element in value.elements:
                    if element.is_top:
                        wildcard = True
                    elif not steps:
                        keys.add(element)
                    elif isinstance(element, (TupleObject, SetObject)):
                        pending.append((element, steps))
            elif not steps:
                if not value.is_bottom:
                    keys.add(value)
            elif isinstance(value, TupleObject):
                pending.append((value.get(steps[0]), steps[1:]))
        return keys, wildcard

    # -- queries --------------------------------------------------------------------
    def lookup(self, key: ComplexObject) -> FrozenSet[str]:
        """Names of the objects whose path value equals (or contains) ``key``.

        Wildcard names — objects carrying ⊤ on the path — are always
        included, so a miss is a definitive "no stored object can contain
        this value at the path".  Stored values and probe keys are both
        interned, so the dict probe resolves on cached hashes and pointer
        equality — no tree traversal.
        """
        return frozenset(self._entries.get(key, set()) | self._wildcards)

    def covers(self, name: str) -> bool:
        """``True`` when ``name`` has been indexed."""
        return name in self._keys_by_name

    def keys(self) -> Tuple[ComplexObject, ...]:
        """Every distinct indexed key, in canonical order."""
        return tuple(sorted(self._entries, key=lambda item: item.sort_key()))

    def __len__(self) -> int:
        return len(self._entries)
