"""Match indexes: hash lookups for set-element witnesses.

The matcher's inner loop tries an element formula against every element of a
set.  When the formula pins an attribute path inside the element to an atom —
either statically (a ground atom constant, as in ``[name: abraham]``) or
dynamically (a variable the running partial substitution has already bound to
an atom, the join case of Example 4.5) — only elements carrying exactly that
atom at that path can survive the strict semantics: an absent attribute reads
⊥, a different atom meets to ⊥, and a tuple or set at the path is incomparable
with an atom.  Normalized objects cannot contain ⊤ below a set element (the
constructors collapse such objects), so equality on the atom is the complete
candidate condition.

A :class:`MatchIndex` therefore buckets the elements of the set at one
attribute path (a :class:`repro.core.paths.Path`, as in the persistent
store's ``PathIndex``) by the atom found at each registered key path inside
the element.  Unlike ``store.PathIndex`` it is maintained *incrementally
during evaluation*: after every round the :class:`IndexStore` feeds it just
the new elements.  Elements absorbed by set reduction are left in the buckets
on purpose — matching a stale element only re-derives results dominated by the
absorbing element, which the union absorbs — so removal bookkeeping stays off
the hot path.  An index store outlives one run when a session resumes the
engine from a cached closure, so the stale share is bounded: a refresh that
would leave an index covering more than twice the live elements of its set
rebuilds it from the current database instead (amortized O(1) per absorbed
element, and a long-lived session cannot grow without bound).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.calculus.terms import Constant, Formula, SetFormula, TupleFormula, Variable
from repro.core.intern import is_interned, node_memo
from repro.core.objects import Atom, ComplexObject, SetObject, TupleObject
from repro.core.paths import Path, navigate, new_set_elements
from repro.obs.trace import NULL_SPAN
from repro.plan.stats import EngineStats

__all__ = ["MatchIndex", "IndexStore", "TargetIndexes", "element_keys", "ElementKey"]

_ROOT = Path(())

#: One candidate lookup key of an element formula: the attribute path inside
#: the element paired with either a ground atom (static) or a variable name
#: (dynamic, usable once the variable is bound to an atom).
ElementKey = Tuple[Path, Union[Atom, str]]


@node_memo("element_keys")  # bounded: long-lived processes see many programs
def element_keys(element_formula: Formula) -> Tuple[ElementKey, ...]:
    """The usable lookup keys of one set-element formula, static keys first.

    Keys address paths through nested tuple formulae; the empty path covers
    element formulae that *are* an atom constant or a bare variable.  Nothing
    below a nested set formula is collected — those attributes belong to inner
    witnesses, not to the indexed element.
    """
    static: List[ElementKey] = []
    dynamic: List[ElementKey] = []

    def walk(node: Formula, path: Path) -> None:
        if isinstance(node, TupleFormula):
            for name, child in node.items():
                walk(child, path.child(name))
        elif isinstance(node, Constant) and isinstance(node.value, Atom):
            static.append((path, node.value))
        elif isinstance(node, Variable):
            dynamic.append((path, node.name))

    walk(element_formula, _ROOT)
    return tuple(static) + tuple(dynamic)


def _atom_at(element: ComplexObject, path: Path) -> Optional[Atom]:
    """The atom at ``path`` inside ``element`` (tuple steps only), else ``None``."""
    current = element
    for step in path:
        if not isinstance(current, TupleObject):
            return None
        current = current.get(step)
    return current if isinstance(current, Atom) else None


class MatchIndex:
    """Buckets of one set's elements, keyed by the atoms at given key paths."""

    __slots__ = ("set_path", "key_paths", "_buckets", "_seen")

    def __init__(self, set_path: Path, key_paths: Iterable[Path]):
        self.set_path = set_path
        self.key_paths: Tuple[Path, ...] = tuple(dict.fromkeys(key_paths))
        self._buckets: Dict[Path, Dict[Atom, List[ComplexObject]]] = {
            path: {} for path in self.key_paths
        }
        # Database elements are interned, so structural identity coincides
        # with instance identity: the seen-set keys on id() (with the object
        # kept as the value so the id stays pinned) and membership never has
        # to hash or compare object trees.
        self._seen: Dict[int, ComplexObject] = {}

    def __repr__(self) -> str:
        return (
            f"<MatchIndex on {self.set_path or '<root>'}"
            f" keys={[str(p) for p in self.key_paths]}"
            f" covering {len(self._seen)} elements>"
        )

    def __len__(self) -> int:
        return len(self._seen)

    # -- maintenance ---------------------------------------------------------------
    def add(self, element: ComplexObject) -> None:
        """Index one element (idempotent)."""
        marker = id(element)
        if marker in self._seen:
            return
        self._seen[marker] = element
        for key_path in self.key_paths:
            key = _atom_at(element, key_path)
            if key is not None:
                self._buckets[key_path].setdefault(key, []).append(element)

    def extend(self, elements: Iterable[ComplexObject]) -> None:
        for element in elements:
            self.add(element)

    def clear(self) -> None:
        self._seen.clear()
        for bucket in self._buckets.values():
            bucket.clear()

    def build(self, key_path: Path, elements: Iterable[ComplexObject]) -> None:
        """Register ``key_path`` and bucket ``elements`` at it, in one pass.

        The build-at-first-probe policy of :class:`TargetIndexes`: the set is
        immutable and handed over whole, so there is no ``_seen`` bookkeeping
        (``len()`` keeps counting incrementally added elements only) and the
        pass costs no more than one scan of the same elements — which a
        session pays once per fresh closure, so the root path, where an
        element is its own key and alone in its bucket, skips the per-element
        call.
        """
        bucket: Dict[Atom, List[ComplexObject]]
        if not key_path.steps:
            bucket = {
                element: [element] for element in elements if isinstance(element, Atom)
            }
        else:
            bucket = {}
            for element in elements:
                key = _atom_at(element, key_path)
                if key is not None:
                    bucket.setdefault(key, []).append(element)
        self.key_paths += (key_path,)
        self._buckets[key_path] = bucket

    # -- queries --------------------------------------------------------------------
    def candidates(
        self, key_path: Path, key: ComplexObject
    ) -> Optional[Sequence[ComplexObject]]:
        """Elements whose value at ``key_path`` is the atom ``key``.

        ``None`` when this index cannot answer (unregistered path or non-atom
        key); the empty tuple is a definitive "nothing can match".  A hit is
        the stored bucket itself, not a copy — probes sit on the per-row path
        of every join — so callers only iterate and measure it, never mutate
        it or keep it across a :meth:`add`.
        """
        if not isinstance(key, Atom):
            return None
        bucket = self._buckets.get(key_path)
        if bucket is None:
            return None
        return bucket.get(key, ())


class IndexStore:
    """All the match indexes of one engine run, refreshed after every round."""

    def __init__(self, stats: Optional[EngineStats] = None):
        self._indexes: Dict[Path, MatchIndex] = {}
        self._wanted: Dict[Path, List[Path]] = {}
        self.stats = stats if stats is not None else EngineStats()

    def __len__(self) -> int:
        return len(self._indexes)

    def register(self, set_path: Path, key_paths: Iterable[Path]) -> None:
        """Declare that the matcher will probe ``set_path`` at ``key_paths``.

        Must be called before :meth:`refresh` first populates the store.
        """
        bucket = self._wanted.setdefault(set_path, [])
        for path in key_paths:
            if path not in bucket:
                bucket.append(path)

    def register_body(self, body: Formula) -> None:
        """Register every indexable set position of a rule body."""

        def walk(node: Formula, path: Path) -> None:
            if isinstance(node, TupleFormula):
                for name, child in node.items():
                    walk(child, path.child(name))
            elif isinstance(node, SetFormula):
                key_paths = [
                    key_path
                    for element in node.elements
                    for key_path, _ in element_keys(element)
                ]
                if key_paths:
                    self.register(path, key_paths)

        walk(body, _ROOT)

    def refresh(self, previous: ComplexObject, current: ComplexObject) -> None:
        """Bring every index up to date after the database grew.

        New elements are computed per path from the (previous, current) pair.
        The index is rebuilt from ``current`` instead when no sound delta
        exists, when it was registered (or gained a key path) after the last
        refresh, or when it would cover more than twice the live set.
        """
        for set_path, wanted_keys in self._wanted.items():
            now = navigate(current, set_path)
            live = now.elements if isinstance(now, SetObject) else ()
            index = self._indexes.get(set_path)
            fresh = None
            if index is not None and index.key_paths == tuple(wanted_keys):
                fresh = new_set_elements(previous, current, set_path)
            if fresh is None or len(index) + len(fresh) > 2 * len(live):
                index = self._indexes[set_path] = MatchIndex(set_path, wanted_keys)
                fresh = live
            index.extend(fresh)

    def candidates(
        self, set_path: Path, key_path: Path, key: ComplexObject
    ) -> Optional[Sequence[ComplexObject]]:
        """Delegate to the index at ``set_path``; ``None`` when it cannot answer."""
        index = self._indexes.get(set_path)
        if index is None:
            return None
        return index.candidates(key_path, key)


class TargetIndexes:
    """The match indexes of one immutable query target, built when first probed.

    Same ``candidates`` contract as :class:`IndexStore`, no registration and
    no refresh: the first atom-keyed probe of a ``(set path, key path)``
    buckets that set in one pass, a leaf that never probes builds nothing,
    and whatever cannot be indexed answers ``None`` so the executor scans — a
    non-atom key, a path that holds no set, or a set that is not interned (a
    raw set may hold ⊤ below an element, which matches every atom and which
    no bucket would list).

    ``on_build(set_path, key_path, elements)`` returns the context manager a
    build runs under; the session counts and traces its builds through it.
    """

    __slots__ = ("target", "entries", "_indexes", "_on_build")

    def __init__(self, target: ComplexObject, on_build=None):
        #: Held strongly: the session keys its stores on the target's identity.
        self.target = target
        #: ``(set path, key path)`` bucket tables built so far.
        self.entries = 0
        self._indexes: Dict[Path, Optional[MatchIndex]] = {}
        self._on_build = on_build

    def candidates(
        self, set_path: Path, key_path: Path, key: ComplexObject
    ) -> Optional[Sequence[ComplexObject]]:
        """Elements of the set at ``set_path`` carrying atom ``key`` at ``key_path``."""
        try:
            index = self._indexes[set_path]
        except KeyError:
            node = navigate(self.target, set_path)
            indexable = isinstance(node, SetObject) and is_interned(node)
            index = self._indexes[set_path] = (
                MatchIndex(set_path, ()) if indexable else None
            )
        if index is None:
            return None
        found = index.candidates(key_path, key)
        if found is None and isinstance(key, Atom):
            elements = navigate(self.target, set_path).elements
            self.entries += 1
            span = NULL_SPAN
            if self._on_build is not None:
                span = self._on_build(set_path, key_path, len(elements))
            with span:
                index.build(key_path, elements)
            found = index.candidates(key_path, key)
        return found
