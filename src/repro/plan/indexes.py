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

A :class:`TargetIndexes` therefore buckets the elements of the set at one
attribute path (a :class:`repro.core.paths.Path`, as in the persistent
store's ``PathIndex``) by the atom found at one key path inside the element,
building each table at its first read.  Two readers share a table: the
executor's probe and the optimizer's ``V(R, a)`` statistic, which is the
table's size (:meth:`repro.plan.statistics.DatabaseStatistics.distinct`), so
a plan and the cursor running it bucket a set once.  Targets are immutable,
so a table is never maintained: a closure round matches against a new
database and switches to :meth:`TargetIndexes.over` it, which keeps the
tables of every set the round left alone — hash-consing makes it the same
object — and rebuilds the others when they are next read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.calculus.terms import Constant, Formula, TupleFormula, Variable
from repro.core.intern import is_interned, node_memo
from repro.core.objects import Atom, ComplexObject, SetObject, TupleObject
from repro.core.paths import Path, navigate
from repro.obs.trace import NULL_SPAN

__all__ = ["TargetIndexes", "element_keys", "ElementKey"]

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


def _bucket(members: SetObject, key_path: Path) -> Dict[Atom, List[ComplexObject]]:
    """The elements of ``members`` grouped by the atom at ``key_path``, in set order.

    The one function that buckets a set: elements without an atom there are
    left out.  At the root path an element is its own key and alone in its
    bucket, so the pass skips the per-element walk.
    """
    elements = members.elements
    if not key_path.steps:
        return {element: [element] for element in elements if isinstance(element, Atom)}
    table: Dict[Atom, List[ComplexObject]] = {}
    for element in elements:
        key = _atom_at(element, key_path)
        if key is not None:
            table.setdefault(key, []).append(element)
    return table


class TargetIndexes:
    """The match indexes of one immutable target, each built when first read.

    A table maps the atoms at one key path inside the elements of the set at
    one set path to the elements carrying them.  The first reader of a
    ``(set path, key path)`` — an atom-keyed probe or a distinct-atom
    estimate — builds its table in one pass over the set (:func:`_bucket`),
    a key nothing reads builds nothing, and whatever
    cannot be indexed answers ``None`` so the executor scans — a non-atom
    key, a path that holds no set, or a set that is not interned (a raw set
    may hold ⊤ below an element, which matches every atom and which no
    bucket would list).

    ``on_build(set_path, key_path, elements)`` returns the context manager a
    build runs under; the session counts and traces its builds through it.
    """

    __slots__ = ("target", "_sets", "_tables", "_on_build")

    def __init__(self, target: ComplexObject, on_build=None):
        #: Held strongly: the session keys its stores on the target's identity.
        self.target = target
        #: The indexable set at each set path navigated so far (``None``: scan).
        self._sets: Dict[Path, Optional[SetObject]] = {}
        self._tables: Dict[Tuple[Path, Path], Dict[Atom, List[ComplexObject]]] = {}
        self._on_build = on_build

    def over(self, target: ComplexObject) -> "TargetIndexes":
        """The store of ``target``, a later version of this one's target.

        Keeps every table whose set path holds the very same interned set in
        ``target`` — in a hash-consed database, every set the change left
        alone — and builds the others afresh at their first read.
        """
        if target is self.target:
            return self
        following = TargetIndexes(target, self._on_build)
        for set_path, node in self._sets.items():
            if node is not None and navigate(target, set_path) is node:
                following._sets[set_path] = node
        following._tables = {
            key: table for key, table in self._tables.items() if key[0] in following._sets
        }
        return following

    def candidates(
        self, set_path: Path, key_path: Path, key: ComplexObject
    ) -> Optional[Sequence[ComplexObject]]:
        """Elements of the set at ``set_path`` carrying atom ``key`` at ``key_path``.

        ``None`` when the store cannot answer; the empty tuple is a
        definitive "nothing can match".  A hit is the stored bucket itself,
        not a copy — probes sit on the per-row path of every join — so
        callers only iterate and measure it, never mutate or keep it.
        """
        if not isinstance(key, Atom):
            return None
        table = self._tables.get((set_path, key_path)) or self.table(set_path, key_path)
        return None if table is None else table.get(key, ())

    def table(self, set_path: Path, key_path: Path) -> Optional[Dict[Atom, List[ComplexObject]]]:
        """The ``atom → elements`` table of ``(set_path, key_path)``, built by its first reader.

        The reader is a probe (:meth:`candidates`) or the optimizer's
        distinct-atom estimate (its size); ``None`` when the set at
        ``set_path`` cannot be indexed.  Callers never mutate it.
        """
        table = self._tables.get((set_path, key_path))
        if table is not None:
            return table
        try:
            members = self._sets[set_path]
        except KeyError:
            node = navigate(self.target, set_path)
            members = node if isinstance(node, SetObject) and is_interned(node) else None
            self._sets[set_path] = members
        if members is None:
            return None
        span = NULL_SPAN
        if self._on_build is not None:
            span = self._on_build(set_path, key_path, len(members))
        with span:
            table = self._tables[set_path, key_path] = _bucket(members, key_path)
        return table
