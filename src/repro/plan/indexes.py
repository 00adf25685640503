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
attribute path (a :class:`repro.core.paths.Path`) by the atom found at one
key path inside the element.
Two readers share a table: the executor's probe and the optimizer's
``V(R, a)`` statistic, its size
(:meth:`repro.plan.statistics.DatabaseStatistics.distinct`).  The table lives
on the interned set, not in the store: a store over a later target (the next
closure round or session version) finds every set the change left alone
with its tables, and a set ``add``, ``discard`` or a union derived carries
its parent's tables with only the touched buckets rebuilt.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.calculus.terms import Constant, Formula, Parameter, TupleFormula, Variable
from repro.core.intern import is_interned, node_memo
from repro.core.objects import Atom, ComplexObject, SetObject
from repro.core.order import _carried, _tabled
from repro.core.paths import Path, navigate
from repro.obs.trace import NULL_SPAN

__all__ = ["ElementKeys", "TargetIndexes", "element_keys"]

_ROOT = Path(())

#: The lookup keys of one element formula, each an (attribute path inside the
#: element, key) pair: ``(static, dynamic, param)``, keyed by a ground atom, a
#: variable name and a ``$parameter`` name.
ElementKeys = Tuple[
    Tuple[Tuple[Path, Atom], ...],
    Tuple[Tuple[Path, str], ...],
    Tuple[Tuple[Path, str], ...],
]


@node_memo("element_keys")  # bounded: long-lived processes see many programs
def element_keys(element_formula: Formula) -> ElementKeys:
    """The usable lookup keys of one set-element formula: ``(static, dynamic, param)``.

    Static keys pair a key path with a ground atom constant and probe at
    once; dynamic keys pair it with a variable name, usable once an earlier
    leaf binds the variable to an atom; param keys pair it with a
    ``$parameter`` name, a static probe once an execution binds the slot to
    an atom.  Keys address paths through nested tuple formulae, in walk
    order; the empty path covers element formulae that *are* an atom
    constant, a bare variable or a parameter.  Nothing below a nested set
    formula is collected — those attributes belong to inner witnesses, not
    to the indexed element.
    """
    static: List[Tuple[Path, Atom]] = []
    dynamic: List[Tuple[Path, str]] = []
    param: List[Tuple[Path, str]] = []

    def walk(node: Formula, path: Path) -> None:
        if isinstance(node, TupleFormula):
            for name, child in node.items():
                walk(child, path.child(name))
        elif isinstance(node, Constant) and isinstance(node.value, Atom):
            static.append((path, node.value))
        elif isinstance(node, Variable):
            dynamic.append((path, node.name))
        elif isinstance(node, Parameter):
            param.append((path, node.name))

    walk(element_formula, _ROOT)
    return tuple(static), tuple(dynamic), tuple(param)


class TargetIndexes:
    """The match indexes of one immutable target, read off its sets.

    A table maps the atoms at one key path inside the elements of the set at
    one set path to the elements carrying them, and is kept on the interned
    set itself (``repro.core.order``).  A set that no ``add``, ``discard``
    or union derived is bucketed in one pass by the first reader of the
    ``(set path, key path)`` — an atom-keyed probe or a distinct-atom
    estimate.  Whatever cannot be indexed answers ``None`` so the executor
    scans — a non-atom key, a path that holds no set, or a set that is not
    interned (a raw set may hold ⊤ below an element, which matches every
    atom and which no bucket would list).

    ``on_build(set_path, key_path, elements)`` returns the context manager a
    build runs under; the session counts and traces its builds through it.
    """

    __slots__ = ("target", "_sets", "_on_build")

    def __init__(self, target: ComplexObject, on_build=None):
        self.target = target
        #: The indexable set at each set path navigated so far (``None``: scan).
        self._sets: Dict[Path, Optional[SetObject]] = {}
        self._on_build = on_build

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
        table = self.table(set_path, key_path)
        return None if table is None else table.get(key, ())

    def table(self, set_path: Path, key_path: Path) -> Optional[Dict[Atom, List[ComplexObject]]]:
        """The ``atom → elements`` table of ``(set_path, key_path)``: the one the
        set carries, else built by this first reader.

        The reader is a probe (:meth:`candidates`) or the optimizer's
        distinct-atom estimate (its size); ``None`` when the set at
        ``set_path`` cannot be indexed.  Callers never mutate it.
        """
        try:
            members = self._sets[set_path]
        except KeyError:
            node = navigate(self.target, set_path)
            members = node if isinstance(node, SetObject) and is_interned(node) else None
            self._sets[set_path] = members
        if members is None:
            return None
        table = _carried(members, key_path)
        if table is None:
            build = self._on_build
            with NULL_SPAN if build is None else build(set_path, key_path, len(members)):
                table = _tabled(members, key_path)
        return table
