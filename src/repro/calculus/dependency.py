"""Rule dependency analysis: the scheduler's graph.

The naive fixpoint of :func:`repro.calculus.fixpoint.close` applies *every*
rule on *every* round, even when most rules can no longer contribute anything.
The engine instead orders rules by a conservative dependency relation:

* a rule **writes** at the attribute paths where its head places content;
* a rule **reads** at the attribute paths its body inspects;
* rule ``r2`` depends on ``r1`` when something ``r1`` writes can change what
  ``r2`` reads.

Paths are sequences of tuple-attribute names (reusing
:class:`repro.core.paths.Path`).  Both the read and the write analysis stop
at the first *access point* along a branch — a variable, a constant, or a set
formula — because from there on the affected region is the whole subtree:

* a variable reads (or writes, once instantiated) an arbitrary object below
  its path;
* a ground constant carries content below its path;
* a set formula's witnesses (or contributed elements) live below its path.

Two access points interact exactly when one path is a prefix of the other, so
the dependency test is a pairwise prefix check.  The relation is deliberately
an over-approximation: a spurious edge only costs scheduling freedom, never
correctness, whereas a missing edge would let the scheduler freeze a rule
whose input was still growing.

Strongly-connected components of the dependency graph are the engine's
*strata*: evaluated in topological order, a non-recursive stratum needs a
single application, while a recursive stratum (a cycle, or a rule depending
on itself) is iterated to a local fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Sequence, Set, Tuple

from repro.calculus.rules import Rule
from repro.calculus.terms import (
    Constant,
    Formula,
    Parameter,
    SetFormula,
    TupleFormula,
    Variable,
)
from repro.core.paths import Path

__all__ = ["Stratum", "DependencyGraph", "access_paths"]

_ROOT = Path(())


def access_paths(formula: Formula) -> Tuple[Path, ...]:
    """The paths of a formula's access points (variables, constants, sets).

    Recursion descends through tuple formulae only; the path of a set formula
    stands for everything inside it, the path of a variable or constant for
    everything it may bind or carry.  The paths come in the formula's own
    order, never a hash order, so :func:`paths_interact` over them stops at
    the same pair under every ``PYTHONHASHSEED``.
    """
    found: List[Path] = []

    def walk(node: Formula, path: Path) -> None:
        if isinstance(node, TupleFormula):
            if not len(node):
                # An empty tuple formula matches any tuple: it reads (and a
                # head writes) the tuple's existence at this very path.
                found.append(path)
                return
            for name, child in node.items():
                walk(child, path.child(name))
            return
        if isinstance(node, (SetFormula, Variable, Constant, Parameter)):
            # A parameter is a constant slot whose value arrives at execute
            # time: like a constant, it carries content below its path.
            found.append(path)
            return
        raise TypeError(f"not a formula: {node!r}")

    walk(formula, _ROOT)
    return tuple(found)


def _is_prefix(shorter: Path, longer: Path) -> bool:
    return longer.steps[: len(shorter.steps)] == shorter.steps


def paths_interact(produced: Collection[Path], consumed: Collection[Path]) -> bool:
    """``True`` when some produced path may change some consumed region.

    Stops at the first interacting pair: over ordered collections (as
    :func:`access_paths` returns) its work does not depend on the hash seed.
    """
    for write in produced:
        for read in consumed:
            if _is_prefix(write, read) or _is_prefix(read, write):
                return True
    return False


@dataclass(frozen=True)
class Stratum:
    """One scheduling unit: a strongly-connected component of rules.

    ``recursive`` is ``True`` when the component must be iterated (it contains
    a cycle or a self-dependent rule); otherwise a single application reaches
    the component's fixpoint.
    """

    rules: Tuple[Rule, ...]
    recursive: bool


class DependencyGraph:
    """The produces/consumes graph over a sequence of rules."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self._writes = [access_paths(rule.head) for rule in self.rules]
        self._reads = [
            access_paths(rule.body) if rule.body is not None else ()
            for rule in self.rules
        ]
        # edges[i] = indices of rules whose body may observe rule i's output.
        self.edges: Dict[int, Set[int]] = {i: set() for i in range(len(self.rules))}
        for producer in range(len(self.rules)):
            for consumer in range(len(self.rules)):
                if paths_interact(self._writes[producer], self._reads[consumer]):
                    self.edges[producer].add(consumer)

    def depends_on(self, consumer: int, producer: int) -> bool:
        """``True`` when rule ``consumer`` reads what rule ``producer`` writes."""
        return consumer in self.edges[producer]

    # -- strongly-connected components -------------------------------------------
    def sccs(self) -> List[List[int]]:
        """Tarjan's SCCs, in topological order (producers before consumers)."""
        order = len(self.rules)
        index: Dict[int, int] = {}
        lowlink: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        components: List[List[int]] = []
        counter = [0]

        for root in range(order):
            if root in index:
                continue
            # Iterative Tarjan: (node, iterator-position) work list.
            work: List[Tuple[int, int]] = [(root, 0)]
            while work:
                node, position = work.pop()
                if position == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                successors = sorted(self.edges[node])
                recurse = False
                for next_position in range(position, len(successors)):
                    successor = successors[next_position]
                    if successor not in index:
                        work.append((node, next_position + 1))
                        work.append((successor, 0))
                        recurse = True
                        break
                    if successor in on_stack:
                        lowlink[node] = min(lowlink[node], index[successor])
                if recurse:
                    continue
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        # Tarjan emits components consumers-first; the scheduler wants
        # producers first.
        components.reverse()
        return components

    def strata(self) -> List[Stratum]:
        """SCCs as scheduling strata, producers first."""
        result: List[Stratum] = []
        for component in self.sccs():
            recursive = len(component) > 1 or self.depends_on(
                component[0], component[0]
            )
            result.append(
                Stratum(
                    rules=tuple(self.rules[i] for i in component),
                    recursive=recursive,
                )
            )
        return result

    def __repr__(self) -> str:
        edge_count = sum(len(targets) for targets in self.edges.values())
        return f"<DependencyGraph {len(self.rules)} rules, {edge_count} edges>"
