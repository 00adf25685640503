"""Whole-program shape inference: the stratified SCC fixpoint.

The analysis runs the program's dependency graph (the engine's own
:class:`~repro.calculus.dependency.DependencyGraph`) producers-first and
computes, per rule, an abstract contribution shape, and for the program a
database shape ``D̂`` over-approximating every value the closure passes
through:

1. the **base** is the exact shape of the provided database (when given)
   merged with every fact's contribution;
2. each non-recursive SCC is interpreted once; each recursive SCC is
   iterated to a local fixpoint under :func:`~repro.lint.shapes.domain.widen`
   and :func:`~repro.lint.shapes.domain.truncate` (finite domain height, so
   the loop terminates; a round cap widens to ⊤ as a belt-and-braces);
3. a final diagnosis pass re-interprets every rule (and, on demand, a query)
   against the final ``D̂*`` so failures describe the *whole-program* shape,
   not an intermediate round.

Interpreting one body is an abstract run of the matcher: the body formula is
walked against ``D̂``, variables accumulate meet-refined binding shapes,
``$parameter`` slots record the shape a bound value must fit, and any
impossibility is classified:

* ``"literal"`` — a structural mismatch against derivable content (no
  derivable object can match this literal);
* ``"empty"`` — the region the literal reads is provably empty (its
  producers are all statically empty), the transitive case RL005's
  path-interaction reachability cannot see;
* ``"contradiction"`` — two literals constrain one variable to shapes whose
  meet is empty.

Closed-world discipline: emptiness is only meaningful **relative to the
program's facts and the provided database**.  Without a database
(``closed=False``) a spine path the program never writes falls back to
:data:`~repro.lint.shapes.domain.ANY` — a session's store may hold data the
program cannot see — and without any grounding at all (no database, no
facts) consumers must not trust emptiness: :attr:`ProgramShapes.grounded`
gates every check and every pruning decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.calculus.rules import Rule
from repro.calculus.terms import (
    Constant,
    Formula,
    Parameter,
    SetFormula,
    TupleFormula,
    Variable,
)
from repro.core.objects import BOTTOM, ComplexObject
from repro.calculus.dependency import DependencyGraph, paths_interact
from repro.lint.shapes.domain import (
    ABSENT,
    ANY,
    TOPANY,
    SetShape,
    Shape,
    TupleShape,
    admits,
    join,
    make_tuple,
    meet,
    merge,
    self_merge,
    shape_of_object,
    truncate,
    widen,
)
from repro.core.paths import Path

__all__ = [
    "BodyAbstract",
    "MatchFailure",
    "ProgramShapes",
    "RuleShape",
    "infer_shapes",
]

_ROOT = Path(())

#: Fixpoint round cap per recursive SCC; on overrun the database shape widens
#: to ⊤ (sound, maximally imprecise).  The widened domain has finite height,
#: so this is a safety net, not the termination argument.
_MAX_ROUNDS = 64


@dataclass(frozen=True)
class MatchFailure:
    """Why an abstract body match is impossible."""

    kind: str  # "literal" | "empty" | "contradiction"
    subject: str  # the sub-formula / variable / path the failure is about
    detail: str  # human-readable sentence


@dataclass(frozen=True)
class BodyAbstract:
    """The abstract result of matching one body against the database shape."""

    failure: Optional[MatchFailure]
    bindings: Tuple[Tuple[str, Shape], ...]
    params: Tuple[Tuple[str, Shape], ...]

    def binding(self, name: str) -> Optional[Shape]:
        for var, shape in self.bindings:
            if var == name:
                return shape
        return None


@dataclass(frozen=True)
class RuleShape:
    """One rule's summary: its abstract contribution and why it may be empty."""

    index: int  # 0-based position in the program
    contribution: Shape
    failure: Optional[MatchFailure] = None


class _Matcher:
    """One abstract run of the matcher: body formula against database shape."""

    def __init__(self, db: Shape, written: FrozenSet[Path], closed: bool):
        self.db = db
        self.written = written
        self.closed = closed
        self.bindings: Dict[str, Shape] = {}
        self.params: Dict[str, Shape] = {}
        self.failure: Optional[MatchFailure] = None

    def run(self, body: Formula) -> BodyAbstract:
        self._walk(body, self.db, _ROOT, in_element=False)
        return BodyAbstract(
            failure=self.failure,
            bindings=tuple(sorted(self.bindings.items())),
            params=tuple(sorted(self.params.items())),
        )

    # -- plumbing ---------------------------------------------------------------------
    def _fail(self, kind: str, subject: str, detail: str) -> None:
        if self.failure is None:
            self.failure = MatchFailure(kind=kind, subject=subject, detail=detail)

    def _absent_kind(self, in_element: bool) -> str:
        # A missing attribute on derivable *elements* is a structural
        # mismatch; a missing spine region means its producers are empty.
        return "literal" if in_element else "empty"

    def _child(self, shape: Shape, name: str, path: Path, in_element: bool) -> Shape:
        """Shape of tuple attribute ``name`` under a region of ``shape``."""
        if shape == TOPANY:
            return TOPANY
        if shape == ANY:
            return ANY
        child = shape.get(name) if isinstance(shape, TupleShape) else ABSENT
        if (
            child == ABSENT
            and not in_element
            and not self.closed
            and not paths_interact(self.written, frozenset([path.child(name)]))
        ):
            # Open world: the program never writes here, but the session's
            # store might — assume an arbitrary non-⊤ value.
            return ANY
        return child

    # -- the walk ---------------------------------------------------------------------
    def _walk(self, node: Formula, shape: Shape, path: Path, in_element: bool) -> None:
        if self.failure is not None:
            return
        where = str(path) or "<root>"
        if isinstance(node, TupleFormula):
            if shape == ABSENT:
                self._fail(
                    self._absent_kind(in_element),
                    node.to_text(),
                    f"the region at {where} is provably empty",
                )
                return
            if not (shape == ANY or shape == TOPANY or isinstance(shape, TupleShape)):
                self._fail(
                    "literal",
                    node.to_text(),
                    f"matches only tuples but every derivable object at {where}"
                    f" has shape {shape.describe()}",
                )
                return
            for name, child in node.items():
                self._walk(
                    child,
                    self._child(shape, name, path, in_element),
                    path.child(name),
                    in_element,
                )
            return
        if isinstance(node, SetFormula):
            if shape == ABSENT:
                self._fail(
                    self._absent_kind(in_element),
                    node.to_text(),
                    f"the region at {where} is provably empty",
                )
                return
            element = _scan_element(shape)
            if element is None:
                self._fail(
                    "literal",
                    node.to_text(),
                    f"matches only sets but every derivable object at {where}"
                    f" has shape {shape.describe()}",
                )
                return
            if element == ABSENT and len(node):
                self._fail(
                    self._absent_kind(in_element),
                    node.to_text(),
                    f"the set at {where} is provably empty",
                )
                return
            for child in node.elements:
                self._walk(child, element, path, in_element=True)
            return
        if isinstance(node, Variable):
            self._bind(node.name, shape, where, in_element)
            return
        if isinstance(node, Parameter):
            # A parameter is a constant slot: record the shape its eventual
            # value must fit (the RL204 bind-time check); never fail here.
            old = self.params.get(node.name)
            self.params[node.name] = shape if old is None else join(old, shape)
            return
        if isinstance(node, Constant):
            if not admits(shape, node.value):
                kind = self._absent_kind(in_element) if shape == ABSENT else "literal"
                self._fail(
                    kind,
                    node.to_text(),
                    f"{node.to_text()} can never be a sub-object at {where}"
                    f" (inferred shape {shape.describe()})",
                )
            return
        raise TypeError(f"not a formula: {node!r}")

    def _bind(self, name: str, shape: Shape, where: str, in_element: bool) -> None:
        if shape == ABSENT:
            # Strict semantics: a ⊥ binding kills the row.
            self._fail(
                self._absent_kind(in_element),
                name,
                f"{name} can only bind ⊥ at {where}, which strict matching drops",
            )
            return
        old = self.bindings.get(name)
        if old is None:
            self.bindings[name] = shape
            return
        met = meet(old, shape)
        if met == ABSENT:
            self._fail(
                "contradiction",
                name,
                f"requirements on {name} are incompatible:"
                f" {old.describe()} vs {shape.describe()}",
            )
            return
        self.bindings[name] = met


def _scan_element(shape: Shape) -> Optional[Shape]:
    """The element shape a set formula sees at a region, ``None`` when dead.

    Elements of a normalized non-⊤ set are never ⊤ (normalization propagates
    it up), so ANY regions yield ANY elements; a TOPANY region may *be* ⊤,
    against which everything matches with unconstrained witnesses.
    """
    if shape == TOPANY:
        return TOPANY
    if shape == ANY:
        return ANY
    if isinstance(shape, SetShape):
        return shape.element
    return None


def _head_shape(node: Formula, bindings: Mapping[str, Shape]) -> Shape:
    """The shape of ``σ(head)`` for one abstract substitution."""
    if isinstance(node, Variable):
        return bindings.get(node.name, ANY)
    if isinstance(node, Constant):
        return shape_of_object(node.value)
    if isinstance(node, Parameter):
        return ANY  # parameters in rules are RL102 territory
    if isinstance(node, TupleFormula):
        return make_tuple(
            (name, _head_shape(child, bindings)) for name, child in node.items()
        )
    if isinstance(node, SetFormula):
        element: Shape = ABSENT
        count = 0
        for child in node.elements:
            child_shape = _head_shape(child, bindings)
            if child_shape == TOPANY:
                return TOPANY
            if child_shape == ABSENT:
                continue  # ⊥ is dropped from sets
            element = join(element, child_shape)
            count += 1
        return SetShape(element, float(count))
    raise TypeError(f"not a formula: {node!r}")


def _written_paths(rules: Tuple[Rule, ...]) -> FrozenSet[Path]:
    from repro.lint.plans import _written_paths as written

    return written(rules)


@dataclass(frozen=True)
class ProgramShapes:
    """The inference result: database shape, per-rule summaries, provenance."""

    rules: Tuple[Rule, ...]
    database: Shape
    summaries: Tuple[RuleShape, ...]
    #: ``True`` when emptiness is meaningful: a database was provided or the
    #: program has at least one fact.  Ungrounded results must never prune.
    grounded: bool
    #: ``True`` when the provided database is the whole world (engine runs,
    #: ``--db-path`` lints); ``False`` applies the open-world ANY fallback at
    #: spine paths the program never writes.
    closed: bool
    written: FrozenSet[Path]

    # -- region lookups ---------------------------------------------------------------
    def shape_at(self, path: Path) -> Shape:
        """The inferred shape of the region at ``path`` (fallback applied)."""
        shape = self.database
        current = _ROOT
        for step in path.steps:
            if shape == TOPANY:
                return TOPANY
            if shape == ANY:
                return ANY
            current = current.child(step)
            shape = shape.get(step) if isinstance(shape, TupleShape) else ABSENT
            if (
                shape == ABSENT
                and not self.closed
                and not paths_interact(self.written, frozenset([current]))
            ):
                return ANY
        return shape

    def scan_element(self, path: Path) -> Optional[Shape]:
        """Element shape a scan at ``path`` enumerates; ``None`` = provably dead."""
        element = _scan_element(self.shape_at(path))
        if element == ABSENT:
            return None
        return element

    def set_cardinality(self, path: Path) -> Optional[float]:
        """A shape-derived cardinality bound for the set at ``path``.

        ``0.0`` when the scan is provably dead, a finite bound when the shape
        carries one, ``None`` when shapes know nothing useful.  Only
        meaningful on grounded inferences (the caller's gate).
        """
        shape = self.shape_at(path)
        if shape in (ANY, TOPANY):
            return None
        if isinstance(shape, SetShape):
            if shape.element == ABSENT:
                return 0.0
            return shape.max_card if shape.max_card != float("inf") else None
        # ABSENT, atoms and tuples: a set scan here never produces a row.
        return 0.0

    # -- abstract matching ------------------------------------------------------------
    def body_abstract(self, body: Formula) -> BodyAbstract:
        """Abstractly match ``body`` against the final database shape."""
        return _Matcher(self.database, self.written, self.closed).run(body)

    def body_failure(self, body: Formula) -> Optional[MatchFailure]:
        """The impossibility proof for ``body``, if any (pruning's question)."""
        if not self.grounded:
            return None
        return self.body_abstract(body).failure

    def summary_lines(self) -> Tuple[Tuple[str, str], ...]:
        """(subject, shape) pairs for reports: the database, then each rule."""
        lines = [("database", self.database.describe())]
        for summary in self.summaries:
            rule = self.rules[summary.index]
            if rule.is_fact:
                continue
            lines.append((f"rule {summary.index + 1}", summary.contribution.describe()))
        return tuple(lines)


def _contribution(
    rule: Rule, db: Shape, written: FrozenSet[Path], closed: bool
) -> Tuple[Shape, Optional[MatchFailure]]:
    """Abstract ``r(D̂)``: match the body, instantiate the head, self-merge."""
    abstract = _Matcher(db, written, closed).run(rule.body)
    if abstract.failure is not None:
        return ABSENT, abstract.failure
    head = _head_shape(rule.head, dict(abstract.bindings))
    return self_merge(head), None


@lru_cache(maxsize=128)
def infer_shapes(
    rules: Tuple[Rule, ...],
    database: Optional[ComplexObject] = None,
) -> ProgramShapes:
    """Run the whole-program inference; memoized on ``(rules, database)``.

    ``rules`` must be a tuple (rules and interned objects are hashable, which
    is what makes the memoization safe and cheap — ``Session.prepare`` calls
    this once per distinct program).  ``database``, when provided, closes the
    world: its exact shape seeds the fixpoint and no open-world fallback
    applies.
    """
    closed = database is not None
    grounded = closed or any(rule.is_fact for rule in rules)
    written = _written_paths(rules)

    base: Shape = shape_of_object(database) if closed else ABSENT
    for rule in rules:
        if rule.is_fact:
            base = merge(base, shape_of_object(rule.apply(BOTTOM)))
    db = truncate(base)

    graph = DependencyGraph(rules)
    for component in graph.sccs():
        members = [i for i in component if not rules[i].is_fact]
        if not members:
            continue
        recursive = len(component) > 1 or graph.depends_on(
            component[0], component[0]
        )
        if not recursive:
            for i in members:
                contribution, _ = _contribution(rules[i], db, written, closed)
                db = truncate(merge(db, contribution))
            continue
        for _round in range(_MAX_ROUNDS):
            new_db = db
            for i in members:
                contribution, _ = _contribution(rules[i], new_db, written, closed)
                new_db = truncate(merge(new_db, contribution))
            new_db = widen(db, new_db)
            if new_db == db:
                break
            db = new_db
        else:
            db = TOPANY

    # Final diagnosis pass: every rule re-interpreted against the final D̂*,
    # so failures and summaries describe the whole program.
    summaries = []
    for index, rule in enumerate(rules):
        if rule.is_fact:
            summaries.append(
                RuleShape(index, truncate(shape_of_object(rule.apply(BOTTOM))))
            )
            continue
        contribution, failure = _contribution(rule, db, written, closed)
        summaries.append(RuleShape(index, truncate(contribution), failure))

    return ProgramShapes(
        rules=rules,
        database=db,
        summaries=tuple(summaries),
        grounded=grounded,
        closed=closed,
        written=written,
    )
