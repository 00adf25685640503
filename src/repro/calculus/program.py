"""Programs: a facade bundling a database object, facts and rules.

The paper models the whole database as a single complex object and expresses
computation as the closure of that object under a set of rules (Example 4.5
expresses "descendants of Abraham" this way).  :class:`Program` packages that
workflow:

* facts (ground rules) seed the database;
* rules derive new structure;
* :meth:`Program.evaluate` computes the closure of the seed object under the
  rules with the divergence guards of :mod:`repro.calculus.fixpoint`;
* :meth:`Program.explain` pretty-prints the optimized plan with estimated
  and actual cardinalities (the EXPLAIN facility, also reachable through the
  CLI's ``run --explain`` / ``query --explain``).

Programs can be built from Python structures or parsed from the paper's
concrete syntax via :meth:`Program.from_source` (which delegates to
:mod:`repro.parser`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from repro.core.lattice import union, union_all
from repro.core.objects import BOTTOM, ComplexObject
from repro.calculus.fixpoint import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_MAX_NODES,
    ClosureResult,
)
from repro.calculus.rules import Rule, RuleSet
from repro.calculus.terms import Formula, formula as to_formula

__all__ = ["Program"]


class Program:
    """A deductive program over complex objects.

    Parameters
    ----------
    rules:
        Rules and facts (facts are rules without a body).
    database:
        Optional seed object; defaults to ⊥ (the empty database), in which
        case facts alone provide the initial content.
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        database: Optional[ComplexObject] = None,
    ):
        self._rules = RuleSet([r for r in rules if not r.is_fact])
        self._facts = tuple(r for r in rules if r.is_fact)
        self._database = database if database is not None else BOTTOM

    # -- constructors -------------------------------------------------------------
    @classmethod
    def from_source(
        cls, source: str, database: Optional[ComplexObject] = None
    ) -> "Program":
        """Parse a program written in the paper's concrete syntax.

        Each clause ends with a period; clauses without ``:-`` are facts.
        The import is deferred so the calculus package does not depend on the
        parser package at import time.
        """
        from repro.parser import parse_program

        return cls(parse_program(source), database=database)

    # -- accessors ----------------------------------------------------------------
    @property
    def rules(self) -> RuleSet:
        """The proper (non-fact) rules."""
        return self._rules

    @property
    def facts(self) -> Sequence[Rule]:
        """The facts (ground, bodiless rules)."""
        return self._facts

    @property
    def database(self) -> ComplexObject:
        """The seed database object."""
        return self._database

    def with_database(self, database: ComplexObject) -> "Program":
        """Return a copy of the program over a different seed object."""
        return Program(tuple(self._facts) + tuple(self._rules), database=database)

    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        """Return a copy with additional rules/facts appended."""
        combined: List[Rule] = list(self._facts) + list(self._rules) + list(rules)
        return Program(combined, database=self._database)

    # -- analysis -----------------------------------------------------------------
    def lint(self, query=None, *, statistics=None, use_database: bool = True):
        """Run the whole-program static analyzer (:mod:`repro.lint`).

        ``query`` (a formula or source text) enables the dead-rule analysis
        relative to that query's reads.  ``statistics`` overrides the cost
        model; by default the seeded database is profiled (disable with
        ``use_database=False``) so plan-level findings (RL3xx) see real
        cardinalities.  Returns a :class:`repro.lint.LintReport`.
        """
        from repro.lint import lint_rules
        from repro.plan import DatabaseStatistics

        database = None
        if use_database:
            seed = self.seed()
            if seed is not BOTTOM:
                database = seed
                if statistics is None:
                    statistics = DatabaseStatistics.collect(seed)
        return lint_rules(
            list(self._facts) + list(self._rules),
            query=query,
            statistics=statistics,
            database=database,
        )

    # -- evaluation ---------------------------------------------------------------
    def seed(self) -> ComplexObject:
        """The database joined with every fact's contribution."""
        contributions = [fact.apply(BOTTOM) for fact in self._facts]
        return union(self._database, union_all(contributions))

    def evaluate(
        self,
        *,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        max_nodes: int = DEFAULT_MAX_NODES,
        max_depth=DEFAULT_MAX_DEPTH,
        deadline=None,
    ) -> ClosureResult:
        """Compute the closure of the seeded database under the rules.

        Runs :class:`repro.engine.SemiNaiveEngine` — the same value as the
        oracle :func:`repro.calculus.fixpoint.close` — and returns an
        :class:`repro.engine.EngineResult` (a :class:`ClosureResult` whose
        ``stats`` attribute records the work performed).  ``iterations`` and
        the ``max_iterations`` budget count rounds summed over recursive
        strata, not global rounds: two independent depth-8 recursions report
        16 iterations (and need ``max_iterations=18``, one confirming round
        each) where the oracle reports 8.  ``deadline`` — a
        :class:`repro.fault.Deadline` — bounds the evaluation: the engine
        checks it at round boundaries and raises
        :class:`~repro.core.errors.QueryTimeout` with the partial closure
        attached.
        """
        # Deferred import: the calculus package must stay importable without
        # the engine subsystem (which itself builds on the calculus).
        from repro.engine import SemiNaiveEngine

        evaluator = SemiNaiveEngine(
            self._rules,
            max_iterations=max_iterations,
            max_nodes=max_nodes,
            max_depth=max_depth,
            deadline=deadline,
        )
        return evaluator.run(self.seed())

    def explain(
        self,
        query_formula=None,
        *,
        analyze: bool = True,
        **guards,
    ) -> str:
        """Pretty-print the optimized evaluation plan (the EXPLAIN facility).

        Compiles every rule through :mod:`repro.plan`, optimizes against
        statistics of the seeded database, and renders the stratified plan
        with each leaf's estimated cardinality and access path.  With
        ``analyze=True`` (the default) the program is also evaluated
        (``guards`` are forwarded to :meth:`evaluate`)
        and each rule's plan is re-executed once against the closure so the
        rendering shows **actual** cardinalities, accesses and per-leaf wall
        time next to the estimates (EXPLAIN ANALYZE) — probing an index store
        over the closure, as the engine's own rounds probe theirs; the
        optional ``query_formula`` is planned and analyzed the same way.
        """
        from repro.plan import (
            DatabaseStatistics,
            compile_body,
            compile_program,
            optimize_body,
            optimize_program,
        )
        from repro.plan.explain import (
            execution_record,
            render_body_plan,
            render_program_plan,
        )

        from repro.engine.indexes import TargetIndexes
        from repro.lint.shapes import infer_shapes

        seed = self.seed()
        statistics = DatabaseStatistics.collect(seed)
        # Closed-world inference over the seeded database: the rendering
        # shows each leaf's inferred element shape and marks the bodies the
        # analysis proved empty (the same proof the engine prunes on).
        shapes = infer_shapes(tuple(self._rules), seed)
        plan = optimize_program(compile_program(self._rules), statistics, shapes)

        iterations = None
        rule_records = None
        closure_value = None
        indexes = None
        if analyze:
            result = self.evaluate(**guards)
            closure_value = result.value
            iterations = result.iterations
            indexes = TargetIndexes(closure_value)
            rule_records = {
                node.rule: execution_record(
                    node.body_plan, closure_value, indexes=indexes, timed=True
                )
                for node in plan.rule_nodes()
                if node.body_plan is not None
            }

        sections = [
            render_program_plan(
                plan, iterations=iterations, rule_records=rule_records
            )
        ]
        if query_formula is not None:
            parsed = to_formula(query_formula)
            target = closure_value if closure_value is not None else seed
            query_plan = optimize_body(
                compile_body(parsed),
                DatabaseStatistics.collect(target),
                infer_shapes(tuple(self._rules), target),
            )
            sections.append(
                render_body_plan(
                    query_plan,
                    record=(
                        execution_record(query_plan, target, indexes=indexes, timed=True)
                        if analyze
                        else None
                    ),
                    header=f"query plan: {parsed.to_text()}",
                )
            )
        return "\n".join(sections)

    def __repr__(self) -> str:
        return (
            f"<Program {len(self._facts)} facts, {len(self._rules)} rules,"
            f" database={self._database.to_text()}>"
        )
