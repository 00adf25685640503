"""Programs: a facade bundling a database object, facts and rules.

The paper models the whole database as a single complex object and expresses
computation as the closure of that object under a set of rules (Example 4.5
expresses "descendants of Abraham" this way).  :class:`Program` packages that
workflow:

* facts (ground rules) seed the database;
* rules derive new structure;
* :meth:`Program.evaluate` computes the closure of the seed object under the
  rules with the divergence guards of :mod:`repro.calculus.fixpoint`;
* :meth:`Program.explain` pretty-prints the engine's rule plans with
  estimated and actual cardinalities (the EXPLAIN facility, also reachable
  through the CLI's ``run --explain``).

Programs can be built from Python structures or parsed from the paper's
concrete syntax via :meth:`Program.from_source` (which delegates to
:mod:`repro.parser`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.api import Session
from repro.calculus.fixpoint import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_MAX_NODES,
    ClosureResult,
)
from repro.calculus.rules import Rule, RuleSet
from repro.core.lattice import union, union_all
from repro.core.objects import BOTTOM, ComplexObject
from repro.engine import SemiNaiveEngine
from repro.lint import lint_rules
from repro.parser import parse_program
from repro.parser.parser import as_formula
from repro.plan.compile import compile_projection
from repro.plan.explain import execution_record, render_program_plan
from repro.plan.indexes import TargetIndexes

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
    Rules and queries are within the formula depth budget; a seed database
    of any depth is planned and linted.  A closure round that derives
    anything over one deeper than the ``max_depth`` guard raises
    :class:`~repro.core.errors.DivergenceError`, and one whose union or
    projection is too deep to walk raises
    :class:`~repro.core.errors.NestingError`.
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
        """
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
    def lint(self, query=None):
        """Run the whole-program static analyzer (:mod:`repro.lint`).

        ``query`` (a formula or source text) enables the dead-rule analysis
        relative to that query's reads.  A seed other than ⊥ is the
        analyzer's database: profiled, so plan-level findings (RL3xx) see
        real cardinalities.  Returns a :class:`repro.lint.LintReport`.
        """
        seed = self.seed()
        return lint_rules(
            list(self._facts) + list(self._rules),
            query=query,
            database=seed if seed is not BOTTOM else None,
        )

    # -- evaluation ---------------------------------------------------------------
    def seed(self) -> ComplexObject:
        """The database joined with every fact's contribution (its head, projected)."""
        contributions = [compile_projection(fact.head, ())([()]) for fact in self._facts]
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
        """Pretty-print the evaluation plans (the EXPLAIN facility).

        The rule section renders the plans the engine itself runs
        (:meth:`SemiNaiveEngine.plan` over the seeded database: strata, each
        leaf's estimated cardinality, access path and inferred shape, bodies
        the shape analysis proved empty).  With ``analyze=True`` (the
        default) the program is also closed (``guards`` are the divergence
        guards of :meth:`Session.close`) and each rule's plan is re-executed
        once against the closure, probing an index store over it as the
        engine's own rounds probe theirs, so the rendering shows **actual**
        cardinalities, accesses and per-leaf wall time next to the estimates
        (EXPLAIN ANALYZE).  The optional ``query_formula`` (a formula or
        source text) is rendered by :meth:`Session.explain` on the closure —
        the target the query runs against, computed even without
        ``analyze``; it meets the formula depth budget before any planning.
        """
        if query_formula is not None:
            query_formula = as_formula(query_formula, "explain")
        engine = SemiNaiveEngine(self._rules)
        plans = engine.plan(self.seed())
        session = Session.over_program(self)
        iterations = rule_records = None
        if analyze:
            closure = session.close(**guards)
            indexes = TargetIndexes(closure.value)
            iterations = closure.iterations
            rule_records = {
                rule: execution_record(plan, closure.value, indexes=indexes, timed=True)
                for rule, plan in plans.items()
            }
        sections = [
            render_program_plan(
                engine.graph.strata(), plans, iterations=iterations, rule_records=rule_records
            )
        ]
        if query_formula is not None:
            sections.append(
                session.explain(query_formula, on_closure=True, analyze=analyze, **guards)
            )
        return "\n".join(sections)

    def __repr__(self) -> str:
        return (
            f"<Program {len(self._facts)} facts, {len(self._rules)} rules,"
            f" database={self._database.to_text()}>"
        )
