"""The closure engine: stratified, semi-naive, indexed.

:class:`SemiNaiveEngine` computes the closure of Definition 4.6 — the least
object above the input closed under the rule set — and reports it as an
:class:`EngineResult`, a :class:`~repro.calculus.fixpoint.ClosureResult`
extended with :class:`~repro.plan.stats.EngineStats`.  Its oracle is
:func:`repro.calculus.fixpoint.close`, the paper's series iterated literally
over :meth:`RuleSet.apply`, which shares no plan code with it.

The engine stratifies the rule set along its dependency graph
(:mod:`repro.calculus.dependency`), applies non-recursive strata once, and
iterates each recursive stratum with delta-restricted plan execution
(:mod:`repro.engine.delta`) accelerated by match indexes
(:mod:`repro.plan.indexes`) whose tables the sets carry: a set a round
grows derives them from the one it grew from.  Rule bodies run through the plan
pipeline of :mod:`repro.plan`: each compiles once into a logical plan, the
cost-based optimizer orders its leaves against statistics of the database
being closed, and the physical executor runs it; each head compiles once
into the projection that joins it over the executor's rows.  Rules whose bodies cannot
be delta-decomposed fall back to full matching for correctness — each such
fallback is counted per rule in the stats record so silent de-optimizations
stay visible.  The engine evaluates the strict semantics only; the literal
Definition 4.2 semantics (``allow_bottom``) is the oracle's
(:func:`repro.calculus.fixpoint.close`).

Divergent programs raise the same
:class:`~repro.core.errors.DivergenceError` as the oracle, with the partial
result attached.  ``iterations`` (growing rounds) and the ``max_iterations``
budget (every round of a recursive stratum, its confirming last one
included) are *summed over strata*: non-recursive strata are free, so
stratification alone can never trip the budget, but two independent
recursions each pay their own rounds where the oracle's global rounds
advance both at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import DivergenceError
from repro.core.lattice import union, union_all
from repro.core.objects import BOTTOM, ComplexObject, too_deep
from repro.calculus.fixpoint import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_MAX_NODES,
    ClosureResult,
    _as_ruleset,
    check_guards,
)
from repro.calculus.dependency import DependencyGraph, Stratum
from repro.calculus.rules import Rule, RuleSet
from repro.core.paths import new_set_elements
from repro.engine.delta import BodyDecomposition, decompose
from repro.lint.shapes import infer_shapes
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY as _METRICS
from repro.plan.compile import compile_body, compile_projection
from repro.plan.execute import match_rows
from repro.plan.indexes import TargetIndexes
from repro.plan.ir import BodyPlan
from repro.plan.optimize import optimize_body
from repro.plan.statistics import DatabaseStatistics
from repro.plan.stats import EngineStats

__all__ = ["EngineResult", "SemiNaiveEngine", "create_engine"]


@dataclass(frozen=True)
class EngineResult(ClosureResult):
    """A closure result carrying the engine's instrumentation record."""

    stats: EngineStats = field(default_factory=EngineStats)


class SemiNaiveEngine:
    """Stratified, delta-driven, index-accelerated closure evaluation."""

    name = "seminaive"

    def __init__(
        self,
        rules: Union[Rule, RuleSet, Sequence[Rule]],
        *,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        max_nodes: int = DEFAULT_MAX_NODES,
        max_depth: Union[int, float] = DEFAULT_MAX_DEPTH,
        use_indexes: bool = True,
        use_shapes: bool = True,
        deadline=None,
    ):
        self.rules = _as_ruleset(rules)
        self.max_iterations = max_iterations
        self.max_nodes = max_nodes
        self.max_depth = max_depth
        self.deadline = deadline
        # Reference switches: tests and the cost ledger compare a scanning or
        # unpruned run against the default one.
        self.use_indexes = use_indexes
        self.use_shapes = use_shapes
        self.graph = DependencyGraph(self.rules.rules)
        self._strata: List[Stratum] = self.graph.strata()
        self._decompositions: Dict[Rule, BodyDecomposition] = {
            rule: decompose(rule.body) for rule in self.rules
        }
        self._body_plans: Dict[Rule, BodyPlan] = {
            rule: compile_body(rule.body)
            for rule in self.rules
            if rule.body is not None
        }
        # Match rows bind the body's variables, sorted; a fact has one empty row.
        self._projections = {
            rule: compile_projection(rule.head, tuple(sorted(rule.variables())))
            for rule in self.rules
        }
        #: (closure, plans) of the last completed run — what a
        #: ``run(database, previous=closure)`` resumes from.
        self._retained: Optional[Tuple[ComplexObject, Dict[Rule, BodyPlan]]] = None

    # -- public API -------------------------------------------------------------------
    def run(
        self, database: ComplexObject, previous: Optional[ComplexObject] = None
    ) -> EngineResult:
        """The closure of ``database``; resumed from ``previous`` when given.

        ``previous`` is the value this engine's last completed ``run``
        returned, for a database that is a sub-object of ``database``.  Rule
        application is monotone (Lemma 4.1), so the closure sought is the
        least closed object above ``previous ∪ database``, and ``previous``
        is closed: a match whose set witnesses are all old derives nothing
        new (the argument of :mod:`repro.engine.delta`), so every stratum
        runs delta rounds only, on the plans the last run left.
        Any other ``previous`` is ignored and the run starts from scratch.
        ``iterations`` and ``stats`` describe the work of this call alone.
        """
        stats = EngineStats()
        stats.strata = len(self._strata)
        stats.recursive_strata = sum(1 for s in self._strata if s.recursive)
        try:
            retained, self._retained = self._retained, None
            if previous is not None and retained is not None and retained[0] is previous:
                plans = retained[1]
                # A shape proof held against the old database only: the rules it
                # pruned run live (in source order) from here on.
                for rule in [r for r, plan in plans.items() if plan.pruned is not None]:
                    plans[rule] = self._body_plans[rule]
                current = union(previous, database)
            else:
                previous = None
                plans = self.plan(database)  # its estimates build the tables rounds probe
                stats.rules_pruned = sum(
                    1 for plan in plans.values() if plan.pruned is not None
                )
                current = database

            budget = [0]  # recursive rounds charged against max_iterations
            with _trace.span("engine.run") as run_span:
                for number, stratum in enumerate(self._strata, start=1):
                    with _trace.span("engine.stratum") as stratum_span:
                        if stratum_span.enabled:
                            stratum_span.set(
                                stratum=number,
                                recursive=stratum.recursive,
                                rules=len(stratum.rules),
                            )
                        # Every stratum of a resumed run starts from the same
                        # closed base: none of its rules has seen the growth yet.
                        current = self._close_stratum(
                            stratum, previous, current, plans, stats, budget
                        )
                if run_span.enabled:
                    run_span.set(
                        engine=self.name,
                        iterations=stats.iterations,
                        resumed=previous is not None,
                    )
        except RecursionError:
            # Formulae are within the depth budget: only the data is too deep
            # for the union and the projection, which recurse over it.
            raise too_deep(database, "close") from None
        _METRICS.record_engine_run(stats)
        # Retained only on normal exit: a run that leaves by exception leaves
        # no closure to resume from.
        self._retained = (current, plans)
        return EngineResult(
            value=current, iterations=stats.iterations, converged=True, stats=stats
        )

    def plan(self, database: ComplexObject) -> Dict[Rule, BodyPlan]:
        """Each rule body's plan for a from-scratch run over ``database``.

        Leaves are ordered against the statistics of the database being
        closed (ordering is a pure cost decision, so a resumed run keeps
        them: a stale order stays correct, just less optimized).  Shape
        inference runs closed-world over the same object, so the proofs
        behind pruning are relative to exactly what is about to be scanned.
        :meth:`run` executes these plans and ``Program.explain`` renders
        them.
        """
        statistics = DatabaseStatistics.collect(database)
        shapes = infer_shapes(self.rules.rules, database) if self.use_shapes else None
        return {
            rule: optimize_body(plan, statistics, shapes)
            for rule, plan in self._body_plans.items()
        }

    # -- strata -----------------------------------------------------------------------
    def _close_stratum(
        self,
        stratum: Stratum,
        previous: Optional[ComplexObject],
        current: ComplexObject,
        plans: Dict[Rule, BodyPlan],
        stats: EngineStats,
        budget: List[int],
    ) -> ComplexObject:
        """Iterate one stratum to its local fixpoint and return it.

        ``previous is None`` makes the first round a full application — it
        must see the whole database, the delta discipline only covers growth
        since ``previous`` — and every later round a delta round.  A
        non-recursive stratum is done after one round.  Each round probes
        the match indexes of the database it matches against (none without
        ``use_indexes``), whose sets carry their tables.
        """
        live = self._live_rules(stratum, plans)
        if not live:
            # Every rule of this stratum is statically empty: its fixpoint is
            # the input, no round needs to run.
            return current
        round_ns = _METRICS.histogram("engine.round_ns")
        round_number = 0
        while True:
            round_number += 1
            if stratum.recursive:
                self._charge(budget, current)
            else:
                self._check_deadline(current)
            round_start = time.perf_counter_ns()
            indexes = TargetIndexes(current) if self.use_indexes else None
            with _trace.span("engine.round") as span:
                if span.enabled:
                    span.set(
                        round=round_number,
                        mode="full" if previous is None else "delta",
                    )
                # Two steps, not one join with ``current`` among the operands:
                # ``union_all`` stops applying rules at a ⊤ *result of a rule*
                # either way, so the single call would buy nothing.
                produced = union_all(
                    self._apply_full(rule, current, plans, indexes, stats)
                    if previous is None
                    else self._apply_delta(
                        rule, previous, current, plans, indexes, stats
                    )
                    for rule in live
                )
                next_value = union(current, produced)
            round_ns.observe(time.perf_counter_ns() - round_start)
            if next_value == current:
                return current
            # ``iterations`` counts growing rounds only, summed over strata:
            # comparable with close()'s count for one recursion, larger for
            # independent ones, which close() advances in the same round.
            stats.iterations += 1
            check_guards(next_value, stats.iterations, self.max_nodes, self.max_depth)
            if not stratum.recursive:
                return next_value
            previous, current = current, next_value

    @staticmethod
    def _live_rules(stratum: Stratum, plans: Dict[Rule, BodyPlan]) -> List[Rule]:
        """The stratum's rules minus the ones shape analysis proved empty."""
        return [
            rule
            for rule in stratum.rules
            if rule.body is None or plans[rule].pruned is None
        ]

    def _charge(self, budget: List[int], partial: ComplexObject) -> None:
        self._check_deadline(partial)
        budget[0] += 1
        if budget[0] > self.max_iterations:
            raise DivergenceError(
                f"closure did not converge within {self.max_iterations} iterations",
                partial=partial,
                iterations=self.max_iterations,
            )

    def _check_deadline(self, partial: ComplexObject) -> None:
        """Round-boundary deadline checkpoint (a no-op without a deadline).

        On expiry the in-flight partial closure travels out on the
        :class:`QueryTimeout`, so a timed-out ``Session.close`` is diagnosable.
        """
        if self.deadline is not None:
            self.deadline.check(
                f"{self.name} engine round",
                partial=partial,
            )

    # -- rule application ---------------------------------------------------------------
    def _apply_full(
        self,
        rule: Rule,
        database: ComplexObject,
        plans: Dict[Rule, BodyPlan],
        indexes: Optional[TargetIndexes],
        stats: EngineStats,
    ) -> ComplexObject:
        """One full (non-delta) application of a rule, ``r(O)`` of Definition 4.4."""
        stats.full_matches += 1
        rows: List[tuple] = [()]
        if rule.body is not None:
            _, rows = match_rows(plans[rule], database, indexes=indexes, stats=stats)
        return self._project(rule, rows, stats)

    def _project(self, rule: Rule, rows: List[tuple], stats: EngineStats) -> ComplexObject:
        """The rule's head joined over its match rows (the ``engine.head`` span)."""
        stats.subobjects_derived += len(rows)
        with _trace.span("engine.head") as span:
            if span.enabled:
                span.set(rows=len(rows))
            return self._projections[rule](rows)

    def _apply_delta(
        self,
        rule: Rule,
        previous: ComplexObject,
        current: ComplexObject,
        plans: Dict[Rule, BodyPlan],
        indexes: Optional[TargetIndexes],
        stats: EngineStats,
    ) -> ComplexObject:
        """One semi-naive application: only matches with a new witness.

        Falls back to a full application when the body cannot be
        delta-decomposed, or when no sound delta exists for one of the body's
        set paths.
        """
        if rule.body is None:
            # The fact already fired during the full first round (of this run
            # or of the run resumed from).
            return BOTTOM
        decomposition = self._decompositions[rule]
        if not decomposition.decomposable:
            # The silent de-optimization the stats record makes visible: this
            # body re-matches in full on every delta round.
            stats.count_fallback(rule)
            return self._apply_full(rule, current, plans, indexes, stats)
        deltas: Dict[object, Tuple[ComplexObject, ...]] = {}
        for path in decomposition.set_paths:
            fresh = new_set_elements(previous, current, path)
            if fresh is None:
                stats.count_fallback(rule)
                return self._apply_full(rule, current, plans, indexes, stats)
            deltas[path] = fresh
        stats.delta_matches += 1
        with _trace.span("engine.delta_apply") as span:
            if span.enabled:
                span.set(
                    rule=rule.to_text(),
                    delta=sum(len(fresh) for fresh in deltas.values()),
                )
            rows: Dict[tuple, tuple] = {}  # deduplicated across positions by identity
            for position in decomposition.positions:
                fresh = deltas[position.path]
                if not fresh:
                    continue
                _, batch = match_rows(
                    plans[rule],
                    current,
                    position=position,
                    delta_elements=fresh,
                    indexes=indexes,
                    stats=stats,
                )
                rows.update({tuple(map(id, row)): row for row in batch})
            return self._project(rule, list(rows.values()), stats)


def create_engine(name: str, rules: Union[Rule, RuleSet, Sequence[Rule]], **options):
    """``SemiNaiveEngine(rules, **options)`` under the name ``"seminaive"``."""
    # Vestigial: the one caller is the frozen probe benchmarks/e2e/layers.py;
    # ROADMAP item 1 deletes that probe and this function with it.
    if name != SemiNaiveEngine.name:
        raise ValueError(f"unknown engine {name!r} (expected one of: seminaive)")
    return SemiNaiveEngine(rules, **options)
