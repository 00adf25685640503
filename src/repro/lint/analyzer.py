"""The analyzer entry points: whole programs, prepared queries, source text.

``lint_rules`` is the core pass: it builds the engine's dependency graph
once, runs the program-graph analyses (:mod:`repro.lint.graph`), the
formula-level analyses (:mod:`repro.lint.formulas`) and the plan-level
analyses (:mod:`repro.lint.plans`) over every clause, and assembles a
deterministic :class:`~repro.lint.diagnostics.LintReport`.  ``lint_source``
parses first (so findings carry line/column spans), ``lint_query`` analyses
one query formula against an optional program, and ``check_containment`` is
the RL001 helper for head/body pairs that have not been admitted as a
:class:`~repro.calculus.rules.Rule` yet (the Rule constructor rejects them).
``prepare_lint`` is ``lint_query`` plus the query's ``$parameter`` slots —
what ``Session.prepare`` runs (and caches per session) — and
``check_bindings`` is the RL204 check a prepared query runs at bind time.

Every run publishes its outcome to the observability registry:
``lint.runs``, ``lint.errors``, ``lint.warnings`` and a per-code counter
``lint.code.RLxxx`` — so a fleet's metrics show *which* diagnostics its
programs trip, not just how many.  A bind-time check counts its findings
the same way but is not a run.

Linting never mutates: rules, formulae and statistics are read-only inputs,
and identical inputs produce identical reports (the property tests pin
both).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.calculus.dependency import DependencyGraph
from repro.calculus.rules import Rule, RuleSet
from repro.calculus.terms import Formula
from repro.core.builder import obj
from repro.core.objects import ComplexObject
from repro.lint.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    LintReport,
    finish_report,
    new_diagnostic,
)
from repro.lint.formulas import check_query_formula, check_rule_formulas
from repro.lint.graph import (
    check_dead_rules,
    check_divergence,
    check_duplicates,
    strata_summary,
)
from repro.lint.plans import check_query_plan, check_rule_plans
from repro.lint.shapes import (
    ProgramShapes,
    check_params,
    check_query_shape,
    check_shapes,
    infer_shapes,
)
from repro.lint.shapes.checks import ParamSlots
from repro.obs import metrics
from repro.parser import parse_program
from repro.parser.parser import as_formula
from repro.plan.statistics import DatabaseStatistics

__all__ = ["lint_rules", "lint_source", "lint_query", "check_containment"]


def _publish(findings: Sequence[Diagnostic], *, run: bool = True) -> None:
    """Fold findings into the process-wide metrics registry (``run``: one more run)."""
    registry = metrics.REGISTRY
    if run:
        registry.counter("lint.runs").inc()
    for finding in findings:
        if finding.severity in (ERROR, WARNING):
            registry.counter(f"lint.{finding.severity}s").inc()
        registry.counter(f"lint.code.{finding.code}").inc()


def _as_rules(rules: Union[RuleSet, Sequence[Rule]]) -> Sequence[Rule]:
    if isinstance(rules, RuleSet):
        return rules.rules
    return tuple(rules)


def lint_rules(
    rules: Union[RuleSet, Sequence[Rule]],
    *,
    query: Optional[Union[Formula, str]] = None,
    statistics: Optional[DatabaseStatistics] = None,
    database=None,
    params=None,
) -> LintReport:
    """Run every analysis over a program; the main entry point.

    ``query`` (a formula, or source text to parse) enables the dead-rule
    analysis and extends the plan checks to the query itself;
    ``statistics`` (a :class:`~repro.plan.statistics.DatabaseStatistics`)
    enables the RL303 missing-path check and cost-accurate orderings;
    ``database`` (a complex object) closes the world for the shape pass —
    RL2xx findings then describe the program *against that database* rather
    than against its own facts alone — and, without ``statistics``, is
    profiled for the plan checks; ``params`` (a name → value mapping)
    enables the RL204 shape-impossible-binding check on the query.  A
    ``query`` deeper than the formula depth budget raises
    :class:`~repro.core.errors.NestingError`; a ``database`` of any depth is
    analysed.
    """
    program = _as_rules(rules)
    if query is not None:
        query = as_formula(query, "lint")
    if statistics is None and database is not None:
        statistics = DatabaseStatistics.collect(database)
    graph = DependencyGraph(program)
    findings: List[Diagnostic] = []
    findings.extend(check_divergence(program, graph))
    findings.extend(check_duplicates(program))
    findings.extend(check_dead_rules(program, graph, query))
    for index, rule in enumerate(program):
        findings.extend(check_rule_formulas(rule, index))
    findings.extend(check_rule_plans(program, statistics))
    shapes = infer_shapes(tuple(program), database)
    findings.extend(check_shapes(program, shapes))
    if query is not None:
        query_findings, _ = _query_findings(query, statistics, program, shapes, params)
        findings.extend(query_findings)

    facts = sum(1 for rule in program if rule.is_fact)
    report = finish_report(
        findings,
        strata=strata_summary(graph),
        rules=len(program) - facts,
        facts=facts,
        shapes=shapes.summary_lines(),
    )
    _publish(report.diagnostics)
    return report


def lint_source(
    text: str,
    *,
    query: Optional[Union[Formula, str]] = None,
    statistics: Optional[DatabaseStatistics] = None,
    database=None,
    params=None,
) -> LintReport:
    """Parse program source and lint it; findings carry line/column spans."""
    return lint_rules(
        parse_program(text),
        query=query,
        statistics=statistics,
        database=database,
        params=params,
    )


def _query_findings(
    query: Formula,
    statistics: Optional[DatabaseStatistics],
    rules: Sequence[Rule],
    shapes: ProgramShapes,
    params,
) -> Tuple[List[Diagnostic], ParamSlots]:
    """A query's own findings, and its ``$parameter`` slots from the same match."""
    findings = list(check_query_formula(query))
    findings.extend(check_query_plan(query, statistics, rules))
    shape_findings, slots = check_query_shape(shapes, query)
    findings.extend(shape_findings)
    if params:
        values = {name: obj(params[name]) for name, _ in slots if name in params}
        findings.extend(check_params(slots, values))
    return findings, slots


def lint_query(
    query: Union[Formula, str],
    *,
    rules: Union[RuleSet, Sequence[Rule]] = (),
    params=None,
) -> LintReport:
    """Lint one query formula (what ``Session.prepare(lint=...)`` runs).

    Only the query's own findings are reported; ``rules`` (the session's
    program, if any) merely keep RL303 from flagging derived paths that
    exist once the program has run, and seed the shape pass (RL201/RL203
    against the program's derivable shapes; RL204 when ``params`` carries
    the values about to be bound).  The pass is statistics-free and not
    memoised here: ``Session.prepare`` caches its result per session.
    """
    return prepare_lint(as_formula(query, "lint"), _as_rules(rules), params)[0]


def prepare_lint(
    query: Formula, rules: Sequence[Rule], params=None
) -> Tuple[LintReport, ParamSlots]:
    """``lint_query``'s report plus the query's ``$parameter`` slot shapes.

    One abstract match of the query yields both the RL201/RL203 findings
    and the slots :func:`check_bindings` checks bound values against
    (empty when the program has no facts to ground the analysis).
    """
    rules = tuple(rules)
    findings, slots = _query_findings(query, None, rules, infer_shapes(rules), params)
    report = finish_report(findings)
    _publish(report.diagnostics)
    return report, slots


def check_bindings(
    slots: ParamSlots, values: Mapping[str, ComplexObject]
) -> List[Diagnostic]:
    """RL204 at bind time: bound values against a prepared query's slots.

    The findings count under ``lint.warnings`` / ``lint.code.RL204`` like
    any other, but a bind-time check is not a new analysis run.
    """
    findings = check_params(slots, values)
    _publish(findings, run=False)
    return findings


def check_containment(head, body) -> List[Diagnostic]:
    """RL001 findings for a prospective ``head :- body`` pair.

    The :class:`~repro.calculus.rules.Rule` constructor *rejects* clauses
    violating Definition 4.3, so admitted rules can never trip RL001; this
    helper lets tooling diagnose a head/body pair before construction and
    report the violation with the same code and hint (or the depth budget's
    :class:`~repro.core.errors.NestingError`, as the constructor would).
    """
    head_formula = as_formula(head, "make a rule")
    body_variables = frozenset() if body is None else as_formula(body, "make a rule").variables()
    return [
        new_diagnostic(
            "RL001",
            message=f"head variable {name} does not occur in the body",
            formula=name,
        )
        for name in sorted(head_formula.variables() - body_variables)
    ]
