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

Every run publishes its outcome to the observability registry:
``lint.runs``, ``lint.errors``, ``lint.warnings`` and a per-code counter
``lint.code.RLxxx`` — so a fleet's metrics show *which* diagnostics its
programs trip, not just how many.

Linting never mutates: rules, formulae and statistics are read-only inputs,
and identical inputs produce identical reports (the property tests pin
both).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

from repro.calculus.dependency import DependencyGraph
from repro.calculus.rules import Rule, RuleSet
from repro.calculus.terms import Formula, formula as to_formula
from repro.lint.diagnostics import Diagnostic, LintReport, finish_report
from repro.lint.formulas import check_query_formula, check_rule_formulas
from repro.lint.graph import (
    check_dead_rules,
    check_divergence,
    check_duplicates,
    strata_summary,
)
from repro.lint.plans import check_query_plan, check_rule_plans
from repro.lint.shapes import (
    check_params,
    check_query_shape,
    check_shapes,
    infer_shapes,
)
from repro.obs import metrics
from repro.parser import parse_formula, parse_program
from repro.plan.statistics import DatabaseStatistics

__all__ = ["lint_rules", "lint_source", "lint_query", "check_containment"]


def _publish(report: LintReport) -> None:
    """Fold one report into the process-wide metrics registry."""
    registry = metrics.REGISTRY
    registry.counter("lint.runs").inc()
    if report.errors:
        registry.counter("lint.errors").inc(report.errors)
    if report.warnings:
        registry.counter("lint.warnings").inc(report.warnings)
    for code, count in report.by_code().items():
        registry.counter(f"lint.code.{code}").inc(count)


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
    enables the RL204 shape-impossible-binding check on the query.
    """
    program = _as_rules(rules)
    if isinstance(query, str):
        query = parse_formula(query)
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
    findings.extend(check_shapes(program, shapes, query=query))
    if query is not None:
        findings.extend(check_query_formula(query))
        findings.extend(check_query_plan(query, statistics, program))
        if params:
            findings.extend(check_params(shapes, query, params))

    facts = sum(1 for rule in program if rule.is_fact)
    report = finish_report(
        findings,
        strata=strata_summary(graph),
        rules=len(program) - facts,
        facts=facts,
        shapes=shapes.summary_lines(),
    )
    _publish(report)
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


def lint_query(
    query: Union[Formula, str],
    *,
    statistics: Optional[DatabaseStatistics] = None,
    rules: Union[RuleSet, Sequence[Rule]] = (),
    params=None,
) -> LintReport:
    """Lint one query formula (what ``Session.prepare(lint=...)`` runs).

    Only the query's own findings are reported; ``rules`` (the session's
    program, if any) merely keep RL303 from flagging derived paths that
    exist once the program has run, and seed the shape pass (RL201/RL203
    against the program's derivable shapes; RL204 when ``params`` carries
    the values about to be bound).
    """
    if isinstance(query, str):
        query = parse_formula(query)
    if statistics is None:
        # The statistics-free pass is a pure function of (query, rules) —
        # exactly what every ``Session.prepare`` runs — so its report is
        # memoized the same way ``compile_body`` memoizes plans (reports are
        # frozen, so sharing one instance is safe).  Metrics are published
        # on the miss only: a cache hit is not a new analysis run.  This is
        # what keeps the default ``lint="warn"`` within the ≤1.10x prepare
        # budget ``benchmarks/run_lint_benchmarks.py`` pins.
        report = _query_report(query, tuple(_as_rules(rules)))
        if params:
            report = _with_param_findings(report, query, _as_rules(rules), params)
        return report
    findings = list(check_query_formula(query))
    findings.extend(check_query_plan(query, statistics, _as_rules(rules)))
    shapes = infer_shapes(tuple(_as_rules(rules)))
    findings.extend(check_query_shape(shapes, query))
    if params:
        findings.extend(check_params(shapes, query, params))
    report = finish_report(findings)
    _publish(report)
    return report


def _with_param_findings(
    report: LintReport,
    query: Formula,
    rules: Sequence[Rule],
    params,
) -> LintReport:
    """Fold RL204 findings into a (possibly cached) query report.

    Parameter values vary per call, so this stays *outside* the
    ``_query_report`` cache; the shape inference itself is memoized, making
    the per-call cost one abstract query match plus a membership test per
    parameter.  The extra findings' counters are published manually — the
    cached report already published its own on the miss.
    """
    extra = check_params(infer_shapes(tuple(rules)), query, params)
    if not extra:
        return report
    registry = metrics.REGISTRY
    for diagnostic in extra:
        registry.counter("lint.warnings").inc()
        registry.counter(f"lint.code.{diagnostic.code}").inc()
    return finish_report(
        report.diagnostics + tuple(extra),
        strata=report.strata,
        rules=report.rules,
        facts=report.facts,
        shapes=report.shapes,
    )


@lru_cache(maxsize=512)
def _query_report(query: Formula, rules: Tuple[Rule, ...]) -> LintReport:
    findings = list(check_query_formula(query))
    findings.extend(check_query_plan(query, None, rules))
    findings.extend(check_query_shape(infer_shapes(rules), query))
    report = finish_report(findings)
    _publish(report)
    return report


def _containment_formula(value) -> Formula:
    """Coerce a head/body argument: source text parses, the rest converts."""
    if isinstance(value, str):
        return parse_formula(value)
    return to_formula(value)


def check_containment(head, body) -> List[Diagnostic]:
    """RL001 findings for a prospective ``head :- body`` pair.

    The :class:`~repro.calculus.rules.Rule` constructor *rejects* clauses
    violating Definition 4.3, so admitted rules can never trip RL001; this
    helper lets tooling diagnose a head/body pair before construction and
    report the violation with the same code and hint.
    """
    head_formula = _containment_formula(head)
    body_formula = _containment_formula(body) if body is not None else None
    body_variables = (
        body_formula.variables() if body_formula is not None else frozenset()
    )
    return [
        Diagnostic(
            code="RL001",
            severity="error",
            message=f"head variable {name} does not occur in the body",
            hint=(
                "every head variable must be bound by the body (Definition"
                " 4.3); bind it in the body or drop it from the head"
            ),
            formula=name,
        )
        for name in sorted(head_formula.variables() - body_variables)
    ]
