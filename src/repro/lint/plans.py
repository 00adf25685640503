"""Plan-level analyses: cost-based findings over optimized body plans.

Each rule body (and the query formula) is compiled through the shared
:func:`repro.plan.compile.compile_body` cache and ordered by
:func:`repro.plan.optimize.optimize_body` — exactly the pipeline execution
uses, so a finding here describes the plan that would actually run.  Walking
the chosen order with the same running bound-variable set the optimizer
maintains:

* **RL301** — a scan placed after other work that shares no variable with
  anything already bound and has no usable key: the optimizer was forced
  into an index-free cross product, the worst join shape;
* **RL302** — a scan with no static, parameter or dynamic key at all: every
  execution of this leaf is a full scan of its set;
* **RL303** (needs statistics) — a scan whose attribute path has no set in
  the profiled database *and* is not written below by any rule head: the
  leaf can never produce a row, which almost always means a misspelled
  attribute path;
* **RL304** (queries only) — every scan leaf keys exclusively on join
  variables: a prepared plan compiles no static index probe, so each
  execution probes per batch of dynamic bindings.  Binding a selective
  value as a ``$parameter`` gives the prepared plan a fixed key.

Statistics are optional by design: ``Session.prepare(lint="warn")`` lints
with ``statistics=None`` (a first collection walks every spine set, which
would blow the prepare budget), while ``lint_rules`` handed a database —
``repro lint --db-path`` / ``--database`` and ``Program.lint()`` — profiles
it and gets RL303 and better orderings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.calculus.dependency import access_paths, paths_interact
from repro.calculus.rules import Rule
from repro.calculus.terms import Formula
from repro.core import BOTTOM
from repro.core.objects import SetObject, TupleObject
from repro.core.paths import Path
from repro.lint.diagnostics import Diagnostic, new_diagnostic, rule_location
from repro.plan.compile import compile_body
from repro.plan.ir import BindLeaf, BodyPlan, ScanLeaf
from repro.plan.optimize import optimize_body
from repro.plan.statistics import DatabaseStatistics

__all__ = ["check_rule_plans", "check_query_plan"]


def _plan_findings(
    plan: BodyPlan,
    statistics: Optional[DatabaseStatistics],
    written_paths,
    location: dict,
) -> List[Diagnostic]:
    ordered = optimize_body(plan, statistics)
    findings: List[Diagnostic] = []
    bound: Set[str] = set()
    placed = 0
    for leaf, estimate in zip(ordered.leaves, ordered.estimates):
        if not isinstance(leaf, ScanLeaf):
            if isinstance(leaf, BindLeaf) and leaf.name:
                bound.add(leaf.name)
            placed += 1
            continue
        where = str(leaf.path) or "<root>"
        keyless = not (leaf.static_keys or leaf.dynamic_keys or leaf.param_keys)
        if (
            placed
            and bound
            and leaf.variables
            and not (leaf.variables & bound)
            and estimate.access == "scan"
        ):
            findings.append(
                new_diagnostic(
                    "RL301",
                    message=(
                        "scan joins with no shared variable and no index key"
                        " (cross product)"
                    ),
                    formula=leaf.describe(),
                    **location,
                )
            )
        elif keyless:
            findings.append(
                new_diagnostic("RL302", formula=f"scan {where}", **location)
            )
        if (
            statistics is not None
            and leaf.path not in statistics.set_cardinalities
            and not paths_interact(written_paths, frozenset([leaf.path]))
        ):
            findings.append(
                new_diagnostic("RL303", formula=f"scan {where}", **location)
            )
        bound |= leaf.variables
        placed += 1
    return findings


def _object_set_paths(value, path, into) -> None:
    """Every set path inside ``value`` — mirrors the statistics spine walk."""
    if isinstance(value, TupleObject):
        for name, item in value.items():
            _object_set_paths(item, path.child(name), into)
    elif isinstance(value, SetObject):
        into[path] = None


def _written_paths(rules: Sequence[Rule]):
    """Every path some rule head writes — what RL303 must not contradict.

    A fact's ground head would read as an access point at the *root* path
    (which interacts with every leaf and would disable RL303 wholesale), so
    facts contribute the concrete set paths of their contribution object
    instead — the same paths the statistics walk would record, which also
    covers programs linted against a store profile that has not seen the
    program's facts.
    """
    paths: Dict[Path, None] = {}  # in rule order: paths_interact stops at its first hit
    for rule in rules:
        if rule.is_fact:
            _object_set_paths(rule.apply(BOTTOM), Path(""), paths)
        else:
            for path in access_paths(rule.head):
                paths[path] = None
    return tuple(paths)


def check_rule_plans(
    rules: Sequence[Rule],
    statistics: Optional[DatabaseStatistics] = None,
) -> List[Diagnostic]:
    """RL301/RL302/RL303 over every rule body's optimized plan."""
    written = _written_paths(rules)
    findings: List[Diagnostic] = []
    for index, rule in enumerate(rules):
        if rule.body is None:
            continue
        plan = compile_body(rule.body)
        findings.extend(
            _plan_findings(plan, statistics, written, rule_location(rule, index))
        )
    return findings


def check_query_plan(
    query: Formula,
    statistics: Optional[DatabaseStatistics] = None,
    rules: Sequence[Rule] = (),
) -> List[Diagnostic]:
    """RL301/RL302/RL303 over a query formula's optimized plan.

    ``rules`` are the program that will run before the query reads the
    closure; their head writes keep RL303 from flagging derived paths that
    exist only after evaluation.
    """
    plan = compile_body(query)
    findings = _plan_findings(plan, statistics, _written_paths(rules), {})
    findings.extend(_dynamic_only_findings(plan))
    return findings


def _dynamic_only_findings(plan: BodyPlan) -> List[Diagnostic]:
    """RL304: no scan leaf carries a static or parameter key.

    Queries only — a rule body with dynamic-only keys is the normal shape of
    recursion (the join variable IS the delta), so flagging rules would be
    pure noise.  Keyless-only plans are RL302's territory; RL304 needs at
    least one dynamic key to point the ``$parameter`` hint at.
    """
    scans = [leaf for leaf in plan.leaves if isinstance(leaf, ScanLeaf)]
    if not scans:
        return []
    if any(leaf.static_keys or leaf.param_keys for leaf in scans):
        return []
    if not any(leaf.dynamic_keys for leaf in scans):
        return []
    return [
        new_diagnostic(
            "RL304",
            formula=plan.body.to_text(),
        )
    ]
