"""Program-graph analyses: recursion, divergence, duplicates, reachability.

These analyses look at a program as a whole through the engine's own
dependency relation (:class:`repro.calculus.dependency.DependencyGraph` — rule
``r2`` depends on ``r1`` when something ``r1``'s head writes may change what
``r2``'s body reads):

* **divergence heuristics** (``RL002``/``RL003``) — the paper's calculus is
  deliberately liberal and some rule sets have no finite closure
  (Example 4.6: ``[list: {[head: 1, tail: X]}] :- [list: {X}]``).  A rule
  that re-embeds a variable more deeply in the head than the body found it
  *grows structure*; growing structure on a dependency cycle may diverge.
  Recursion here is graph recursion: the rule sits on an SCC cycle or
  depends on itself;
* **duplicates** (``RL004``) — structural rule equality, flagged on the later
  occurrence;
* **dead rules** (``RL005``) — relative to a query head: a rule is *live*
  when its writes may reach the query's reads, directly or through other
  live rules (backward reachability over the dependency graph);
* the **stratification report** — the producers-first SCC decomposition the
  scheduler actually runs, surfaced so authors can see evaluation order and
  which strata iterate.

Divergence remains undecidable in general; everything here is a conservative
heuristic that warns, never blocks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.calculus.rules import Rule
from repro.calculus.terms import (
    Constant,
    Formula,
    Parameter,
    SetFormula,
    TupleFormula,
    Variable,
)
from repro.calculus.dependency import DependencyGraph, access_paths, paths_interact
from repro.lint.diagnostics import Diagnostic, new_diagnostic

__all__ = [
    "variable_depths",
    "recursive_rule_indices",
    "strata_summary",
    "check_divergence",
    "check_duplicates",
    "check_dead_rules",
]


def variable_depths(formula: Formula) -> Dict[str, int]:
    """Map each variable to its maximum nesting depth within ``formula``.

    The formula itself is at depth 0; each tuple attribute or set element adds
    one level.
    """
    depths: Dict[str, int] = {}

    def visit(node: Formula, level: int) -> None:
        if isinstance(node, Variable):
            depths[node.name] = max(depths.get(node.name, 0), level)
        elif isinstance(node, TupleFormula):
            for _, child in node.items():
                visit(child, level + 1)
        elif isinstance(node, SetFormula):
            for child in node.elements:
                visit(child, level + 1)
        elif isinstance(node, (Constant, Parameter)):
            return
        else:  # pragma: no cover - defensive
            raise TypeError(f"not a formula: {node!r}")

    visit(formula, 0)
    return depths


def deepening_variables(rule: Rule) -> Tuple[str, ...]:
    """Variables the head re-embeds more deeply than the body finds them."""
    if rule.body is None:
        return ()
    head_depths = variable_depths(rule.head)
    body_depths = variable_depths(rule.body)
    return tuple(
        sorted(
            name
            for name, head_depth in head_depths.items()
            if head_depth > body_depths.get(name, head_depth)
        )
    )


def recursive_rule_indices(graph: DependencyGraph) -> Set[int]:
    """0-based indices of rules on a dependency cycle (incl. self-loops)."""
    recursive: Set[int] = set()
    for component in graph.sccs():
        if len(component) > 1 or graph.depends_on(component[0], component[0]):
            recursive.update(component)
    return recursive


def strata_summary(graph: DependencyGraph) -> Tuple[dict, ...]:
    """The stratification report: producers-first SCCs with 1-based indices."""
    summary = []
    for component in graph.sccs():
        recursive = len(component) > 1 or graph.depends_on(component[0], component[0])
        summary.append(
            {"rules": [index + 1 for index in component], "recursive": recursive}
        )
    return tuple(summary)


def _locate(rule: Rule, index: int) -> dict:
    """Diagnostic location kwargs for the 1-based clause at 0-based ``index``."""
    location = {"rule_index": index + 1, "rule": rule.to_text()}
    span = getattr(rule, "span", None)
    if span is not None:
        location["line"] = span.line
        location["column"] = span.column
    return location


def check_divergence(
    rules: Sequence[Rule], graph: DependencyGraph
) -> List[Diagnostic]:
    """RL002 (restructuring) / RL003 (recursive structure growth) per rule."""
    recursive = recursive_rule_indices(graph)
    findings: List[Diagnostic] = []
    for index, rule in enumerate(rules):
        grown = deepening_variables(rule)
        if not grown:
            continue
        subject = ", ".join(grown)
        if index in recursive:
            findings.append(
                new_diagnostic(
                    "RL003",
                    message=(
                        "recursive rule re-embeds its input more deeply than it"
                        " found it; the closure may not exist"
                    ),
                    formula=subject,
                    **_locate(rule, index),
                )
            )
        else:
            findings.append(
                new_diagnostic("RL002", formula=subject, **_locate(rule, index))
            )
    return findings


def check_duplicates(rules: Sequence[Rule]) -> List[Diagnostic]:
    """RL004 on every repeat of a structurally identical clause."""
    seen: Dict[Rule, int] = {}
    findings: List[Diagnostic] = []
    for index, rule in enumerate(rules):
        first = seen.setdefault(rule, index)
        if first != index:
            findings.append(
                new_diagnostic(
                    "RL004",
                    message=f"duplicate of rule {first + 1}",
                    **_locate(rule, index),
                )
            )
    return findings


def check_dead_rules(
    rules: Sequence[Rule], graph: DependencyGraph, query: Optional[Formula]
) -> List[Diagnostic]:
    """RL005 on rules whose output can never reach the query's reads.

    Liveness is backward reachability: a rule is live when its head writes
    interact with the query's read paths, or with the body reads of a rule
    already known to be live.  Without a query every rule's output is
    observable (the closure itself is the result), so nothing is dead.
    """
    if query is None or not rules:
        return []
    query_reads = access_paths(query)
    writes = [access_paths(rule.head) for rule in rules]
    reads = [
        access_paths(rule.body) if rule.body is not None else ()
        for rule in rules
    ]
    live: Set[int] = {
        index
        for index in range(len(rules))
        if paths_interact(writes[index], query_reads)
    }
    changed = True
    while changed:
        changed = False
        for index in range(len(rules)):
            if index in live:
                continue
            if any(
                paths_interact(writes[index], reads[consumer]) for consumer in live
            ):
                live.add(index)
                changed = True
    return [
        new_diagnostic("RL005", **_locate(rule, index))
        for index, rule in enumerate(rules)
        if index not in live
    ]
