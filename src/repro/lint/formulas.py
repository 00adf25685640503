"""Formula-level analyses: ⊥/⊤ propagation, parameters, variable hygiene.

These checks walk single formulae (a rule's head and body, or a query) and
use the sub-object lattice's two extreme elements to decide satisfiability:

* **⊤ propagation** (``RL103``, error) — matching a formula requires its
  instantiation to be a *sub-object* of the database.  The only object with
  ⊤ as a sub-object is ⊤ itself, and a consistent database is never ⊤, so a
  formula forcing ⊤ anywhere below a required position is unsatisfiable
  against every consistent database;
* **vacuous ⊥** (``RL104``, warning) — dually, ⊥ is below everything: a
  ⊥-valued attribute equals an absent attribute (the paper identifies
  ``[a: ⊥]`` with ``[]``) and ⊥ is dropped from sets, so a ⊥ constraint is
  satisfied by construction and constrains nothing;
* **empty set elements** (``RL105``, warning) — ``{{}}`` asks for an element
  of which ``{}`` is a sub-object; *every* set qualifies, so the element
  matches anything and binds nothing;
* **parameters in rules** (``RL102``, error) — ``$slots`` are bound when a
  prepared query executes; rule evaluation has no bindings to give, so a
  parameter inside a rule can never be instantiated;
* **single-use variables** (``RL101``, warning, rules only) — a variable
  occurring exactly once matches anything and projects nothing, the classic
  typo shape.  Queries are exempt (there a single occurrence *is* the
  projection) and so are ``_``-prefixed names, the wildcard convention.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.calculus.rules import Rule
from repro.calculus.terms import (
    Constant,
    Formula,
    Parameter,
    SetFormula,
    TupleFormula,
    Variable,
)
from repro.core.objects import BOTTOM, TOP, ComplexObject, SetObject, TupleObject
from repro.lint.diagnostics import Diagnostic, new_diagnostic, rule_location

__all__ = ["check_rule_formulas", "check_query_formula"]


def _contains_top(value: ComplexObject) -> bool:
    if value is TOP:
        return True
    if isinstance(value, TupleObject):
        return any(_contains_top(item) for _, item in value.items())
    if isinstance(value, SetObject):
        return any(_contains_top(item) for item in value.elements)
    return False


def _count_variables(formula: Formula, counts: Dict[str, int]) -> None:
    if isinstance(formula, Variable):
        counts[formula.name] = counts.get(formula.name, 0) + 1
    elif isinstance(formula, TupleFormula):
        for _, child in formula.items():
            _count_variables(child, counts)
    elif isinstance(formula, SetFormula):
        for child in formula.elements:
            _count_variables(child, counts)


def _lattice_findings(formula: Formula, location: dict) -> List[Diagnostic]:
    """RL103/RL104/RL105: the ⊥/⊤ satisfiability walk over one formula."""
    findings: List[Diagnostic] = []

    def walk(node: Formula) -> None:
        if isinstance(node, Constant):
            if _contains_top(node.value):
                findings.append(
                    new_diagnostic("RL103", formula=node.to_text(), **location)
                )
            elif node.value is BOTTOM:
                findings.append(
                    new_diagnostic("RL104", formula=node.to_text(), **location)
                )
            return
        if isinstance(node, TupleFormula):
            for _, child in node.items():
                walk(child)
            return
        if isinstance(node, SetFormula):
            for child in node.elements:
                if isinstance(child, SetFormula) and not len(child):
                    findings.append(
                        new_diagnostic("RL105", formula=node.to_text(), **location)
                    )
                walk(child)
            return

    walk(formula)
    return findings


def check_rule_formulas(rule: Rule, index: Optional[int] = None) -> List[Diagnostic]:
    """All formula-level findings for one clause (0-based ``index``)."""
    location = rule_location(rule, index)
    findings = _lattice_findings(rule.head, location)
    if rule.body is not None:
        findings.extend(_lattice_findings(rule.body, location))

    parameters = rule.head.parameters()
    if rule.body is not None:
        parameters = parameters | rule.body.parameters()
    for name in sorted(parameters):
        findings.append(new_diagnostic("RL102", formula=f"${name}", **location))

    counts: Dict[str, int] = {}
    _count_variables(rule.head, counts)
    if rule.body is not None:
        _count_variables(rule.body, counts)
    for name in sorted(counts):
        if counts[name] == 1 and not name.startswith("_"):
            findings.append(new_diagnostic("RL101", formula=name, **location))
    return findings


def check_query_formula(query: Formula) -> List[Diagnostic]:
    """Formula-level findings for a query: the lattice walk only.

    Parameters are the whole point of prepared queries and a single variable
    occurrence is the projection, so RL101/RL102 do not apply here.
    """
    return _lattice_findings(query, {})
