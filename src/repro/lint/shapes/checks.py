"""Shape-derived diagnostics: the RL2xx family.

The abstract interpreter (:mod:`repro.lint.shapes.infer`) classifies each
impossible body match; this module maps the classification onto stable codes:

* **RL201** — a body literal no derivable object can ever match (producer /
  consumer shape mismatch);
* **RL202** — a rule reads a region that is provably empty because every one
  of its producers is itself statically empty: the *transitive* dead-rule
  case, strictly stronger than RL005's path-interaction reachability (which
  only sees whether paths touch, not whether anything ever arrives);
* **RL203** — two body literals constrain one variable to shapes whose meet
  is empty, so no substitution can satisfy the body;
* **RL204** — a ``$parameter`` is bound to a constant outside its inferred
  slot shape, so the execution is guaranteed to return nothing.

All RL2xx findings are gated on :attr:`ProgramShapes.grounded`: emptiness is
only meaningful relative to a provided database or the program's own facts.
An ungrounded program (rules only) describes *how* to derive, not *what*
exists, and gets no shape findings at all.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

from repro.calculus.rules import Rule
from repro.calculus.terms import Formula
from repro.core.objects import ComplexObject
from repro.lint.diagnostics import Diagnostic, new_diagnostic, rule_location
from repro.lint.shapes.domain import Shape, admits
from repro.lint.shapes.infer import ProgramShapes

__all__ = ["check_shapes", "check_query_shape", "check_params"]

#: Failure kind (from the abstract matcher) → diagnostic code.  Rules only —
#: a query reading an empty region maps to RL201 (RL202's text talks about
#: rules that can never fire).
_RULE_CODES = {"literal": "RL201", "empty": "RL202", "contradiction": "RL203"}
_QUERY_CODES = {"literal": "RL201", "empty": "RL201", "contradiction": "RL203"}

#: A query's ``$parameter`` slots: ``(name, shape)`` pairs sorted by name.
ParamSlots = Tuple[Tuple[str, Shape], ...]


def check_shapes(rules: Sequence[Rule], shapes: ProgramShapes) -> List[Diagnostic]:
    """RL201/RL202/RL203 over every rule body."""
    if not shapes.grounded:
        return []
    findings: List[Diagnostic] = []
    for summary in shapes.summaries:
        if summary.failure is None:
            continue
        rule = rules[summary.index]
        findings.append(
            new_diagnostic(
                _RULE_CODES[summary.failure.kind],
                message=summary.failure.detail,
                formula=summary.failure.subject,
                **rule_location(rule, summary.index),
            )
        )
    return findings


def check_query_shape(
    shapes: ProgramShapes, query: Formula
) -> Tuple[List[Diagnostic], ParamSlots]:
    """RL201/RL203 for a query formula, and the shape of its ``$parameter`` slots.

    One abstract match yields both: the findings, and the slots
    :func:`check_params` later checks bound values against.  An ungrounded
    program yields neither.
    """
    if not shapes.grounded:
        return [], ()
    abstract = shapes.body_abstract(query)
    failure = abstract.failure
    if failure is None:
        return [], abstract.params
    finding = new_diagnostic(
        _QUERY_CODES[failure.kind], message=failure.detail, formula=failure.subject
    )
    return [finding], abstract.params


def check_params(
    slots: ParamSlots, values: Mapping[str, ComplexObject]
) -> List[Diagnostic]:
    """RL204: parameters bound to values outside their inferred slot shape.

    ``slots`` come from :func:`check_query_shape`, ``values`` are the bound
    complex objects.  ``lint_query(params=)`` and a prepared query's
    bind-time check both call this one function.
    """
    findings: List[Diagnostic] = []
    for name, slot in slots:
        value = values.get(name)
        if value is None or admits(slot, value):
            continue
        findings.append(
            new_diagnostic(
                "RL204",
                message=(
                    f"${name} is bound to {value.to_text()} but every"
                    f" derivable object at its slot has shape"
                    f" {slot.describe()}, so the query returns nothing"
                ),
                formula=f"${name}",
            )
        )
    return findings
