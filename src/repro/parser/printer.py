"""Pretty-printing of objects, formulae and rules.

``ComplexObject.to_text`` / ``Formula.to_text`` already render the compact,
single-line paper notation; this module adds

* :func:`to_source` — a uniform entry point accepting objects, formulae,
  rules, rule sets and plain Python values;
* :func:`pretty` — an indented multi-line rendering that keeps deeply nested
  objects readable (useful when printing query results and store contents in
  the examples).
"""

from __future__ import annotations

from typing import Union

from repro.core.builder import obj
from repro.core.objects import ComplexObject, SetObject, TupleObject, too_deep
from repro.calculus.rules import Rule, RuleSet
from repro.calculus.terms import Formula, SetFormula, TupleFormula

__all__ = ["to_source", "pretty"]

Printable = Union[ComplexObject, Formula, Rule, RuleSet]


def to_source(value) -> str:
    """Render ``value`` in the concrete syntax accepted by the parser."""
    if isinstance(value, (ComplexObject, Formula, Rule, RuleSet)):
        return value.to_text()
    return obj(value).to_text()


def pretty(value, indent: int = 2, max_width: int = 60) -> str:
    """Render ``value`` with indentation.

    Containers whose compact rendering fits within ``max_width`` characters
    stay on one line; larger containers are broken across lines with
    ``indent`` spaces per nesting level.
    """
    if isinstance(value, Rule):
        if value.body is None:
            return pretty(value.head, indent, max_width) + "."
        head = pretty(value.head, indent, max_width)
        body = pretty(value.body, indent, max_width)
        return f"{head} :-\n{_shift(body, indent)}."
    if isinstance(value, RuleSet):
        return "\n".join(pretty(rule, indent, max_width) for rule in value)
    if not isinstance(value, (ComplexObject, Formula)):
        value = obj(value)
    try:
        return _pretty_node(value, indent, max_width, level=0)
    except RecursionError:
        # Also a NestingError from a to_text() further down, which only
        # measured the sub-object it was asked to render.
        if isinstance(value, ComplexObject):
            raise too_deep(value, "print") from None
        raise


def _pretty_node(value, indent: int, max_width: int, level: int) -> str:
    compact = value.to_text()
    if len(compact) <= max_width:
        return compact
    pad = " " * (indent * (level + 1))
    closing_pad = " " * (indent * level)
    if isinstance(value, (TupleObject, TupleFormula)):
        parts = [
            f"{pad}{name}: {_pretty_node(child, indent, max_width, level + 1)}"
            for name, child in value.items()
        ]
        return "[\n" + ",\n".join(parts) + f"\n{closing_pad}]"
    if isinstance(value, (SetObject, SetFormula)):
        children = value.elements if isinstance(value, SetObject) else value.elements
        parts = [
            f"{pad}{_pretty_node(child, indent, max_width, level + 1)}" for child in children
        ]
        return "{\n" + ",\n".join(parts) + f"\n{closing_pad}}}"
    return compact


def _shift(text: str, indent: int) -> str:
    pad = " " * indent
    return "\n".join(pad + line for line in text.splitlines())
