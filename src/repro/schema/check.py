"""Conformance checking of objects, formulae and rules against schema types.

``conforms(object, type)`` answers the yes/no question; ``check_object``
returns the full list of violations with the attribute/element path where each
occurred (``strict=True`` raises :class:`SchemaError` on the first, the checked
write a caller runs before storing a value; the store itself checks no
schema).  ``check_formula`` and ``check_rule`` perform the *static* part of the
same job for queries: attribute names that a closed tuple type does not
declare, constants of the wrong sort, and set patterns applied to non-set
positions are reported before any matching happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.objects import Atom, Bottom, ComplexObject, SetObject, Top, TupleObject
from repro.core.errors import SchemaError
from repro.calculus.rules import Rule
from repro.calculus.terms import Constant, Formula, SetFormula, TupleFormula, Variable
from repro.schema.types import (
    AnyType,
    AtomType,
    EmptyType,
    SchemaType,
    SetType,
    TupleType,
    UnionType,
)

__all__ = ["TypeCheckIssue", "conforms", "check_object", "check_formula", "check_rule"]


@dataclass(frozen=True)
class TypeCheckIssue:
    """One conformance violation, located by a dotted/indexed path."""

    path: str
    message: str

    def __str__(self) -> str:
        location = self.path or "<root>"
        return f"{location}: {self.message}"


def conforms(value: ComplexObject, schema: SchemaType) -> bool:
    """``True`` when ``value`` conforms to ``schema``."""
    return not check_object(value, schema)


def check_object(
    value: ComplexObject, schema: SchemaType, path: str = "", strict: bool = False
) -> List[TypeCheckIssue]:
    """Return every violation of ``schema`` by ``value`` (empty list when none).

    With ``strict=True`` a :class:`~repro.core.errors.SchemaError` is raised on
    the first violation instead.
    """
    issues = _check(value, schema, path)
    if strict and issues:
        raise SchemaError(str(issues[0]))
    return issues


def _check(value: ComplexObject, schema: SchemaType, path: str) -> List[TypeCheckIssue]:
    # ⊥ conforms to everything: a missing value is always acceptable.
    if isinstance(value, Bottom):
        return []
    if isinstance(schema, AnyType):
        return []
    if isinstance(schema, EmptyType):
        return [TypeCheckIssue(path, f"expected no value (empty type), got {value.to_text()}")]
    if isinstance(value, Top):
        return [TypeCheckIssue(path, "the inconsistent object ⊤ conforms to no schema type")]
    if isinstance(schema, UnionType):
        collected = []
        for alternative in schema.alternatives:
            issues = _check(value, alternative, path)
            if not issues:
                return []
            collected.append(issues)
        return [
            TypeCheckIssue(
                path,
                f"value {value.to_text()} conforms to no alternative of {schema.to_text()}",
            )
        ]
    if isinstance(schema, AtomType):
        if not isinstance(value, Atom):
            return [TypeCheckIssue(path, f"expected an atom, got {value.to_text()}")]
        if schema.sort is not None and value.sort != schema.sort:
            article = "an" if schema.sort[0] in "aeiou" else "a"
            return [
                TypeCheckIssue(
                    path,
                    f"expected {article} {schema.sort} atom, got {value.sort} {value.to_text()}",
                )
            ]
        return []
    if isinstance(schema, TupleType):
        if not isinstance(value, TupleObject):
            return [TypeCheckIssue(path, f"expected a tuple, got {value.to_text()}")]
        issues: List[TypeCheckIssue] = []
        declared = set(schema.attribute_names())
        for name in schema.required:
            if name not in value:
                issues.append(TypeCheckIssue(path, f"missing required attribute {name!r}"))
        for name, item in value.items():
            child_path = f"{path}.{name}" if path else name
            field = schema.field(name)
            if field is None:
                if not schema.open:
                    issues.append(
                        TypeCheckIssue(child_path, "attribute not declared by the closed tuple type")
                    )
                continue
            issues.extend(_check(item, field, child_path))
        return issues
    if isinstance(schema, SetType):
        if not isinstance(value, SetObject):
            return [TypeCheckIssue(path, f"expected a set, got {value.to_text()}")]
        issues = []
        for position, element in enumerate(value):
            child_path = f"{path}[{position}]" if path else f"[{position}]"
            issues.extend(_check(element, schema.element, child_path))
        return issues
    raise TypeError(f"unknown schema type: {schema!r}")


def check_formula(formula: Formula, schema: SchemaType, path: str = "") -> List[TypeCheckIssue]:
    """Statically check a formula against the schema of the database it will query.

    Variables conform to every type (their bindings are checked dynamically by
    virtue of being sub-objects of a conforming database); constants are
    checked like objects; tuple and set formulae are checked structurally.
    """
    if isinstance(formula, Variable):
        return []
    if isinstance(formula, Constant):
        return check_object(formula.value, schema, path)
    if isinstance(schema, AnyType):
        return []
    if isinstance(schema, UnionType):
        for alternative in schema.alternatives:
            if not check_formula(formula, alternative, path):
                return []
        return [
            TypeCheckIssue(
                path, f"formula {formula.to_text()} matches no alternative of {schema.to_text()}"
            )
        ]
    if isinstance(formula, TupleFormula):
        if not isinstance(schema, TupleType):
            return [
                TypeCheckIssue(
                    path,
                    f"tuple pattern {formula.to_text()} cannot match values of type {schema.to_text()}",
                )
            ]
        issues: List[TypeCheckIssue] = []
        for name, child in formula.items():
            child_path = f"{path}.{name}" if path else name
            field = schema.field(name)
            if field is None:
                if not schema.open:
                    issues.append(
                        TypeCheckIssue(
                            child_path, "attribute not declared by the closed tuple type"
                        )
                    )
                continue
            issues.extend(check_formula(child, field, child_path))
        return issues
    if isinstance(formula, SetFormula):
        if not isinstance(schema, SetType):
            return [
                TypeCheckIssue(
                    path,
                    f"set pattern {formula.to_text()} cannot match values of type {schema.to_text()}",
                )
            ]
        issues = []
        for position, child in enumerate(formula.elements):
            child_path = f"{path}[{position}]" if path else f"[{position}]"
            issues.extend(check_formula(child, schema.element, child_path))
        return issues
    raise TypeError(f"not a formula: {formula!r}")


def check_rule(
    rule: Rule, body_schema: SchemaType, head_schema: Optional[SchemaType] = None
) -> List[TypeCheckIssue]:
    """Check a rule: its body against the database schema, optionally its head too.

    When no ``head_schema`` is given the head is left unchecked — the head of
    a restructuring rule deliberately builds objects outside the input schema.
    """
    issues = []
    if rule.body is not None:
        issues.extend(check_formula(rule.body, body_schema, path="body"))
    if head_schema is not None:
        issues.extend(check_formula(rule.head, head_schema, path="head"))
    return issues
