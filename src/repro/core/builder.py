"""Convenience constructors that turn plain Python values into complex objects.

The data model of the paper maps very naturally onto Python literals:

========================  =======================================
Python value              Complex object
========================  =======================================
``int, float, str, bool`` atomic object (:class:`~repro.core.objects.Atom`)
``dict``                  tuple object ``[k1: v1, ...]``
``list, tuple, set``      set object ``{...}``
``None``                  ⊥ (the undefined object / null value)
``ComplexObject``         itself (passed through unchanged)
========================  =======================================

so ``obj({"name": {"first": "john"}, "children": ["mary", "sue"]})`` builds the
hierarchical tuple of Example 2.1 directly from a literal.
"""

from __future__ import annotations

from typing import Dict, Mapping, Set, Union

from repro.core.atoms import is_atom_value
from repro.core.errors import NestingError, NotAnObjectError
from repro.core.objects import (
    BOTTOM,
    TOP,
    Atom,
    Bottom,
    ComplexObject,
    SetObject,
    Top,
    TupleObject,
)

PythonValue = Union[None, bool, int, float, str, dict, list, tuple, set, frozenset, ComplexObject]
"""Python values accepted by :func:`obj`."""


def obj(value: PythonValue) -> ComplexObject:
    """Convert a plain Python value into a complex object.

    ``None`` maps to ⊥, which makes missing values ("null values" in the
    paper's introduction) pleasant to write: ``obj({"name": "peter",
    "age": None})`` equals ``obj({"name": "peter"})``.

    Raises :class:`~repro.core.errors.NotAnObjectError` for values outside the
    model (functions, arbitrary classes, dictionaries with non-string keys...),
    and :class:`~repro.core.errors.NestingError` for a cyclic value or one too deep.
    """
    return converting(_convert, value)


def converting(convert, value):
    """``convert(value)``; a value too deep to convert, or cyclic, raises NestingError."""
    try:
        return convert(value)
    except NestingError:  # an element too deep to order names its own depth
        raise
    except RecursionError:
        raise _too_deep_value(value) from None


def _convert(value: PythonValue) -> ComplexObject:
    if isinstance(value, ComplexObject):
        return value
    if value is None:
        return BOTTOM
    if is_atom_value(value):
        return Atom(value)
    if isinstance(value, Mapping):
        converted = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise NotAnObjectError(
                    f"tuple attribute names must be strings, got {type(key).__name__}"
                )
            converted[key] = _convert(item)
        return TupleObject(converted)
    if isinstance(value, (list, tuple, set, frozenset)):
        return SetObject(_convert(item) for item in value)
    raise NotAnObjectError(
        f"cannot convert {type(value).__name__} into a complex object"
    )


def _too_deep_value(value) -> NestingError:
    """The error for a Python value whose conversion overflowed the stack: its
    container levels, counted depth-first on an explicit stack, or that it is
    cyclic (a child that is open but not yet counted closes a cycle)."""
    levels: Dict[int, int] = {}
    opened: Set[int] = set()
    stack = [value]
    while stack:
        node = stack[-1]
        is_set = isinstance(node, (list, tuple, set, frozenset))
        children = node.values() if isinstance(node, Mapping) else node if is_set else ()
        if id(node) in opened:
            levels[id(stack.pop())] = max((1 + levels[id(c)] for c in children), default=0)
            continue
        opened.add(id(node))
        if any(id(c) in opened and id(c) not in levels for c in children):
            return NestingError("value is cyclic, it cannot be converted to an object")
        stack.extend(children)
    return NestingError(f"value is nested {levels[id(value)]} levels deep, too deep to convert")


def atom(value) -> ComplexObject:
    """Build an atomic object from an int, float, str or bool."""
    return Atom(value)


def tup(mapping: Mapping[str, PythonValue] = None, **attributes: PythonValue) -> ComplexObject:
    """Build a tuple object; attribute values may be plain Python values.

    ``tup(name="peter", age=25)`` is the relational tuple of Example 2.1.
    A mapping argument is useful when attribute names are not valid Python
    identifiers (``tup({"first name": "john"})``).
    """
    combined = {}
    if mapping:
        combined.update(mapping)
    combined.update(attributes)
    return TupleObject({name: obj(value) for name, value in combined.items()})


def set_of(*elements: PythonValue) -> ComplexObject:
    """Build a set object; elements may be plain Python values.

    ``set_of("john", "mary", "susan")`` is the set of atoms of Example 2.1.
    """
    return SetObject(obj(element) for element in elements)


def python_value(value: ComplexObject):
    """Best-effort inverse of :func:`obj` for interoperability.

    Atoms become their payloads, tuples become dicts, sets become frozensets
    when every converted element is hashable and lists otherwise, ⊥ becomes
    ``None`` and ⊤ raises (there is no Python value for the inconsistent
    object).
    """
    if isinstance(value, Bottom):
        return None
    if isinstance(value, Top):
        raise NotAnObjectError("TOP has no plain Python representation")
    if isinstance(value, Atom):
        return value.value
    if isinstance(value, TupleObject):
        return {name: python_value(item) for name, item in value.items()}
    if isinstance(value, SetObject):
        converted = [python_value(element) for element in value]
        try:
            return frozenset(converted)
        except TypeError:
            return converted
    raise NotAnObjectError(f"not a complex object: {value!r}")
