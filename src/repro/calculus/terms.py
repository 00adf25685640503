"""Well-formed formulae (Definition 4.1 of the paper).

A well-formed formula has exactly the syntax of a complex object except that
*variables* may appear wherever an object may appear:

(i)   a variable is a well-formed formula;
(ii)  an atomic object is a well-formed formula (we also allow any ground
      complex object as a constant, which is a conservative generalisation:
      a ground tuple/set constant behaves exactly like the tuple/set formula
      spelling out its parts);
(iii) ``[a1: w1, ..., an: wn]`` is a well-formed formula when the ``wi`` are
      and the ``ai`` are distinct attribute names;
(iv)  ``{w1, ..., wn}`` is a well-formed formula when the ``wi`` are.

Following the paper we use the Prolog convention: identifiers starting with an
upper-case letter are variables, everything else is a constant.
"""

from __future__ import annotations

import sys
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from repro.core.builder import converting, obj
from repro.core.errors import NestingError, NotAnObjectError, ParameterError
from repro.core.intern import intern_term
from repro.core.objects import ComplexObject, nesting_levels

__all__ = [
    "Formula",
    "Variable",
    "Constant",
    "Parameter",
    "TupleFormula",
    "SetFormula",
    "bind_parameters",
    "formula",
    "param",
    "var",
    "within_budget",
]


class Formula:
    """Abstract base class of well-formed formulae.

    Formulae are immutable and hash-consed like objects
    (:func:`repro.core.intern.intern_term`): the constructors return the one
    instance of each structure, so equality is identity and hashing is by
    identity.  A set formula's element order is part of its structure —
    ``{X, Y}`` and ``{Y, X}`` are two formulae with one meaning.  Each node
    fixes its container depth and its variable and parameter names when it
    is built.
    """

    __slots__ = ("_iid", "_depth", "_variables", "_parameters", "__weakref__")

    def variables(self) -> FrozenSet[str]:
        """The names of the variables occurring in the formula."""
        return self._variables

    def parameters(self) -> FrozenSet[str]:
        """The names of the ``$parameter`` slots occurring in the formula."""
        return self._parameters

    @property
    def is_ground(self) -> bool:
        """``True`` when the formula contains no variables."""
        return not self._variables

    def to_text(self) -> str:
        """Render the formula in the paper's concrete syntax (within the depth budget)."""
        return within_budget(self, "print")._text()

    def _text(self) -> str:
        raise NotImplementedError

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_text()}>"


_NO_NAMES: FrozenSet[str] = frozenset()


def _build(cls, slot, value, children, variables, parameters):
    """A new ``cls`` node: a leaf's names are given, a container's come from its ``children``."""
    node = object.__new__(cls)
    object.__setattr__(node, slot, value)
    if children:
        depth = 1 + max(child._depth for child in children)
        variables = _joined(child._variables for child in children)
        parameters = _joined(child._parameters for child in children)
    else:
        # A constant is as deep as its value's container levels.
        depth = nesting_levels([value]) if slot == "value" else 0
        variables = frozenset(variables) if variables else _NO_NAMES
        parameters = frozenset(parameters) if parameters else _NO_NAMES
    object.__setattr__(node, "_depth", depth)
    object.__setattr__(node, "_variables", variables)
    object.__setattr__(node, "_parameters", parameters)
    return node


def _joined(sets):
    """The union of ``sets``, sharing one of them when it holds all the others."""
    result = _NO_NAMES
    for names in sets:
        if not names <= result:
            result = names if names >= result else result | names
    return result


class Variable(Formula):
    """A variable (Definition 4.1(i)), written as an upper-case identifier."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not name or not isinstance(name, str):
            raise ValueError("variable names must be non-empty strings")
        if not (name[0].isupper() or name[0] == "_"):
            raise ValueError(
                f"variable names must start with an upper-case letter or '_': {name!r}"
            )
        return intern_term(("v", name), _build, cls, "name", name, (), (name,), ())

    def _text(self) -> str:
        return self.name


class Constant(Formula):
    """A ground complex object used as a formula (Definition 4.1(ii)).

    Two constants are one formula when their values are one interned object,
    or equal raw ones.  Its ``_depth`` counts its value's container levels.
    """

    __slots__ = ("value",)

    def __new__(cls, value: ComplexObject):
        if not isinstance(value, ComplexObject):
            raise NotAnObjectError(
                f"Constant expects a ComplexObject, got {type(value).__name__}"
            )
        key = ("c", value._iid) if value._iid is not None else ("raw", value)
        return intern_term(key, _build, cls, "value", value, (), (), ())

    def _text(self) -> str:
        return self.value._text()


class Parameter(Formula):
    """A named constant slot ``$name``, bound to a ground object at execute time.

    Parameters extend Definition 4.1 the way classic prepared statements
    extend SQL: a parameter stands for a *constant* whose value is supplied
    when the query is executed, not when it is parsed or planned.  A formula
    containing parameters can therefore be compiled and cost-ordered once
    (see :mod:`repro.plan`) and re-executed with different bindings without
    re-planning — :func:`bind_parameters` substitutes the values structurally,
    which cannot change the formula's shape, leaf paths or variable set.
    """

    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not name or not isinstance(name, str):
            raise ValueError("parameter names must be non-empty strings")
        if not (name[0].isalpha() or name[0] == "_"):
            raise ValueError(
                f"parameter names must start with a letter or '_': {name!r}"
            )
        return intern_term(("p", name), _build, cls, "name", name, (), (), (name,))

    def _text(self) -> str:
        return f"${self.name}"


class TupleFormula(Formula):
    """A tuple-shaped formula ``[a1: w1, ..., an: wn]`` (Definition 4.1(iii))."""

    __slots__ = ("_attrs",)

    def __new__(cls, attributes: Mapping[str, Formula] = None, **kwargs: Formula):
        mapping: Dict[str, Formula] = {}
        if attributes:
            mapping.update(attributes)
        if kwargs:
            mapping.update(kwargs)
        for name, value in mapping.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"attribute names must be non-empty strings: {name!r}")
            if not isinstance(value, Formula):
                raise TypeError(
                    f"attribute {name!r} must map to a Formula, got {type(value).__name__}"
                )
        ordered = tuple(sorted(mapping.items(), key=lambda item: item[0]))
        children = tuple(value for _, value in ordered)
        return intern_term(("t", ordered), _build, cls, "_attrs", ordered, children, (), ())

    @property
    def attributes(self) -> Tuple[str, ...]:
        """The attribute names, in canonical order."""
        return tuple(name for name, _ in self._attrs)

    def get(self, name: str) -> Optional[Formula]:
        """The sub-formula at attribute ``name``, or ``None`` when absent."""
        for attr, value in self._attrs:
            if attr == name:
                return value
        return None

    def items(self) -> Tuple[Tuple[str, Formula], ...]:
        return self._attrs

    def __len__(self) -> int:
        return len(self._attrs)

    def _text(self) -> str:
        inner = ", ".join(f"{name}: {value._text()}" for name, value in self._attrs)
        return f"[{inner}]"


class SetFormula(Formula):
    """A set-shaped formula ``{w1, ..., wn}`` (Definition 4.1(iv)), elements in written order."""

    __slots__ = ("elements",)

    def __new__(cls, elements: Iterable[Formula] = ()):
        collected = tuple(elements)
        for element in collected:
            if not isinstance(element, Formula):
                raise TypeError(
                    f"set formula elements must be Formulae, got {type(element).__name__}"
                )
        return intern_term(("s", collected), _build, cls, "elements", collected, collected, (), ())

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def _text(self) -> str:
        inner = ", ".join(element._text() for element in self.elements)
        return "{" + inner + "}"


def within_budget(node: Formula, to: str) -> Formula:
    """``node``, or :class:`~repro.core.errors.NestingError` when it is too deep ``to`` walk.

    The one depth budget for formulae is a quarter of the recursion limit: a
    formula walk takes at most about three frames a level.
    """
    if node._depth > sys.getrecursionlimit() // 4:
        raise NestingError(f"formula is nested {node._depth} levels deep, too deep to {to}")
    return node


def var(name: str) -> Variable:
    """Shorthand constructor for a variable."""
    return Variable(name)


def param(name: str) -> Parameter:
    """Shorthand constructor for a named ``$parameter`` slot."""
    return Parameter(name)


def bind_parameters(
    target: Formula, values: Mapping[str, ComplexObject]
) -> Formula:
    """Substitute ground objects for every ``$parameter`` slot of ``target``.

    The substitution is purely structural — a parameter becomes a
    :class:`Constant` carrying its value — so the result has exactly the
    shape, paths and variables of ``target``.  Sub-formulae without
    parameters are returned *as the same object*, and formulae are
    hash-consed, so binding the same values again gives the same formula.
    Raises :class:`~repro.core.errors.ParameterError` when a slot has no
    value; extra names in ``values`` are the caller's concern (see
    :meth:`repro.api.PreparedQuery.execute`, which rejects them).
    """
    if not target.parameters():
        return target
    if isinstance(target, Parameter):
        value = values.get(target.name)
        if value is None:
            raise ParameterError(f"no value bound for parameter ${target.name}")
        if not isinstance(value, ComplexObject):
            raise NotAnObjectError(
                f"parameter ${target.name} must be bound to a ComplexObject,"
                f" got {type(value).__name__}"
            )
        return Constant(value)
    if isinstance(target, TupleFormula):
        return TupleFormula(
            {name: bind_parameters(child, values) for name, child in target.items()}
        )
    if isinstance(target, SetFormula):
        return SetFormula(bind_parameters(child, values) for child in target.elements)
    raise TypeError(f"not a formula: {target!r}")


FormulaLike = Union[Formula, ComplexObject, None, bool, int, float, str, dict, list, tuple, set]
"""Python values accepted by :func:`formula`."""


def formula(value: FormulaLike) -> Formula:
    """Build a formula from a Python literal that may embed variables.

    Mirrors :func:`repro.core.builder.obj` (its errors too) but keeps
    :class:`Variable` instances (and nested formulae) intact, so a join formula
    can be written as ``formula({"r1": [{"a": var("X")}], "r2": [{"b": var("X")}]})``.
    """
    return converting(_convert, value)


def _convert(value: FormulaLike) -> Formula:
    if isinstance(value, Formula):
        return value
    if isinstance(value, ComplexObject):
        return Constant(value)
    if isinstance(value, Mapping):
        return TupleFormula({name: _convert(item) for name, item in value.items()})
    if isinstance(value, (list, tuple, set, frozenset)):
        return SetFormula(_convert(item) for item in value)
    # Atomic Python values (and None → ⊥) become ground constants.
    return Constant(obj(value))
