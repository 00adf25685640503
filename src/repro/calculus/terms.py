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

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from repro.core.builder import obj
from repro.core.errors import NestingError, NotAnObjectError, ParameterError
from repro.core.objects import ComplexObject, nesting_levels, too_deep

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
]


class Formula:
    """Abstract base class of well-formed formulae.

    Formulae are immutable; equality and hashing are structural, which lets
    rule sets deduplicate rules and lets tests compare parsed and hand-built
    formulae directly.
    """

    __slots__ = ()

    def variables(self) -> FrozenSet[str]:
        """The names of the variables occurring in the formula."""
        raise NotImplementedError

    def parameters(self) -> FrozenSet[str]:
        """The names of the ``$parameter`` slots occurring in the formula."""
        return frozenset()

    @property
    def is_ground(self) -> bool:
        """``True`` when the formula contains no variables."""
        return not self.variables()

    def to_text(self) -> str:
        """Render the formula in the paper's concrete syntax."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_text()}>"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self._signature() == other._signature()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(self._signature())

    def _signature(self):
        raise NotImplementedError


class Variable(Formula):
    """A variable (Definition 4.1(i)), written as an upper-case identifier."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError("variable names must be non-empty strings")
        if not (name[0].isupper() or name[0] == "_"):
            raise ValueError(
                f"variable names must start with an upper-case letter or '_': {name!r}"
            )
        object.__setattr__(self, "name", name)

    def __setattr__(self, key, value):
        raise AttributeError("Variable is immutable")

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def to_text(self) -> str:
        return self.name

    def _signature(self):
        return ("var", self.name)


class Constant(Formula):
    """A ground complex object used as a formula (Definition 4.1(ii))."""

    __slots__ = ("value",)

    def __init__(self, value: ComplexObject):
        if not isinstance(value, ComplexObject):
            raise NotAnObjectError(
                f"Constant expects a ComplexObject, got {type(value).__name__}"
            )
        object.__setattr__(self, "value", value)

    def __setattr__(self, key, value):
        raise AttributeError("Constant is immutable")

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def to_text(self) -> str:
        return self.value.to_text()

    def _signature(self):
        return ("const", self.value)


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

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError("parameter names must be non-empty strings")
        if not (name[0].isalpha() or name[0] == "_"):
            raise ValueError(
                f"parameter names must start with a letter or '_': {name!r}"
            )
        object.__setattr__(self, "name", name)

    def __setattr__(self, key, value):
        raise AttributeError("Parameter is immutable")

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def parameters(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def to_text(self) -> str:
        return f"${self.name}"

    def _signature(self):
        return ("param", self.name)


class TupleFormula(Formula):
    """A tuple-shaped formula ``[a1: w1, ..., an: wn]`` (Definition 4.1(iii))."""

    __slots__ = ("_attrs",)

    def __init__(self, attributes: Mapping[str, Formula] = None, **kwargs: Formula):
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
        object.__setattr__(self, "_attrs", ordered)

    def __setattr__(self, key, value):
        raise AttributeError("TupleFormula is immutable")

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

    def variables(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for _, value in self._attrs:
            names |= value.variables()
        return names

    def parameters(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for _, value in self._attrs:
            names |= value.parameters()
        return names

    def to_text(self) -> str:
        inner = ", ".join(f"{name}: {value.to_text()}" for name, value in self._attrs)
        return f"[{inner}]"

    def _signature(self):
        return ("tuple", tuple((name, value._signature()) for name, value in self._attrs))


class SetFormula(Formula):
    """A set-shaped formula ``{w1, ..., wn}`` (Definition 4.1(iv))."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[Formula] = ()):
        collected = tuple(elements)
        for element in collected:
            if not isinstance(element, Formula):
                raise TypeError(
                    f"set formula elements must be Formulae, got {type(element).__name__}"
                )
        object.__setattr__(self, "elements", collected)

    def __setattr__(self, key, value):
        raise AttributeError("SetFormula is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def variables(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for element in self.elements:
            names |= element.variables()
        return names

    def parameters(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for element in self.elements:
            names |= element.parameters()
        return names

    def to_text(self) -> str:
        inner = ", ".join(element.to_text() for element in self.elements)
        return "{" + inner + "}"

    def _signature(self):
        # Element order is irrelevant to the formula's meaning, so the
        # signature sorts element signatures to make structurally equivalent
        # formulae compare equal.
        return ("set", tuple(sorted(element._signature() for element in self.elements)))


def _subformulas(node: Formula) -> Iterable[Formula]:
    if isinstance(node, TupleFormula):
        return [value for _, value in node._attrs]
    return node.elements if isinstance(node, SetFormula) else ()


def too_deep_formula(
    to: str, formulas: Iterable[Optional[Formula]], target: Optional[ComplexObject] = None
) -> NestingError:
    """The error for a walk (to prepare, plan, close...) that overflowed the stack.

    Names the depth of the deepest of ``formulas`` (``None`` is skipped), or
    of ``target`` — the object the walk ran against — when that is nested
    deeper: the deeper of the two is what the stack could not hold.
    """
    levels = nesting_levels([node for node in formulas if node is not None], _subformulas)
    if target is not None and nesting_levels([target]) > levels:
        return too_deep(target, to)
    return NestingError(f"formula is nested {levels} levels deep, too deep to {to}")


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
    parameters are returned *as the same object*, which keeps the
    ``lru_cache``-keyed plan compilation effective for the unchanged parts.
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

    Mirrors :func:`repro.core.builder.obj` but keeps :class:`Variable`
    instances (and nested formulae) intact, so a join formula can be written
    as ``formula({"r1": [{"a": var("X")}], "r2": [{"b": var("X")}]})``.
    """
    if isinstance(value, Formula):
        return value
    if isinstance(value, ComplexObject):
        return Constant(value)
    if isinstance(value, Mapping):
        return TupleFormula({name: formula(item) for name, item in value.items()})
    if isinstance(value, (list, tuple, set, frozenset)):
        return SetFormula(formula(item) for item in value)
    # Atomic Python values (and None → ⊥) become ground constants.
    return Constant(obj(value))
