"""Substitutions and instantiation.

A substitution ``σ = {O1/X1, ..., On/Xn}`` maps variable names to complex
objects; applying it to a well-formed formula ``E`` yields the *instantiation*
``σE`` (Section 4 of the paper, just before Definition 4.2).  Instantiation is
monotone in the substitution: if ``σ(X) ≤ σ'(X)`` for every variable then
``σE ≤ σ'E``.  That monotonicity is what lets the matching engine consider
only derivation-maximal substitutions — smaller substitutions contribute
nothing new to the union of Definition 4.2.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.core.errors import ParameterError, UnboundVariableError
from repro.core.lattice import intersection
from repro.core.objects import BOTTOM, ComplexObject, SetObject, TupleObject
from repro.calculus.terms import (
    Constant,
    Formula,
    Parameter,
    SetFormula,
    TupleFormula,
    Variable,
)

__all__ = ["Substitution", "instantiate"]


class Substitution:
    """An immutable mapping from variable names to complex objects."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Mapping[str, ComplexObject]] = None):
        items: Dict[str, ComplexObject] = {}
        if bindings:
            for name, value in bindings.items():
                if not isinstance(value, ComplexObject):
                    raise TypeError(
                        f"substitution for {name!r} must be a ComplexObject,"
                        f" got {type(value).__name__}"
                    )
                items[name] = value
        object.__setattr__(self, "_bindings", tuple(sorted(items.items())))

    def __setattr__(self, key, value):
        raise AttributeError("Substitution is immutable")

    @classmethod
    def _from_sorted(
        cls, bindings: Tuple[Tuple[str, ComplexObject], ...]
    ) -> "Substitution":
        """Wrap an already-sorted, already-validated bindings tuple.

        The vectorized executor accumulates bindings as plain dicts and only
        materialises :class:`Substitution` objects for the deduplicated final
        rows; this constructor skips the per-binding type checks and the sort
        ``__init__`` would redo.  ``bindings`` must be exactly what
        ``tuple(sorted(mapping.items()))`` yields for a str→ComplexObject
        mapping — nothing enforces it here.
        """
        instance = object.__new__(cls)
        object.__setattr__(instance, "_bindings", bindings)
        return instance

    # -- mapping protocol ---------------------------------------------------------
    def get(self, name: str, default: Optional[ComplexObject] = None) -> Optional[ComplexObject]:
        for key, value in self._bindings:
            if key == name:
                return value
        return default

    def __getitem__(self, name: str) -> ComplexObject:
        value = self.get(name)
        if value is None:
            raise KeyError(name)
        return value

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _ in self._bindings)

    def __iter__(self) -> Iterator[str]:
        return (key for key, _ in self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def items(self) -> Tuple[Tuple[str, ComplexObject], ...]:
        return self._bindings

    def as_dict(self) -> Dict[str, ComplexObject]:
        return dict(self._bindings)

    # -- equality -----------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(self._bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"{value.to_text()}/{name}" for name, value in self._bindings)
        return "{" + inner + "}"

    # -- operations ---------------------------------------------------------------
    def bind(self, name: str, value: ComplexObject) -> "Substitution":
        """Return a new substitution with ``name`` (re)bound to ``value``."""
        mapping = self.as_dict()
        mapping[name] = value
        return Substitution(mapping)

    def meet(self, other: "Substitution") -> "Substitution":
        """Combine two substitutions, intersecting (glb) bindings for shared variables.

        This is how the matching engine merges the constraints collected for a
        variable from its different occurrences: each occurrence yields an
        upper bound, and the strongest consistent binding is their greatest
        lower bound.  The meet always exists because the object space is a
        lattice; an empty intersection simply binds the variable to ⊥.
        """
        if not self._bindings:
            return other
        if not other._bindings:
            return self
        mapping = self.as_dict()
        for name, value in other.items():
            existing = mapping.get(name)
            if existing is None:
                mapping[name] = value
            elif existing is not value:
                # On interned objects equal bindings are identical, so the
                # identity check above skips the lattice meet for
                # the overwhelmingly common agreeing-occurrences case.
                mapping[name] = intersection(existing, value)
        return Substitution(mapping)

    def restrict(self, names) -> "Substitution":
        """Return the substitution restricted to the given variable names."""
        wanted = set(names)
        return Substitution({k: v for k, v in self._bindings if k in wanted})

    def apply(self, target: Formula, default: Optional[ComplexObject] = BOTTOM) -> ComplexObject:
        """Instantiate ``target`` under this substitution (see :func:`instantiate`)."""
        return instantiate(target, self, default=default)


def instantiate(
    target: Formula,
    substitution: Substitution,
    default: Optional[ComplexObject] = BOTTOM,
) -> ComplexObject:
    """Compute the instantiation ``σE`` of a formula under a substitution.

    Unbound variables take ``default`` (⊥ unless told otherwise, matching the
    convention that an unknown value is the undefined object); pass
    ``default=None`` to make unbound variables an error instead.
    """
    if isinstance(target, Constant):
        return target.value
    if isinstance(target, Parameter):
        raise ParameterError(
            f"cannot instantiate ${target.name}: parameters must be bound"
            " (see repro.calculus.terms.bind_parameters) before evaluation"
        )
    if isinstance(target, Variable):
        value = substitution.get(target.name)
        if value is None:
            if default is None:
                # UnboundVariableError keeps KeyError as a base class, so
                # pre-existing ``except KeyError`` handlers still work while
                # the one-error-surface contract (everything derives from
                # ReproError) holds for session callers.
                raise UnboundVariableError(target.name)
            return default
        return value
    if isinstance(target, TupleFormula):
        return TupleObject(
            {
                name: instantiate(child, substitution, default=default)
                for name, child in target.items()
            }
        )
    if isinstance(target, SetFormula):
        return SetObject(
            instantiate(child, substitution, default=default) for child in target.elements
        )
    raise TypeError(f"not a formula: {target!r}")
