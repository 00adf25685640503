"""The bounded shape domain: abstract values over the sub-object lattice.

A :class:`Shape` describes a *set of complex objects* — the abstraction the
whole-program inference of :mod:`repro.lint.shapes.infer` computes for every
rule head and for the database as a whole.  The domain mirrors the object
constructors of the paper (Definition 2.1) one level of abstraction up:

* :data:`ABSENT` — only ⊥ (an empty region: nothing is ever derived here);
* :class:`AtomShape` — ⊥ or an atom, optionally restricted to a finite set of
  values;
* :class:`TupleShape` — ⊥ or a tuple whose *present* attributes are among the
  declared keys, each value conforming to its child shape (a missing
  attribute reads as ⊥, so declaring a key never *requires* it — exactly the
  paper's ``O.a = ⊥`` convention);
* :class:`SetShape` — ⊥ or a set whose elements all conform to the element
  shape; ``max_card`` is a cardinality *estimate*, sound for values built by
  lattice union, advisory for arbitrary sub-objects (see below);
* :data:`ANY` — any object except ⊤.  This is the widening top for witness
  bindings: normalization propagates ⊤ upward, so a proper sub-part of a
  normalized non-⊤ object is never ⊤;
* :data:`TOPANY` — any object including ⊤, produced whenever a lattice union
  may genuinely collapse to ⊤ (two distinct atoms merged at the same tuple
  attribute collapse the whole database).

Conformance (:func:`admits`) is downward closed along the sub-object order —
``x ⊑ y`` and ``admits(s, y)`` imply ``admits(s, x)`` — which is why a shape
inferred for a region also covers every witness a matcher can extract from
it.  The one deliberate exception is the set cardinality bound, which
admission ignores entirely: a reduced sub-set of a set can have *more*
elements than the set (``{[a:1], [b:2]} ⊑ {[a:1, b:2]}``), so ``max_card``
only ever feeds the optimizer's estimates, never a pruning decision.  The
property suite (``tests/test_shape_properties.py``) pins both facts.

Four operators drive the abstract interpreter:

* :func:`join` — alternation ("one of"): the least shape admitting both
  operands' objects.  Used to summarise a set's elements.
* :func:`merge` — abstraction of the lattice union ``x ⊔ y``.  Atom
  conflicts escalate to :data:`TOPANY` (that is the genuine ⊤-collapse),
  tuples union their keys, sets join their elements and add cardinalities.
* :func:`meet` — refinement ("both at once"), used when several literals
  constrain one variable; an empty meet is a contradiction (RL203).
* :func:`self_merge` — abstraction of ``⋃ σ σ(head)`` over an *unknown*
  number of substitutions: the per-rule summary operator.  Sets absorb
  (their cardinality just becomes unbounded), which is why the common
  head-under-set idiom keeps full precision.

:func:`truncate` bounds depth (and atom-set width), making every chain in
the domain finite so the SCC fixpoint terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.core.objects import (
    BOTTOM,
    TOP,
    Atom,
    ComplexObject,
    SetObject,
    TupleObject,
)

__all__ = [
    "ABSENT",
    "ANY",
    "ATOM_LIMIT",
    "AtomShape",
    "DEPTH_LIMIT",
    "SetShape",
    "Shape",
    "TOPANY",
    "TupleShape",
    "admits",
    "join",
    "make_tuple",
    "meet",
    "merge",
    "self_merge",
    "shape_of_object",
    "truncate",
    "widen",
]

#: Depth beyond which :func:`truncate` replaces subtrees with :data:`ANY`.
DEPTH_LIMIT = 8
#: Width beyond which an atom value set widens to "any atom".
ATOM_LIMIT = 16

_INF = math.inf


class Shape:
    """Abstract base class of shape-domain values."""

    __slots__ = ()

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Shape {self.describe()}>"


@dataclass(frozen=True, repr=False)
class _Marker(Shape):
    """A domain constant: one of the three structure-free shapes."""

    token: str

    def describe(self) -> str:
        return {"topany": "any|⊤", "any": "any", "absent": "empty"}[self.token]


#: Any object, including ⊤.
TOPANY = _Marker("topany")
#: Any object except ⊤.
ANY = _Marker("any")
#: Only ⊥ — a region nothing is ever derived into.
ABSENT = _Marker("absent")


@dataclass(frozen=True, repr=False)
class AtomShape(Shape):
    """⊥ or an atom; ``values`` (when not ``None``) restricts which atoms."""

    values: Optional[FrozenSet[Atom]] = None

    def describe(self) -> str:
        if self.values is None:
            return "atom"
        shown = sorted(self.values, key=lambda a: a.sort_key())
        inner = ", ".join(a.to_text() for a in shown[:4])
        if len(shown) > 4:
            inner += ", …"
        return "atom{" + inner + "}"


@dataclass(frozen=True, repr=False)
class TupleShape(Shape):
    """⊥ or a tuple whose present attributes are among ``attrs``."""

    attrs: Tuple[Tuple[str, Shape], ...] = ()

    def get(self, name: str) -> Shape:
        """The child shape at attribute ``name``; ABSENT when undeclared."""
        for attr, child in self.attrs:
            if attr == name:
                return child
        return ABSENT

    def describe(self) -> str:
        inner = ", ".join(f"{name}: {child.describe()}" for name, child in self.attrs)
        return f"[{inner}]"


@dataclass(frozen=True, repr=False)
class SetShape(Shape):
    """⊥ or a set of ``element``-shaped objects; ``max_card`` is advisory."""

    element: Shape = ANY
    max_card: float = _INF

    def describe(self) -> str:
        text = "{" + self.element.describe() + "}"
        if self.max_card != _INF:
            text += f"≤{int(self.max_card)}"
        return text


def make_tuple(items: Iterable[Tuple[str, Shape]]) -> Shape:
    """Canonical tuple shape: keys sorted, ABSENT children dropped, ⊤ escalated.

    Dropping an ABSENT-valued key is the shape-level twin of the paper's
    "⊥-valued attribute equals absent attribute"; a TOPANY child means the
    attribute value may be ⊤, which collapses the whole tuple.
    """
    kept = []
    for name, child in items:
        if child == TOPANY:
            return TOPANY
        if child == ABSENT:
            continue
        kept.append((name, child))
    return TupleShape(tuple(sorted(kept, key=lambda item: item[0])))


# -- concrete → abstract ------------------------------------------------------------


def shape_of_object(value: ComplexObject) -> Shape:
    """The exact (most precise) shape of one concrete object."""
    if value is BOTTOM:
        return ABSENT
    if value is TOP:
        return TOPANY
    if isinstance(value, Atom):
        return AtomShape(frozenset((value,)))
    if isinstance(value, TupleObject):
        return make_tuple(
            (name, shape_of_object(item)) for name, item in value.items()
        )
    if isinstance(value, SetObject):
        element: Shape = ABSENT
        for item in value.elements:
            element = join(element, shape_of_object(item))
        return SetShape(element, float(len(value.elements)))
    raise TypeError(f"not a complex object: {value!r}")


# -- conformance --------------------------------------------------------------------


def admits(shape: Shape, value: ComplexObject) -> bool:
    """``True`` when ``value`` conforms to ``shape`` (⊥ conforms to everything).

    By downward closure this is also the feasibility test behind constant
    selections and RL204: ``False`` proves ``value ⊑ x`` fails for *every*
    ``x`` conforming to ``shape``.
    """
    if value is BOTTOM:
        return True
    if shape == TOPANY:
        return True
    if value is TOP:
        return False
    if shape == ANY:
        return True
    if shape == ABSENT:
        return False
    if isinstance(shape, AtomShape):
        if not isinstance(value, Atom):
            return False
        return shape.values is None or value in shape.values
    if isinstance(shape, TupleShape):
        if not isinstance(value, TupleObject):
            return False
        return all(admits(shape.get(name), item) for name, item in value.items())
    if isinstance(shape, SetShape):
        if not isinstance(value, SetObject):
            return False
        # max_card deliberately ignored: admission must stay downward closed.
        return all(admits(shape.element, item) for item in value.elements)
    raise TypeError(f"not a shape: {shape!r}")


# -- alternation (join) -------------------------------------------------------------


def join(a: Shape, b: Shape) -> Shape:
    """The least shape admitting both operands' objects ("one of a, b")."""
    if a == b:
        return a
    if a == ABSENT:
        return b
    if b == ABSENT:
        return a
    if a == TOPANY or b == TOPANY:
        return TOPANY
    if a == ANY or b == ANY:
        return ANY
    if isinstance(a, AtomShape) and isinstance(b, AtomShape):
        if a.values is None or b.values is None:
            return AtomShape(None)
        values = a.values | b.values
        return AtomShape(None) if len(values) > ATOM_LIMIT else AtomShape(values)
    if isinstance(a, TupleShape) and isinstance(b, TupleShape):
        names = {name for name, _ in a.attrs} | {name for name, _ in b.attrs}
        return make_tuple((name, join(a.get(name), b.get(name))) for name in names)
    if isinstance(a, SetShape) and isinstance(b, SetShape):
        return SetShape(join(a.element, b.element), max(a.max_card, b.max_card))
    # Cross-kind alternation: some non-⊤ object of either kind.
    return ANY


# -- refinement (meet) --------------------------------------------------------------


def meet(a: Shape, b: Shape) -> Shape:
    """Over-approximation of the objects conforming to *both* shapes."""
    if a == b:
        return a
    if a == TOPANY:
        return b
    if b == TOPANY:
        return a
    if a == ANY:
        return b
    if b == ANY:
        return a
    if a == ABSENT or b == ABSENT:
        return ABSENT
    if isinstance(a, AtomShape) and isinstance(b, AtomShape):
        if a.values is None:
            return b
        if b.values is None:
            return a
        common = a.values & b.values
        return AtomShape(common) if common else ABSENT
    if isinstance(a, TupleShape) and isinstance(b, TupleShape):
        names = {name for name, _ in a.attrs} & {name for name, _ in b.attrs}
        # A key whose meet is ABSENT simply cannot be present (⊥ = absent);
        # the tuple itself survives, possibly with no keys left.
        return make_tuple((name, meet(a.get(name), b.get(name))) for name in names)
    if isinstance(a, SetShape) and isinstance(b, SetShape):
        element = meet(a.element, b.element)
        if element == ABSENT:
            return SetShape(ABSENT, 0.0)  # only ⊥ and the empty set
        return SetShape(element, min(a.max_card, b.max_card))
    # Cross-kind: only ⊥ conforms to both.
    return ABSENT


# -- lattice union abstraction (merge) ----------------------------------------------


def merge(a: Shape, b: Shape) -> Shape:
    """Abstraction of ``x ⊔ y`` for ``x`` conforming to ``a``, ``y`` to ``b``.

    Because every shape admits ⊥ and ``x ⊔ ⊥ = x``, a sound merge always
    admits everything either operand admits — growing the database shape is
    monotone under it.
    """
    if a == ABSENT:
        return b
    if b == ABSENT:
        return a
    if a == TOPANY or b == TOPANY:
        return TOPANY
    if a == ANY or b == ANY:
        # Two unknown non-⊤ objects can still union to ⊤.
        return TOPANY
    if isinstance(a, AtomShape) and isinstance(b, AtomShape):
        if (
            a.values is not None
            and b.values is not None
            and len(a.values | b.values) == 1
        ):
            return AtomShape(a.values | b.values)
        # Two distinct atoms may meet: a ⊔ b = ⊤ — the genuine collapse.
        return TOPANY
    if isinstance(a, TupleShape) and isinstance(b, TupleShape):
        names = {name for name, _ in a.attrs} | {name for name, _ in b.attrs}
        return make_tuple((name, merge(a.get(name), b.get(name))) for name in names)
    if isinstance(a, SetShape) and isinstance(b, SetShape):
        # Set union keeps elements of both sides; reduction only shrinks, so
        # the cardinality bound adds.  This is the precision-preserving case.
        return SetShape(join(a.element, b.element), a.max_card + b.max_card)
    # Cross-kind union of two non-⊥ objects is ⊤; with ⊥ on either side the
    # result is the other operand — TOPANY covers both outcomes.
    return TOPANY


def self_merge(shape: Shape) -> Shape:
    """Abstraction of ``⋃ σ σ(head)`` over an unknown number of substitutions.

    The per-rule summary operator: every contribution conforms to ``shape``
    but how many are unioned is statically unknown, so anything that two
    *distinct* conforming objects could collapse must escalate.  Sets absorb
    — their elements stay, only the cardinality becomes unbounded — which is
    why head-under-set rules keep full element precision.
    """
    if shape in (ABSENT, TOPANY):
        return shape
    if shape == ANY:
        return TOPANY
    if isinstance(shape, AtomShape):
        if shape.values is not None and len(shape.values) == 1:
            return shape
        return TOPANY
    if isinstance(shape, TupleShape):
        return make_tuple((name, self_merge(child)) for name, child in shape.attrs)
    if isinstance(shape, SetShape):
        return SetShape(shape.element, _INF)
    raise TypeError(f"not a shape: {shape!r}")


# -- bounding -----------------------------------------------------------------------


def _contains_topany(shape: Shape) -> bool:
    if shape == TOPANY:
        return True
    if isinstance(shape, TupleShape):
        return any(_contains_topany(child) for _, child in shape.attrs)
    if isinstance(shape, SetShape):
        return _contains_topany(shape.element)
    return False


def truncate(shape: Shape, depth: int = DEPTH_LIMIT) -> Shape:
    """Bound ``shape`` to ``depth`` levels; deeper subtrees widen to ANY.

    A truncated subtree that contained TOPANY stays TOPANY (widening must
    not *lose* the possibility of ⊤).  Atom value sets are capped too, so
    every chain in the truncated domain is finite.
    """
    if depth <= 0:
        if shape == ABSENT:
            return ABSENT
        return TOPANY if _contains_topany(shape) else ANY
    if isinstance(shape, AtomShape):
        if shape.values is not None and len(shape.values) > ATOM_LIMIT:
            return AtomShape(None)
        return shape
    if isinstance(shape, TupleShape):
        return make_tuple(
            (name, truncate(child, depth - 1)) for name, child in shape.attrs
        )
    if isinstance(shape, SetShape):
        return SetShape(truncate(shape.element, depth - 1), shape.max_card)
    return shape


def widen(old: Shape, new: Shape) -> Shape:
    """Accelerate convergence between fixpoint rounds: growing cards jump to ∞.

    Everything else (atom sets capped by :data:`ATOM_LIMIT`, tuple keys drawn
    from the program's finite attribute alphabet, depth bounded by
    :func:`truncate`) already lives in a finite-height domain; cardinalities
    are the one counter that could otherwise creep up one round at a time.
    """
    if old == new:
        return old
    if isinstance(old, SetShape) and isinstance(new, SetShape):
        card = new.max_card if new.max_card <= old.max_card else _INF
        return SetShape(widen(old.element, new.element), card)
    if isinstance(old, TupleShape) and isinstance(new, TupleShape):
        names = {name for name, _ in old.attrs} | {name for name, _ in new.attrs}
        return make_tuple(
            (name, widen(old.get(name), new.get(name))) for name in names
        )
    return new
