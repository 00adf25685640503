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
from itertools import repeat
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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
#: A tuple's ``(name, value)`` pair, read without a Python-level call.
_NAME, _VALUE = itemgetter(0), itemgetter(1)


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
    """The exact (most precise) shape of one concrete object.

    The shape at one position of ``value`` is the join of the shapes of every
    value standing there: a set's element shape joins its elements', and
    below a group of tuples one attribute's values form the next group.  So
    the fold walks positions post-order on an explicit stack instead of the
    call stack: it folds an object of any depth, and it folds a group at
    once instead of joining two deep shapes (:func:`join` recurses).

    A stack entry pairs what to fold with the list its shape goes to: one
    object, a list (a group), or a tuple ``(names, shapes, extra)`` for a
    position whose children's ``shapes`` are done.  ``names`` is ``None`` at
    a set position, whose ``extra`` is the cardinality; at a tuple position
    ``extra`` says that atoms or sets stand beside the tuples.
    """
    if not isinstance(value, ComplexObject):
        raise TypeError(f"not a complex object: {value!r}")
    folded: List[Shape] = []
    stack: list = [(value, folded)]
    while stack:
        item, out = stack.pop()
        kind = item.__class__
        if kind is Atom:
            out.append(AtomShape(frozenset((item,))))
        elif kind is TupleObject:
            pairs = item.items()
            kids: List[Shape] = []
            stack.append(((tuple(map(_NAME, pairs)), kids, False), out))
            # Pushed last to first, so the children fold in order.
            stack.extend(zip(map(_VALUE, reversed(pairs)), repeat(kids)))
        elif kind is SetObject:
            elements = item.elements
            kids = []
            count = len(elements)
            stack.append(((None, kids, float(count)), out))
            stack.append((elements[0] if count == 1 else list(elements), kids))
        elif kind is tuple:
            names, kids, extra = item
            if names is None:
                out.append(SetShape(kids[0], extra))
            else:
                shape = make_tuple(zip(names, kids))
                # Beside atoms or sets, tuples join to ANY unless they hold ⊤.
                out.append(ANY if extra and shape is not TOPANY else shape)
        elif kind is list:
            _open_group(item, out, stack)
        elif item is BOTTOM:
            out.append(ABSENT)
        elif item is TOP:
            out.append(TOPANY)
        else:
            raise TypeError(f"not a complex object: {item!r}")
    return folded[0]


def _open_group(group: list, out: List[Shape], stack: list) -> None:
    """Fold a group of values standing at one position, or push its children."""
    atoms = set()
    fields: Optional[Dict[str, list]] = None
    sets = []
    for item in group:
        kind = item.__class__
        if kind is Atom:
            atoms.add(item)
        elif kind is TupleObject:
            if fields is None:
                fields = {}
            for name, child in item.items():
                fields.setdefault(name, []).append(child)
        elif kind is SetObject:
            sets.append(item)
        elif item is TOP:
            out.append(TOPANY)
            return
        elif item is not BOTTOM:
            raise TypeError(f"not a complex object: {item!r}")
    if fields is not None:
        kids: List[Shape] = []
        names = tuple(fields)
        stack.append(((names, kids, bool(atoms or sets)), out))
        stack.extend(zip(map(fields.__getitem__, reversed(names)), repeat(kids)))
    elif sets and atoms:
        out.append(ANY)
    elif sets:
        kids = []
        card = max([len(each.elements) for each in sets])
        stack.append(((None, kids, float(card)), out))
        stack.append(([element for each in sets for element in each.elements], kids))
    elif atoms:
        out.append(AtomShape(frozenset(atoms) if len(atoms) <= ATOM_LIMIT else None))
    else:
        out.append(ABSENT)


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
    """``True`` when TOPANY occurs in ``shape``, walked on a list that only grows
    (the shape of a deep object is as deep as it)."""
    parts = [shape]
    for part in parts:
        if part == TOPANY:
            return True
        if isinstance(part, TupleShape):
            parts.extend(child for _, child in part.attrs)
        elif isinstance(part, SetShape):
            parts.append(part.element)
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
