"""Union and intersection of complex objects (Definitions 3.4–3.5).

The central structural result of the paper (Theorem 3.6) is that reduced
complex objects ordered by the sub-object relation form a **lattice**: any two
objects have a least upper bound — their *union* — and a greatest lower bound
— their *intersection*.  Both operations are defined recursively:

Union (Definition 3.4)
    * ``⊥ ∪ O = O`` and ``⊤ ∪ O = ⊤``;
    * equal atoms join to themselves, distinct atoms join to ⊤;
    * tuples join attribute-wise: ``(O1 ∪ O2).a = O1.a ∪ O2.a``;
    * sets join to the *reduced* set union of their elements;
    * objects of different kinds join to ⊤.

Intersection (Definition 3.5)
    * ``⊤ ∩ O = O`` and ``⊥ ∩ O = ⊥``;
    * equal atoms meet to themselves, distinct atoms meet to ⊥;
    * tuples meet attribute-wise;
    * sets meet to the reduced set ``{ o1 ∩ o2 | o1 ∈ O1, o2 ∈ O2 }`` (note
      that this *includes* but is generally larger than the plain set
      intersection);
    * objects of different kinds meet to ⊥.

Theorems 3.4 and 3.5 state that these are exactly the lub and glb of the
sub-object order; the property-based tests verify the lub/glb laws and the
standard lattice identities (idempotence, commutativity, associativity,
absorption) on randomly generated reduced objects.

Joining many objects.  ``r(O)`` of Definition 4.4 is the union of *every*
instantiated head, which by Theorem 3.4 is one least upper bound of the whole
family, and :func:`union_all` computes it as one: the operands are gathered
once, tuples join attribute-wise over all of them, and the elements of all
set operands go through a single reduction.  A semi-naive round that derives
``k`` one-element ``[doa: {X}]`` heads therefore makes no sub-object test at
all (distinct interned atoms are never comparable) and interns two nodes,
where a pairwise fold built ``k − 1`` intermediate sets and tested ``k²/2``
pairs of atoms.  The binary set join and the n-ary one share one step:
the larger operand grows by the elements it lacks, each tested only against
its own bucket, and derives its index and bucket tables from the larger
one's (``repro.core.order._grown_by``).  Raw operands may be non-reduced
(Example 3.2): :func:`repro.core.order.maximal_cross` joins them.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable

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
from repro.core.order import _grown_by, _lacking, is_subobject, maximal_cross, maximal_unique

__all__ = [
    "union",
    "intersection",
    "union_all",
    "intersection_all",
    "is_lattice_consistent",
]


def union(left: ComplexObject, right: ComplexObject) -> ComplexObject:
    """Return ``left ∪ right``, the least upper bound of the two objects."""
    _check(left, right)
    if left is right or left == right:
        return left
    # Definition 3.4(i).
    if isinstance(left, Bottom):
        return right
    if isinstance(right, Bottom):
        return left
    if isinstance(left, Top) or isinstance(right, Top):
        return TOP
    # Definition 3.4(ii): distinct atoms are jointly inconsistent.
    if isinstance(left, Atom) and isinstance(right, Atom):
        return left if left == right else TOP
    return _union_structural(left, right)


def _union_structural(left: ComplexObject, right: ComplexObject) -> ComplexObject:
    # Definition 3.4(iii): attribute-wise union.  If any attribute joins to ⊤
    # the TupleObject constructor collapses the whole tuple to ⊤, which is
    # exactly the behaviour required by the last paragraph of Theorem 3.4.
    if isinstance(left, TupleObject) and isinstance(right, TupleObject):
        attributes = {}
        for name in set(left.attributes) | set(right.attributes):
            attributes[name] = union(left.get(name), right.get(name))
        return TupleObject(attributes)
    # Definition 3.4(iv): reduced set union.  Both operands are reduced: the
    # larger grows by what the smaller holds alone, tested by bucket only.
    if isinstance(left, SetObject) and isinstance(right, SetObject):
        if left._iid is not None and right._iid is not None:
            larger, smaller = (left, right) if len(left) >= len(right) else (right, left)
            return _grown_by(larger, _lacking(larger, smaller.elements))
        # Raw operands may be non-reduced (Example 3.2): the survivors can
        # still dominate each other, so the result must stay un-interned.
        # Right first: of a mutually dominating pair the right element stays.
        # A raw ⊤ element absorbs every other and a raw ⊥ beside another
        # element is dropped, as in every scan of `order._survivors`.
        elements = list(dict.fromkeys(right.elements + left.elements))
        return SetObject._build(maximal_cross(elements[: len(right)], elements[len(right) :]))
    # Definition 3.4(v): incompatible kinds.
    return TOP


def intersection(left: ComplexObject, right: ComplexObject) -> ComplexObject:
    """Return ``left ∩ right``, the greatest lower bound of the two objects."""
    _check(left, right)
    if left is right or left == right:
        return left
    # Definition 3.5(i).
    if isinstance(left, Top):
        return right
    if isinstance(right, Top):
        return left
    if isinstance(left, Bottom) or isinstance(right, Bottom):
        return BOTTOM
    # Definition 3.5(ii).
    if isinstance(left, Atom) and isinstance(right, Atom):
        return left if left == right else BOTTOM
    return _intersection_structural(left, right)


def _intersection_structural(left: ComplexObject, right: ComplexObject) -> ComplexObject:
    # Definition 3.5(iii): attribute-wise intersection.  Attributes absent on
    # either side read as ⊥, so only the shared attributes can survive; the
    # constructor drops the ⊥-valued ones.
    if isinstance(left, TupleObject) and isinstance(right, TupleObject):
        attributes = {}
        for name in set(left.attributes) & set(right.attributes):
            attributes[name] = intersection(left.get(name), right.get(name))
        return TupleObject(attributes)
    # Definition 3.5(iv): pairwise intersections, reduced.
    if isinstance(left, SetObject) and isinstance(right, SetObject):
        pairwise = [
            intersection(first, second) for first in left.elements for second in right.elements
        ]
        return SetObject(pairwise)
    # Definition 3.5(v): incompatible kinds.
    return BOTTOM


def union_all(objects: Iterable[ComplexObject]) -> ComplexObject:
    """The least upper bound of ``objects`` (Theorem 3.4); of nothing, ⊥.

    ``objects`` is any iterable, a one-shot generator included: it is
    consumed lazily and not past the first ⊤ *operand* (⊤ is absorbing); a
    non-object operand raises ``TypeError``.  A ⊤ that only arises between
    operands (``[a: 1]`` and ``[a: 2]``) is found by the join, after every
    operand has been consumed.  One operand is returned as is,
    two go through the binary :func:`union`.  Interned operands are
    joined by one n-ary application of Definition 3.4 — ⊥ dropped, duplicates
    dropped by identity, tuples attribute-wise over all operands at once,
    sets by one reduction of the gathered elements, distinct atoms or mixed
    kinds to ⊤ — and the answer is the interned instance a pairwise fold of
    :func:`union` returns.  From the first raw (un-interned) operand on the
    join *is* that fold: a raw set may be non-reduced, and a reduction would
    silently reduce it.
    """
    operands: Dict[int, ComplexObject] = {}
    iterator = iter(objects)
    for value in iterator:
        if not isinstance(value, ComplexObject):
            raise TypeError("lattice operations expect complex objects")
        if value is TOP:
            return TOP
        if value._iid is None:
            return _union_fold(chain(operands.values(), (value,), iterator))
        if value is not BOTTOM:
            operands[value._iid] = value
    return _join(list(operands.values()))


def _union_fold(objects: Iterable[ComplexObject]) -> ComplexObject:
    """Fold :func:`union` over ``objects``, stopping at ⊤ (the seed join)."""
    result: ComplexObject = BOTTOM
    for value in objects:
        result = union(result, value)
        if result.is_top:
            return TOP
    return result


def _join(operands):
    """Definition 3.4 over a list of distinct interned objects, none ⊥ or ⊤."""
    if len(operands) < 2:
        return operands[0] if operands else BOTTOM
    if len(operands) == 2:
        return union(operands[0], operands[1])
    kind = type(operands[0])
    if kind is Atom or any(type(operand) is not kind for operand in operands):
        return TOP
    if kind is TupleObject:
        columns = {}  # attribute name -> its distinct values, by intern id
        for operand in operands:
            for name, value in operand.items():
                columns.setdefault(name, {})[value._iid] = value
        attributes = {}
        for name, values in columns.items():
            joined = attributes[name] = _join(list(values.values()))
            if joined is TOP:
                return TOP
        return TupleObject(attributes)
    # The largest operand is never reduced again: the others' elements it
    # lacks are gathered and reduced once (atoms without a test, rows by
    # bucket), then it grows by them like by any second operand.
    largest = max(operands, key=len)
    rest = {e._iid: e for operand in operands if operand is not largest for e in operand.elements}
    return _grown_by(largest, maximal_unique(_lacking(largest, rest.values())))


def intersection_all(objects: Iterable[ComplexObject]) -> ComplexObject:
    """Fold :func:`intersection` over ``objects``; the intersection of nothing is ⊤."""
    result: ComplexObject = TOP
    for value in objects:
        result = intersection(result, value)
        if result.is_bottom:
            # ⊥ is absorbing for intersection.
            return BOTTOM
    return result


def is_lattice_consistent(left: ComplexObject, right: ComplexObject) -> bool:
    """Check the lub/glb laws on a single pair of objects.

    Used by tests and by the long-running randomized consistency benchmark:
    the union must dominate both operands and the intersection must be
    dominated by both, and the absorption laws must hold.
    """
    joined = union(left, right)
    met = intersection(left, right)
    return (
        is_subobject(left, joined)
        and is_subobject(right, joined)
        and is_subobject(met, left)
        and is_subobject(met, right)
        and union(left, met) == left
        and intersection(left, joined) == left
    )


def _check(left: object, right: object) -> None:
    if not isinstance(left, ComplexObject) or not isinstance(right, ComplexObject):
        raise TypeError("lattice operations expect two complex objects")
