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
"""

from __future__ import annotations

from typing import Iterable

from repro.core.intern import IdPairCache, register_cache
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
from repro.core.order import is_subobject

# Both operations are commutative, so results for interned operands are
# memoized under the (smaller id, larger id) pair.  Values are objects, which
# is why these caches are registered with the global clear hook
# (repro.core.intern.clear_object_caches) instead of living forever.
_UNION_CACHE: IdPairCache = register_cache(IdPairCache(maxsize=1 << 16))
_MEET_CACHE: IdPairCache = register_cache(IdPairCache(maxsize=1 << 16))


def _memoized_commutative(cache, left, right, structural):
    """Memoize a commutative lattice operation on interned operand pairs."""
    lid = left._iid
    rid = right._iid
    if lid is None or rid is None:
        return structural(left, right)
    if lid > rid:
        lid, rid = rid, lid
    cached = cache.get(lid, rid)
    if cached is None:
        cached = structural(left, right)
        cache.put(lid, rid, cached)
    return cached

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
    return _memoized_commutative(_UNION_CACHE, left, right, _union_structural)


def _union_structural(left: ComplexObject, right: ComplexObject) -> ComplexObject:
    # Definition 3.4(iii): attribute-wise union.  If any attribute joins to ⊤
    # the TupleObject constructor collapses the whole tuple to ⊤, which is
    # exactly the behaviour required by the last paragraph of Theorem 3.4.
    if isinstance(left, TupleObject) and isinstance(right, TupleObject):
        attributes = {}
        for name in set(left.attributes) | set(right.attributes):
            attributes[name] = union(left.get(name), right.get(name))
        return TupleObject(attributes)
    # Definition 3.4(iv): reduced set union.  Both operands are already
    # reduced, so only cross-domination between the two element lists has to
    # be checked; this avoids the quadratic re-reduction the general
    # constructor would perform and is what keeps large unions (the hot path
    # of rule application) affordable.
    if isinstance(left, SetObject) and isinstance(right, SetObject):
        right_elements = right.elements
        left_elements = left.elements
        interned = left._iid is not None and right._iid is not None
        kept = []
        # Interned operands are reduced and their elements canonical, so an
        # element both sides hold (the same instance) is kept, and no *other*
        # element of either side dominates or is dominated by it: only the
        # elements one side holds alone need sub-object tests, O(n + dL·dR)
        # instead of O(n²) when two versions of one large set are joined.
        # A one-element operand is a linear scan already, and the engine
        # folds thousands of those — the partition would only tax them.
        if interned and len(left_elements) > 1 and len(right_elements) > 1:
            right_ids = set(map(id, right_elements))
            kept = [e for e in left_elements if id(e) in right_ids]
            if kept:
                shared = set(map(id, kept))
                left_elements = [e for e in left_elements if id(e) not in shared]
                right_elements = [e for e in right_elements if id(e) not in shared]
        kept.extend(
            element
            for element in left_elements
            if not any(is_subobject(element, other) for other in right_elements)
        )
        kept.extend(
            other
            for other in right_elements
            if not any(
                is_subobject(other, element) and not is_subobject(element, other)
                for element in left_elements
            )
        )
        # The cross-filter leaves no structural duplicates (an element present
        # on both sides survives only through the right operand), so the
        # dedup-free constructor applies.  Hash-consing the result is only
        # sound when both operands are interned (hence reduced, hence the
        # kept list is reduced); raw non-reduced operands can leave mutually
        # dominating elements in `kept` and must stay un-interned.
        if interned:
            return SetObject._from_reduced(kept)
        return SetObject._build(kept)
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
    return _memoized_commutative(_MEET_CACHE, left, right, _intersection_structural)


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
    """Fold :func:`union` over ``objects``; the union of nothing is ⊥.

    The empty case follows from ⊥ being the least element: the lub of the
    empty set of objects is the bottom of the lattice.
    """
    result: ComplexObject = BOTTOM
    for value in objects:
        result = union(result, value)
        if result.is_top:
            # ⊤ is absorbing for union; no later operand can change the result.
            return TOP
    return result


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
