"""The sub-object relationship (Definition 3.1, Theorems 3.1–3.3).

``O ≤ O'`` ("O is a sub-object of O'") is defined recursively:

(i)   for tuples, ``O ≤ O'`` iff ``O.a ≤ O'.a`` for every attribute ``a``
      (absent attributes read as ⊥);
(ii)  for sets, ``O ≤ O'`` iff every element of ``O`` is a sub-object of some
      element of ``O'``;
(iii) every object is a sub-object of itself;
(iv)  every object is a sub-object of ⊤, and ⊥ is a sub-object of every object.

The relation is reflexive and transitive on all objects (Theorem 3.1) and
antisymmetric on *reduced* objects (Theorem 3.2), hence a partial order
(Theorem 3.3).  The property-based tests in ``tests/test_properties_order.py``
check exactly these statements, including the failure of antisymmetry on
non-reduced objects (Example 3.2).

Performance notes.  The test is called extremely often (reduction, lattice
operations, the matching engine and the fixpoint engine are all built on it).
Three accelerations apply when the operands are interned
(:mod:`repro.core.intern`):

* results are memoized in an :class:`~repro.core.intern.IdPairCache` keyed on
  the pair of intern ids — plain ints, so the cache pins no objects and is
  cleared wholesale by :func:`clear_order_cache` (hooked into store teardown
  and benchmark cold runs);
* incomparable pairs are rejected from the node fingerprint alone: on
  normalized objects ``a ≤ b`` implies same kind, ``depth(a) ≤ depth(b)``
  and, for tuples, ``len(a) ≤ len(b)`` — no recursion needed;
* on interned objects equality is an identity check, so the reflexive case
  costs one pointer comparison.

Raw objects (and mixed pairs) take the uncached structural path, which
matches the seed semantics exactly; interned subtrees hanging off a raw root
still hit the cache.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, insort
from itertools import chain
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.intern import IdPairCache, register_cache
from repro.core.objects import (
    _RANK_TUPLE,
    BOTTOM,
    Atom,
    Bottom,
    ComplexObject,
    SetObject,
    Top,
    TupleObject,
)
from repro.core.paths import Path

__all__ = [
    "is_subobject",
    "subobject",
    "is_strict_subobject",
    "compare",
    "maximal_elements",
    "minimal_elements",
    "maximal_unique",
    "clear_order_cache",
]

# Memo table for interned pairs; int keys only, no strong object references.
_SUBOBJECT_CACHE: IdPairCache = register_cache(IdPairCache(maxsize=1 << 17), "subobject")

# Pairs below this node count recurse directly instead of consulting the memo
# table: for flat relational rows the structural test is a couple of pointer
# comparisons, cheaper than hashing the key pair.
_CACHE_MIN_SIZE = 8


def _is_subobject_inner(left: ComplexObject, right: ComplexObject) -> bool:
    """Dispatch of the sub-object test; assumes ComplexObject operands."""
    if left is right:
        return True
    lid = left._iid
    rid = right._iid
    if lid is not None and rid is not None:
        # Interned fast path.  Ids 0/1 are reserved for ⊥/⊤ (axiom (iv)).
        if lid == 0 or rid == 1:
            return True
        if rid == 0 or lid == 1:
            return False
        rank = left._rank
        if rank != right._rank:
            return False  # mixed kinds are incomparable
        if isinstance(left, Atom):
            return False  # distinct interned atoms are never comparable
        # Fingerprint pruning: on normalized objects domination is monotone
        # in depth, and tuple attributes must be a subset of the dominator's.
        if left._depth > right._depth:
            return False
        if rank == _RANK_TUPLE and len(left._attrs) > len(right._attrs):
            return False
        if left._size <= _CACHE_MIN_SIZE and right._size <= _CACHE_MIN_SIZE:
            # Tiny pairs: the recursion is cheaper than the memo bookkeeping.
            return _recurse(left, right)
        cached = _SUBOBJECT_CACHE.get(lid, rid)
        if cached is not None:
            return cached
        result = _recurse(left, right)
        _SUBOBJECT_CACHE.put(lid, rid, result)
        return result
    return _subobject_raw(left, right)


def _recurse(left: ComplexObject, right: ComplexObject) -> bool:
    """The structural rules (i)/(ii) for two same-kind interned operands."""
    if isinstance(left, TupleObject):
        for name, value in left.items():
            if not _is_subobject_inner(value, right.get(name)):
                return False
        return True
    right_elements = right.elements
    for element in left.elements:
        if not any(_is_subobject_inner(element, other) for other in right_elements):
            return False
    return True


def _subobject_raw(left: ComplexObject, right: ComplexObject) -> bool:
    """Uncached structural test for raw or mixed operands (seed semantics)."""
    # Axiom (iv): ⊥ ≤ everything, everything ≤ ⊤.
    if isinstance(left, Bottom) or isinstance(right, Top):
        return True
    # Nothing other than ⊥ is below ⊥, nothing other than ⊤ is above ⊤.
    if isinstance(right, Bottom) or isinstance(left, Top):
        return False
    # Atoms: only equal atoms are comparable (axiom (iii) restricted to atoms).
    if isinstance(left, Atom) or isinstance(right, Atom):
        return left == right
    # Tuples (rule (i)): every attribute of the left tuple must be dominated.
    # Attributes absent on the left read as ⊥ and are dominated trivially;
    # attributes absent on the right read as ⊥ and can only dominate ⊥, which
    # normalized tuples never store, so iterating over the left's attributes
    # is sufficient.  Raw tuples *can* store ⊥, and ⊥ ≤ anything, so the same
    # iteration is still complete.
    if isinstance(left, TupleObject) and isinstance(right, TupleObject):
        for name, value in left.items():
            if not _is_subobject_inner(value, right.get(name)):
                return False
        return True
    # Sets (rule (ii)): every element of the left set must be dominated by
    # some element of the right set.
    if isinstance(left, SetObject) and isinstance(right, SetObject):
        right_elements = right.elements
        for element in left:
            if not any(_is_subobject_inner(element, other) for other in right_elements):
                return False
        return True
    # Mixed kinds (tuple vs set, etc.) are incomparable.
    return False


def is_subobject(left: ComplexObject, right: ComplexObject) -> bool:
    """Return ``True`` when ``left ≤ right`` in the sub-object order."""
    if not isinstance(left, ComplexObject) or not isinstance(right, ComplexObject):
        raise TypeError("is_subobject expects two complex objects")
    return _is_subobject_inner(left, right)


#: Alias matching the paper's vocabulary (``subobject(o, o')`` reads "o is a
#: sub-object of o'").
subobject = is_subobject


def is_strict_subobject(left: ComplexObject, right: ComplexObject) -> bool:
    """Return ``True`` when ``left ≤ right`` and ``left ≠ right``.

    On reduced objects this is the strict part of the partial order; on
    non-reduced objects two distinct objects may still dominate each other.
    """
    return left != right and is_subobject(left, right)


def compare(left: ComplexObject, right: ComplexObject) -> Optional[int]:
    """Three-way comparison under the sub-object order.

    Returns ``-1`` when ``left < right``, ``0`` when the two objects dominate
    each other (equal, for reduced objects), ``1`` when ``left > right`` and
    ``None`` when they are incomparable.

    On interned operands the first answer decides both directions: interned
    objects are reduced, so by antisymmetry (Theorem 3.2) two distinct
    objects can never dominate each other and at most one full sub-object
    test runs after the O(1) equality check.
    """
    if not isinstance(left, ComplexObject) or not isinstance(right, ComplexObject):
        raise TypeError("compare expects two complex objects")
    if left is right or left == right:
        return 0
    if left._iid is not None and right._iid is not None:
        if is_subobject(left, right):
            return -1
        if is_subobject(right, left):
            return 1
        return None
    below = is_subobject(left, right)
    above = is_subobject(right, left)
    if below and above:
        return 0
    if below:
        return -1
    if above:
        return 1
    return None


def _cached_depth(value: ComplexObject):
    """The object's depth, read from the ``_depth`` slot when already known."""
    depth = value._depth
    if depth is None:
        from repro.core.depth import depth as compute_depth

        depth = compute_depth(value)  # caches into the slot itself
    return depth


def _survivors(
    items: List[ComplexObject], flip: bool, split: Optional[int] = None
) -> List[ComplexObject]:
    """Indices-ordered extremal elements of a duplicate-free list.

    ``split`` says the list is two operands laid end to end, ``items[:split]``
    and ``items[split:]``, and an element is only tested against the other
    side: reduced operands hold no comparable pair, so the set join of
    Definition 3.4(iv) is this one scan, row buckets included.

    With ``flip=False`` returns the maximal elements (nothing strictly above
    them), with ``flip=True`` the minimal ones.  Elements are bucketed by
    kind, and the pairwise sub-object tests are pruned by the depth/breadth
    fingerprint: a dominator must be at least as deep, and a dominating tuple
    at least as wide, as the dominated element.  Distinct atoms are mutually
    incomparable and survive without any test; so does ⊥ in the maximal
    direction's complement (⊥ never strictly dominates) and ⊤ in the minimal
    one's (⊤ is never strictly dominated).
    """
    if len(items) <= 1:
        return list(items)
    if not flip:
        # ⊤ strictly dominates every other (distinct) element.
        for item in items:
            if isinstance(item, Top):
                return [item]
    else:
        # Dually, every other element strictly dominates ⊥, so in the minimal
        # direction ⊥'s presence eliminates everything else.
        for item in items:
            if isinstance(item, Bottom):
                return [item]
    kept: List[int] = []
    tuples: List[int] = []
    sets: List[int] = []
    for index, item in enumerate(items):
        if isinstance(item, Atom):
            kept.append(index)
        elif isinstance(item, TupleObject):
            tuples.append(index)
        elif isinstance(item, SetObject):
            sets.append(index)
        # Remaining cases are handled by the early returns above: ⊥ in the
        # maximal direction is strictly dominated by any other element and is
        # dropped here; ⊤ in the minimal direction strictly dominates any
        # other element and is dropped likewise.
    for group in (tuples, sets):
        is_tuple_group = group is tuples
        disc = buckets = None
        if not flip and is_tuple_group and len(group) > 4:
            # Signature pruning for relational-style rows: a dominator must
            # carry the *same atom* wherever the dominated tuple carries one,
            # so bucketing the group by its most dispersed atom-valued
            # attribute shrinks each candidate's scan to its own bucket.
            disc, buckets = _discriminator_buckets(items, group)
        for index in group:
            candidate = items[index]
            depth = _cached_depth(candidate)
            breadth = len(candidate)
            # The breadth prune (a ≤ b forces len(a) <= len(b) for tuples)
            # relies on the dominated side not storing ⊥-valued attributes,
            # which only interned tuples guarantee; ⊥ attrs on a raw tuple
            # inflate its width yet dominate trivially.
            candidate_prunable = candidate._iid is not None
            scan = group
            if disc is not None:
                value = candidate.get(disc)
                if isinstance(value, Atom):
                    scan = buckets[value]
            if split is not None:
                # Index lists are ascending: the other side is one slice.
                cut = bisect_left(scan, split)
                scan = scan[cut:] if index < split else scan[:cut]
            survives = True
            for other_index in scan:
                if other_index == index:
                    continue
                other = items[other_index]
                other_depth = _cached_depth(other)
                if flip:
                    # Minimal: drop candidate when it strictly dominates other.
                    small, large = other, candidate
                    if other_depth > depth:
                        continue
                    if is_tuple_group and len(other) > breadth and other._iid is not None:
                        continue
                else:
                    # Maximal: drop candidate when other strictly dominates it.
                    small, large = candidate, other
                    if other_depth < depth:
                        continue
                    if is_tuple_group and len(other) < breadth and candidate_prunable:
                        continue
                if is_subobject(small, large):
                    # Keep exactly one representative of a mutual-subobject
                    # pair (possible when elements are not reduced): the
                    # earlier one survives, the later one is dropped.
                    if is_subobject(large, small) and index < other_index:
                        continue
                    survives = False
                    break
            if survives:
                kept.append(index)
    kept.sort()
    return [items[i] for i in kept]


def _discriminator_buckets(items, group):
    """Bucket a tuple group by its most dispersed atom-valued attribute.

    Returns ``(attribute name, {atom: [indices]})``, or ``(None, None)`` when
    no attribute discriminates.  An attribute where any group member stores ⊤
    (possible on raw tuples only) is disqualified: ⊤ dominates every value,
    which would break the same-atom containment argument.
    """
    per_name = {}
    disqualified = set()
    for index in group:
        for name, value in items[index].items():
            if isinstance(value, Atom):
                per_name.setdefault(name, {}).setdefault(value, []).append(index)
            elif isinstance(value, Top):
                disqualified.add(name)
    best_name = best_buckets = None
    best_score = 1
    for name, buckets in per_name.items():
        if name in disqualified:
            continue
        if len(buckets) > best_score:
            best_score, best_name, best_buckets = len(buckets), name, buckets
    return best_name, best_buckets


class _SetIndex(NamedTuple):
    """Where an interned set keeps what may dominate, or be dominated by, a newcomer.

    Tuples by the atom at ``disc`` (picked as :func:`_discriminator_buckets`
    picks it: a dominator carries the same atom wherever the dominated tuple
    does) in ``buckets``, the set's table at key path ``key``; the tuples with
    no atom there, and the set elements, in set order.  With no discriminating
    attribute ``disc`` and ``key`` are ``None`` and every tuple is atom-less.
    ``ids`` is the sorted intern-id tuple that is the set's intern key.
    """

    disc: Optional[str]
    key: Optional[Path]
    buckets: Dict[Atom, List[ComplexObject]]
    atomless: List[ComplexObject]
    sets: List[ComplexObject]
    ids: Tuple[int, ...]


class _Carried(weakref.WeakValueDictionary):
    """The interned sets (by intern id) carrying ``_index`` (:class:`_SetIndex`) or
    ``_tables`` (key path → :func:`_bucket`'s table), one registered memo whose
    ``clear()`` drops both; ``misses`` counts tables built, ``hits`` those derived.
    """

    hits = misses = 0

    def clear(self) -> None:
        for value in list(self.values()):
            object.__setattr__(value, "_index", None)
            object.__setattr__(value, "_tables", None)
        super().clear()


_CARRIED = register_cache(_Carried(), "set_tables")


def _carry(value: SetObject, index: Optional[_SetIndex], tables) -> None:
    """Keep ``index`` and ``tables`` on ``value``; what it carries already wins.  The
    table dict is replaced, never updated: a race loses a table, built again."""
    if index is not None and getattr(value, "_index", None) is None:
        object.__setattr__(value, "_index", index)
    if tables:
        own = getattr(value, "_tables", None)
        object.__setattr__(value, "_tables", {**tables, **own} if own else tables)
    _CARRIED[value._iid] = value


def _atom_at(element: ComplexObject, path: Path) -> Optional[Atom]:
    """The atom at ``path`` inside ``element`` (tuple steps only), else ``None``."""
    current = element
    for step in path.steps:
        if not isinstance(current, TupleObject):
            return None
        current = current.get(step)
    return current if isinstance(current, Atom) else None


def _bucket(members: SetObject, key_path: Path) -> Dict[Atom, List[ComplexObject]]:
    """The elements of ``members`` grouped by the atom at ``key_path``, in set order.

    The one function that buckets a set from scratch: elements without an
    atom there are left out.  At the root path an element is its own key and
    alone in its bucket, so the pass skips the per-element walk.
    """
    elements = members.elements
    if not key_path.steps:
        return {element: [element] for element in elements if isinstance(element, Atom)}
    table: Dict[Atom, List[ComplexObject]] = {}
    for element in elements:
        key = _atom_at(element, key_path)
        if key is not None:
            table.setdefault(key, []).append(element)
    return table


def _carried(value: SetObject, key_path: Path) -> Optional[Dict[Atom, List[ComplexObject]]]:
    """The table the interned set ``value`` carries at ``key_path``, else ``None``."""
    return (getattr(value, "_tables", None) or {}).get(key_path)


def _tabled(value: SetObject, key_path: Path) -> Dict[Atom, List[ComplexObject]]:
    """Bucket the interned set ``value`` at ``key_path`` from scratch and keep the table on it."""
    table = _bucket(value, key_path)
    _CARRIED.misses += 1
    _carry(value, None, {key_path: table})
    return table


def _set_index(value: SetObject) -> _SetIndex:
    """The set's index, built at first use and kept on it (a race builds it twice)."""
    index = getattr(value, "_index", None)
    if index is None:
        tuples = [e for e in value._elements if isinstance(e, TupleObject)]
        disc, _ = _discriminator_buckets(tuples, range(len(tuples)))
        key = disc and Path((disc,))  # a disc table is never empty
        index = _SetIndex(
            disc,
            key,
            _carried(value, key) or _tabled(value, key) if key else {},
            [t for t in tuples if not isinstance(t.get(disc), Atom)],
            [e for e in value._elements if isinstance(e, SetObject)],
            tuple(sorted(e._iid for e in value._elements)),
        )
        _carry(value, index, None)
    return index


def _neighbours(index: _SetIndex, element: ComplexObject):
    """The held elements that may dominate ``element``, and those it may dominate."""
    if isinstance(element, SetObject):
        return index.sets, index.sets
    value = element.get(index.disc)
    if isinstance(value, Atom):
        bucket = index.buckets.get(value, ())
        return bucket, chain(bucket, index.atomless)
    if value is BOTTOM:  # a tuple carrying an atom there may still dominate it
        return chain(index.atomless, *index.buckets.values()), index.atomless
    return index.atomless, index.atomless


def _lacking(value: SetObject, elements: Iterable[ComplexObject]) -> List[ComplexObject]:
    """The interned ``elements`` that the interned set ``value`` does not hold, by intern id."""
    held = set(_set_index(value).ids)
    return [e for e in elements if e._iid not in held]


def _grown_by(value: SetObject, batch: Sequence[ComplexObject]) -> SetObject:
    """``SetObject(value.elements + batch)`` for an interned antichain ``batch``
    of elements other than ⊥ / ⊤ that ``value`` does not hold.  Each newcomer
    is tested against its neighbours only (an atom against none): both sides
    are reduced, so a newcomer a held element dominates dominates none and
    stays out, and what the others dominate leaves.
    """
    index = _set_index(value)
    added: List[ComplexObject] = []
    gone: Dict[int, ComplexObject] = {}
    for element in batch:
        if not isinstance(element, Atom):
            above, below = _neighbours(index, element)
            if any(_is_subobject_inner(element, other) for other in above):
                continue
            gone.update((id(o), o) for o in below if _is_subobject_inner(o, element))
        added.append(element)
    return _spliced(value, index, added, list(gone.values())) if added else value


def _spliced(value: SetObject, index: _SetIndex, added, removed) -> SetObject:
    """``value`` less ``removed`` plus ``added``, interned with the key, fingerprint,
    index and tables derived from ``value``'s: the one place a set is derived
    from another.  Each table is copied once; only the buckets touched change.
    """
    ordered, ids, size, depth = list(value._elements), list(index.ids), value._size, value._depth
    for old in removed:
        del ordered[bisect_left(ordered, old.sort_key(), key=ComplexObject.sort_key)]
        del ids[bisect_left(ids, old._iid)]
        size -= old._size
    if len(added) == 1:
        insort(ordered, added[0], key=ComplexObject.sort_key)
        insort(ids, added[0]._iid)
    elif added:  # one merge of two sorted runs
        ordered = sorted(ordered + list(added), key=ComplexObject.sort_key)
        ids = sorted(ids + [new._iid for new in added])
    for new in added:
        size += new._size
        depth = max(depth, 1 + new._depth)
    if any(1 + old._depth == value._depth for old in removed):  # a deepest one left
        depth = 1 + max((e._depth for e in ordered), default=1)
    ids = tuple(ids)
    changes = [(old, False) for old in removed] + [(new, True) for new in added]
    carried = {index.key: index.buckets} if index.key else {}
    carried.update(getattr(value, "_tables", None) or ())
    tables = {path: _retabled(table, path, changes) for path, table in carried.items()}
    _CARRIED.hits += len(tables)
    child = SetObject._from_derived(tuple(ordered), ids, depth, size)
    _carry(child, _child_index(index, ids, changes, tables.get(index.key, {})), tables)
    return child


def _retabled(table, key_path: Path, changes):
    """``table`` once each ``(element, joins)`` of ``changes`` joined or left:
    copied once, and only the buckets they touch are replaced."""
    table = dict(table)
    for element, joins in changes:
        atom = _atom_at(element, key_path)
        if atom is not None:
            bucket = _edited(table.pop(atom, ()), element, joins)
            if bucket:
                table[atom] = bucket
    return table


def _child_index(index: _SetIndex, ids, changes, buckets) -> Optional[_SetIndex]:
    """``index`` once ``changes`` are made, ``buckets`` the child's table at ``key``.
    A tuple joining a set with no discriminator leaves the child to pick one."""
    disc, key, _, atomless, sets, _ = index
    if disc is None and any(joins and isinstance(e, TupleObject) for e, joins in changes):
        return None
    for element, joins in changes:
        if isinstance(element, SetObject):
            sets = _edited(sets, element, joins)
        elif isinstance(element, TupleObject) and not isinstance(element.get(disc), Atom):
            atomless = _edited(atomless, element, joins)
    return _SetIndex(disc, key, buckets, atomless, sets, ids)


def _edited(group, element: ComplexObject, joins: bool) -> List[ComplexObject]:
    """A new ``group`` (in set order) with ``element`` joined, or left."""
    if not joins:
        return [e for e in group if e is not element]
    at = bisect_left(group, element.sort_key(), key=ComplexObject.sort_key)
    return [*group[:at], element, *group[at:]]


def maximal_unique(objects: List[ComplexObject]) -> List[ComplexObject]:
    """Maximal elements of an already-deduplicated list (used by reduction)."""
    return _survivors(list(objects), flip=False)


def maximal_cross(
    left: Sequence[ComplexObject], right: Sequence[ComplexObject]
) -> List[ComplexObject]:
    """Maximal elements of ``left + right``, testing no pair inside ``left`` or ``right``.

    The join of two reduced sets' elements: neither side holds a comparable
    pair, so only cross pairs can.  Like :func:`maximal_unique` the input
    must be duplicate-free across both sides.
    """
    return _survivors([*left, *right], flip=False, split=len(left))


def maximal_elements(objects: Iterable[ComplexObject]) -> List[ComplexObject]:
    """Return the elements not strictly dominated by any other element.

    Exactly the elements a set object retains after reduction; exposed as a
    helper because query results and store maintenance both need it.
    """
    return _survivors(list(dict.fromkeys(objects)), flip=False)


def minimal_elements(objects: Iterable[ComplexObject]) -> List[ComplexObject]:
    """Return the elements that do not strictly dominate any other element."""
    return _survivors(list(dict.fromkeys(objects)), flip=True)


def clear_order_cache() -> None:
    """Drop the memoized sub-object results (store teardown, benchmark cold runs)."""
    _SUBOBJECT_CACHE.clear()
