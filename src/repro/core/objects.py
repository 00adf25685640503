"""Complex objects (Definition 2.1 of the paper).

Objects are built recursively from

* atomic objects (integers, floats, strings, booleans) — :class:`Atom`;
* two special objects, ``TOP`` (the inconsistent object, written ⊤) and
  ``BOTTOM`` (the undefined object, written ⊥) — :class:`Top` /
  :class:`Bottom`;
* tuple objects ``[a1: o1, ..., an: on]`` — :class:`TupleObject`;
* set objects ``{o1, ..., on}`` — :class:`SetObject`.

Every object is **immutable and hashable**.  The public constructors apply the
paper's conventions automatically (end of Section 2 and Definition 3.3):

* a ⊥-valued attribute is the same as an absent attribute, so ⊥ values are
  dropped from tuples;
* ⊥ is dropped from sets;
* any object containing ⊤ is ⊤;
* sets are *reduced*: no element may be a sub-object of another element
  (Definition 3.3), which is the restriction under which the sub-object
  relation is a partial order (Theorem 3.2).

The raw classmethods (:meth:`TupleObject.raw`, :meth:`SetObject.raw`) bypass
the conventions; they exist so the library can state and test the paper's
counterexamples (Example 3.2) and the equality axioms themselves
(Definition 2.2) on non-normalized objects.

Normalized objects are **hash-consed** through :mod:`repro.core.intern`: the
default constructors return the one canonical instance per distinct structure,
so ``==`` on them is an identity check and ``hash`` a cached int, and the
sub-object order's memo table can key on intern ids.
Raw objects are never interned and keep full structural semantics.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.core import intern as _intern
from repro.core.atoms import SORT_OF_TYPE, AtomValue, atom_key, atom_sort
from repro.core.errors import NestingError, NormalizationError

__all__ = [
    "ComplexObject",
    "Atom",
    "Top",
    "Bottom",
    "TupleObject",
    "SetObject",
    "TOP",
    "BOTTOM",
]

# Kind ranks used by the canonical total order over objects (sort keys).  The
# order between kinds is arbitrary but fixed; it only has to be *total* so set
# objects can be stored deterministically.
_RANK_BOTTOM = 0
_RANK_ATOM = 1
_RANK_TUPLE = 2
_RANK_SET = 3
_RANK_TOP = 4


def _set_key(ids) -> tuple:
    """The intern key of the set of the elements with intern ids ``ids``, in any order."""
    return ("s", tuple(sorted(ids)))


class ComplexObject:
    """Abstract base class of every complex object.

    Concrete subclasses are :class:`Atom`, :class:`Top`, :class:`Bottom`,
    :class:`TupleObject` and :class:`SetObject`.  Instances are immutable;
    equality and hashing are structural on the canonical representation.
    Interned instances (everything the default constructors return) carry an
    intern id, their depth/size fingerprint, and compare by identity.
    """

    __slots__ = ("_key", "_hash", "_iid", "_depth", "_size", "__weakref__")

    kind: str = "abstract"
    _rank: int = -1

    # -- classification helpers -------------------------------------------------
    @property
    def is_atom(self) -> bool:
        """``True`` for atomic objects."""
        return self.kind == "atom"

    @property
    def is_tuple(self) -> bool:
        """``True`` for tuple objects."""
        return self.kind == "tuple"

    @property
    def is_set(self) -> bool:
        """``True`` for set objects."""
        return self.kind == "set"

    @property
    def is_top(self) -> bool:
        """``True`` for the inconsistent object ⊤."""
        return self.kind == "top"

    @property
    def is_bottom(self) -> bool:
        """``True`` for the undefined object ⊥."""
        return self.kind == "bottom"

    # -- canonical ordering ------------------------------------------------------
    def sort_key(self):
        """Return a totally ordered, hashable key for this object.

        The key is used to store set elements canonically (sorted, distinct)
        so that structurally equal objects have identical representations,
        which in turn makes ``==`` and ``hash`` implement the paper's equality
        on normalized objects.
        """
        key = self._key
        if key is None:
            key = self._compute_key()
            object.__setattr__(self, "_key", key)
        return key

    def _compute_key(self):  # pragma: no cover - overridden by every subclass
        raise NotImplementedError

    # -- equality / hashing ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ComplexObject):
            return NotImplemented
        if self._iid is not None and other._iid is not None:
            # Hash-consing invariant: structurally equal interned objects are
            # the same instance, so two distinct instances are unequal.
            return False
        return self.sort_key() == other.sort_key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = _cache_hashes(self)
        return cached

    def _compute_hash(self) -> int:
        # Structural by construction: raw and interned twins hash alike.  The
        # per-kind overrides combine the children's *cached* hashes instead of
        # hashing the materialized deep sort key, so hashing is O(breadth)
        # per node and O(1) once cached.
        return hash(self.sort_key())

    def __lt__(self, other: "ComplexObject") -> bool:
        """Canonical (arbitrary) total order; *not* the sub-object order."""
        if not isinstance(other, ComplexObject):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    # -- immutability ------------------------------------------------------------
    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    # -- display -----------------------------------------------------------------
    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_text()}>"

    def to_text(self) -> str:
        """Render the object in the paper's concrete syntax.

        The rendering round-trips through :func:`repro.parser.parse_object`.
        An object nested too deeply to render recursively raises
        :class:`~repro.core.errors.NestingError` (guarded here, at the entry
        point, like the parser: the per-node ``_text`` calls pay nothing).
        """
        try:
            return self._text()
        except RecursionError:
            raise too_deep(self, "print") from None

    def _text(self) -> str:
        raise NotImplementedError


def _init_cache(instance: ComplexObject) -> None:
    """Initialise the lazily computed key/hash/intern slots, bypassing immutability."""
    object.__setattr__(instance, "_key", None)
    object.__setattr__(instance, "_hash", None)
    object.__setattr__(instance, "_iid", None)
    object.__setattr__(instance, "_depth", None)
    object.__setattr__(instance, "_size", None)


class Top(ComplexObject):
    """The inconsistent object ⊤ (Definition 2.1(ii)).

    ⊤ is the greatest element of the sub-object lattice: every object is a
    sub-object of ⊤, and any object containing ⊤ collapses to ⊤.  The class is
    a singleton; use the module-level constant :data:`TOP`.
    """

    __slots__ = ()
    kind = "top"
    _rank = _RANK_TOP
    _instance: Optional["Top"] = None

    def __new__(cls) -> "Top":
        if cls._instance is None:
            instance = super().__new__(cls)
            _init_cache(instance)
            cls._instance = instance
        return cls._instance

    def _compute_key(self):
        return (_RANK_TOP,)

    def _text(self) -> str:
        return "top"


class Bottom(ComplexObject):
    """The undefined object ⊥ (Definition 2.1(ii)).

    ⊥ is the least element of the sub-object lattice; it also plays the role of
    the null value: a ⊥-valued attribute is indistinguishable from an absent
    attribute.  The class is a singleton; use the module-level constant
    :data:`BOTTOM`.
    """

    __slots__ = ()
    kind = "bottom"
    _rank = _RANK_BOTTOM
    _instance: Optional["Bottom"] = None

    def __new__(cls) -> "Bottom":
        if cls._instance is None:
            instance = super().__new__(cls)
            _init_cache(instance)
            cls._instance = instance
        return cls._instance

    def _compute_key(self):
        return (_RANK_BOTTOM,)

    def _text(self) -> str:
        return "bottom"


#: The unique inconsistent object ⊤.
TOP = Top()
#: The unique undefined object ⊥.
BOTTOM = Bottom()

# The singletons are interned by definition; ids 0/1 are reserved for them.
_intern._register_singleton(BOTTOM, 0)
object.__setattr__(BOTTOM, "_depth", 1)
object.__setattr__(BOTTOM, "_size", 1)
_intern._register_singleton(TOP, 1)
object.__setattr__(TOP, "_depth", math.inf)
object.__setattr__(TOP, "_size", 1)


class Atom(ComplexObject):
    """An atomic object: an integer, float, string or boolean wrapper.

    Atoms of different sorts are different objects even when the underlying
    Python values compare equal (``Atom(1) != Atom(1.0) != Atom(True)``),
    mirroring the paper's "equal iff they are the same".
    """

    __slots__ = ("value",)
    kind = "atom"
    _rank = _RANK_ATOM

    def __new__(cls, value: AtomValue) -> "Atom":
        try:
            sort = SORT_OF_TYPE[type(value)]
        except KeyError:  # a subclass of an atom type, or no atom at all
            try:
                sort = atom_sort(value)
            except TypeError:
                raise NormalizationError(
                    f"atomic objects must be int, float, str or bool, got {type(value).__name__}"
                ) from None
        return _intern.intern_node(("a", sort, value), lambda: cls._build(value))

    @classmethod
    def _build(cls, value: AtomValue) -> "Atom":
        instance = super().__new__(cls)
        _init_cache(instance)
        object.__setattr__(instance, "value", value)
        object.__setattr__(instance, "_depth", 1)
        object.__setattr__(instance, "_size", 1)
        return instance

    @property
    def sort(self) -> str:
        """The sort of the atom: ``"bool"``, ``"int"``, ``"float"`` or ``"string"``."""
        return atom_sort(self.value)

    def _compute_key(self):
        return (_RANK_ATOM,) + atom_key(self.value)

    def _text(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return _render_string(self.value)
        return repr(self.value)


_BARE_STRING_OK = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def _render_string(value: str) -> str:
    """Render a string atom, quoting it unless it is a bare lowercase identifier.

    The paper writes string constants as bare identifiers starting with a lower
    case letter (``john``, ``austin``).  Anything else is quoted so rendering
    always round-trips through the parser.
    """
    if value and value[0].isalpha() and value[0].islower() and set(value) <= _BARE_STRING_OK:
        if value not in ("top", "bottom", "true", "false"):
            return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


class TupleObject(ComplexObject):
    """A tuple object ``[a1: o1, ..., an: on]`` (Definition 2.1(iii)).

    Attribute names are strings; attribute values are complex objects.  Missing
    attributes read as ⊥ (``O.a = ⊥ for all a not in {a1..an}``), which the
    :meth:`get` accessor implements.  The default constructor applies the
    paper's conventions: ⊥-valued attributes are dropped and a ⊤-valued
    attribute collapses the whole tuple to ⊤ (so the constructor may return
    :data:`TOP` rather than a :class:`TupleObject`).
    """

    __slots__ = ("_attrs",)
    kind = "tuple"
    _rank = _RANK_TUPLE

    def __new__(cls, attributes: Optional[Mapping[str, ComplexObject]] = None, **kwargs):
        mapping: Dict[str, ComplexObject] = {}
        if attributes:
            mapping.update(attributes)
        if kwargs:
            mapping.update(kwargs)
        cleaned: Dict[str, ComplexObject] = {}
        interned = True
        for name, value in mapping.items():
            if not (isinstance(name, str) and name and isinstance(value, ComplexObject)):
                _check_attribute(name, value)  # raises
            if value is TOP:
                return TOP
            if value is BOTTOM:
                continue
            if value._iid is None:
                interned = False
            cleaned[name] = value
        if interned:
            # Children are interned (hence normalized), so the tuple can be
            # hash-consed: the table key is built from child intern ids alone.
            ordered = tuple(sorted(cleaned.items()))  # by name: names are distinct
            key = ("t", tuple([(name, value._iid) for name, value in ordered]))
            return _intern.intern_node(key, lambda: cls._from_canonical(ordered))
        return cls._build(cleaned)

    @classmethod
    def raw(cls, attributes: Mapping[str, ComplexObject]) -> "TupleObject":
        """Build a tuple without applying the ⊥/⊤ conventions.

        Only intended for tests of Definition 2.2 and for the normalization
        function itself; regular code should use the default constructor.
        """
        mapping: Dict[str, ComplexObject] = {}
        for name, value in attributes.items():
            _check_attribute(name, value)
            mapping[name] = value
        return cls._build(mapping)

    @classmethod
    def _build(cls, attributes: Dict[str, ComplexObject]) -> "TupleObject":
        instance = super().__new__(cls)
        _init_cache(instance)
        ordered = tuple(sorted(attributes.items(), key=lambda item: item[0]))
        object.__setattr__(instance, "_attrs", ordered)
        return instance

    @classmethod
    def _from_canonical(cls, ordered: Tuple[Tuple[str, ComplexObject], ...]) -> "TupleObject":
        """Build the canonical instance for already-sorted interned attributes."""
        instance = super().__new__(cls)
        _init_cache(instance)
        object.__setattr__(instance, "_attrs", ordered)
        if ordered:
            depth = 1 + max(value._depth for _, value in ordered)
            size = 1 + sum(value._size for _, value in ordered)
        else:
            depth, size = 2, 1
        object.__setattr__(instance, "_depth", depth)
        object.__setattr__(instance, "_size", size)
        return instance

    # -- mapping-style access ----------------------------------------------------
    @property
    def attributes(self) -> Tuple[str, ...]:
        """The attribute names present in the tuple, in canonical order."""
        return tuple(name for name, _ in self._attrs)

    def get(self, name: str) -> ComplexObject:
        """Return the value of attribute ``name``; ⊥ when absent (O.a = ⊥)."""
        for attr, value in self._attrs:
            if attr == name:
                return value
        return BOTTOM

    def __getitem__(self, name: str) -> ComplexObject:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return any(attr == name for attr, _ in self._attrs)

    def items(self) -> Tuple[Tuple[str, ComplexObject], ...]:
        """The ``(attribute, value)`` pairs in canonical order."""
        return self._attrs

    def as_dict(self) -> Dict[str, ComplexObject]:
        """A fresh dict of the tuple's attributes (safe to mutate)."""
        return dict(self._attrs)

    def __len__(self) -> int:
        return len(self._attrs)

    def replace(self, **changes: ComplexObject) -> ComplexObject:
        """Return a copy with the given attributes replaced (⊥ removes one)."""
        mapping = self.as_dict()
        mapping.update(changes)
        return TupleObject(mapping)

    def without(self, *names: str) -> "TupleObject":
        """Return a copy with the given attributes removed."""
        mapping = {k: v for k, v in self._attrs if k not in names}
        if self._iid is not None:
            # Values of an interned tuple are interned and normalized, so the
            # default constructor applies (and hash-conses the result).
            return TupleObject(mapping)
        return TupleObject._build(mapping)

    def _compute_key(self):
        return (
            _RANK_TUPLE,
            tuple((name, value.sort_key()) for name, value in self._attrs),
        )

    def _compute_hash(self) -> int:
        return hash((_RANK_TUPLE, tuple((name, hash(value)) for name, value in self._attrs)))

    def _text(self) -> str:
        inner = ", ".join(f"{name}: {value._text()}" for name, value in self._attrs)
        return f"[{inner}]"


class SetObject(ComplexObject):
    """A set object ``{o1, ..., on}`` (Definition 2.1(iv)).

    Elements are complex objects of arbitrary, possibly heterogeneous kinds —
    the model is schema-less.  The default constructor applies the paper's
    conventions (⊥ dropped, ⊤ propagates) and *reduces* the set: no retained
    element is a sub-object of another retained element (Definition 3.3).
    Elements are stored sorted under the canonical order, so structural
    equality coincides with the paper's set equality.
    """

    # Set by repro.core.order alone, on interned sets: the domination index and
    # the bucket tables by key path, a memo clear_object_caches() drops.
    __slots__ = ("_elements", "_index", "_tables")
    kind = "set"
    _rank = _RANK_SET

    def __new__(cls, elements: Iterable[ComplexObject] = ()):  # noqa: D102 - documented above
        collected = []
        for element in elements:
            if not isinstance(element, ComplexObject):
                _check_element(element)  # raises
            if element is TOP:
                return TOP
            if element is BOTTOM:
                continue
            collected.append(element)
        ids = [element._iid for element in collected]
        if None not in ids:
            # A canonical set holds no duplicate, no ⊥ / ⊤ and no dominated
            # pair, so its key is found only for the very elements it holds.
            canonical = _intern.live_node(_set_key(ids))
            if canonical is not None:
                return canonical
        # One pass over the elements: dedup once (by intern id, as equal
        # interned elements are identical; by structural hash/eq once a raw
        # one is among them), reduce the unique survivors, and hand the result
        # to a constructor that does not dedup or reduce again; elements too
        # deep to order raise NestingError.
        try:
            if len(collected) > 1:
                unique = {element._iid: element for element in collected}
                collected = list(dict.fromkeys(collected) if None in unique else unique.values())
            if len(collected) > 1:
                collected = _reduce_unique(collected)
            return cls._from_reduced(collected)
        except RecursionError:
            raise _too_deep_to_order(collected) from None

    @classmethod
    def raw(cls, elements: Iterable[ComplexObject]) -> "SetObject":
        """Build a set without ⊥/⊤ conventions and without reduction.

        Duplicate elements (structural equality) are still merged, because a
        set cannot contain the same object twice.  This constructor exists so
        the paper's non-reduced counterexamples (Example 3.2) can be built.
        """
        collected = []
        for element in elements:
            _check_element(element)
            collected.append(element)
        try:
            return cls._build(collected)
        except RecursionError:
            raise _too_deep_to_order(collected) from None

    @classmethod
    def _build(cls, elements: Iterable[ComplexObject]) -> "SetObject":
        instance = super().__new__(cls)
        _init_cache(instance)
        unique = {}
        for element in elements:
            unique[element.sort_key()] = element
        ordered = tuple(unique[key] for key in sorted(unique))
        object.__setattr__(instance, "_elements", ordered)
        return instance

    @classmethod
    def _from_reduced(cls, elements: Iterable[ComplexObject]) -> "SetObject":
        """Build a set from elements known to be distinct, normalized and reduced.

        When every element is interned the set is hash-consed: the table key
        is the sorted tuple of child intern ids, and the canonical element
        order is only materialized once per distinct structure (on a miss).
        """
        elements = list(elements)
        ids = [element._iid for element in elements]
        if None not in ids:
            return _intern.intern_node(
                _set_key(ids),
                lambda: cls._from_canonical(
                    tuple(sorted(elements, key=ComplexObject.sort_key))
                ),
            )
        instance = super().__new__(cls)
        _init_cache(instance)
        ordered = tuple(sorted(elements, key=ComplexObject.sort_key))
        object.__setattr__(instance, "_elements", ordered)
        return instance

    @classmethod
    def _from_canonical(cls, ordered: Tuple[ComplexObject, ...]) -> "SetObject":
        """Build the canonical instance for already-sorted interned elements."""
        instance = super().__new__(cls)
        _init_cache(instance)
        object.__setattr__(instance, "_elements", ordered)
        if ordered:
            depth = 1 + max(element._depth for element in ordered)
            size = 1 + sum(element._size for element in ordered)
        else:
            depth, size = 2, 1
        object.__setattr__(instance, "_depth", depth)
        object.__setattr__(instance, "_size", size)
        return instance

    @classmethod
    def _from_derived(cls, ordered, ids, depth, size) -> "SetObject":
        """Intern a set ``repro.core.order._spliced`` derived, with its key and fingerprint."""

        def build():
            instance = ComplexObject.__new__(cls)
            _init_cache(instance)
            object.__setattr__(instance, "_elements", ordered)
            object.__setattr__(instance, "_depth", depth)
            object.__setattr__(instance, "_size", size)
            return instance

        return _intern.intern_node(("s", ids), build)

    # -- collection-style access ---------------------------------------------------
    @property
    def elements(self) -> Tuple[ComplexObject, ...]:
        """The elements in canonical order."""
        return self._elements

    def __iter__(self) -> Iterator[ComplexObject]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element: object) -> bool:
        if not isinstance(element, ComplexObject):
            return False
        if self._iid is not None and element._iid is not None:
            at = bisect_left(self._elements, element.sort_key(), key=ComplexObject.sort_key)
            return at < len(self._elements) and self._elements[at] is element
        return any(element == member for member in self._elements)

    def _incremental(self, element: object) -> bool:
        """Interned operands other than ⊥ / ⊤: ``add`` / ``discard`` derive from this
        set (:mod:`repro.core.order`); the reducing constructor is their oracle."""
        return self._iid is not None and getattr(element, "_iid", None) not in (None, 0, 1)

    def add(self, element: ComplexObject) -> "SetObject":
        """Return a new set with ``element`` added (and the result re-reduced)."""
        if self._incremental(element):
            from repro.core.order import _grown_by

            try:
                return self if element in self else _grown_by(self, (element,))
            except RecursionError:
                raise _too_deep_to_order([element]) from None
        return SetObject(self._elements + (element,))

    def discard(self, element: ComplexObject) -> "SetObject":
        """Return a new set without ``element`` (no error if absent)."""
        try:
            if self._incremental(element):
                from repro.core.order import _set_index, _spliced

                return _spliced(self, _set_index(self), (), (element,)) if element in self else self
            remaining = [e for e in self._elements if e != element]
            if self._iid is not None:
                # Removing an element keeps the remaining ones distinct and
                # reduced, so the hash-consing fast path applies.
                return SetObject._from_reduced(remaining)
            return SetObject._build(remaining)
        except RecursionError:
            raise _too_deep_to_order([element]) from None

    def _compute_key(self):
        return (_RANK_SET, tuple(element.sort_key() for element in self._elements))

    def _compute_hash(self) -> int:
        return hash((_RANK_SET, tuple(map(hash, self._elements))))

    def _text(self) -> str:
        inner = ", ".join(element._text() for element in self._elements)
        return "{" + inner + "}"


def _children(node: ComplexObject) -> Iterable[ComplexObject]:
    if isinstance(node, TupleObject):
        return [item for _, item in node._attrs]
    return node._elements if isinstance(node, SetObject) else ()


def _cache_hashes(root: ComplexObject) -> int:
    """Fill the ``_hash`` slot of ``root`` and of every unhashed node below it.

    Children first, on an explicit stack: each ``_compute_hash`` then reads
    only cached child hashes, so hashing never recurses and an object of any
    depth a commit accepts can key a dict or a set.
    """
    stack = [root]
    while stack:
        node = stack[-1]
        pending = [child for child in _children(node) if child._hash is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if node._hash is None:
            object.__setattr__(node, "_hash", node._compute_hash())
    return root._hash


def nesting_levels(roots: Iterable) -> int:
    """The container levels of the deepest of ``roots`` (-1 for none).

    Counted breadth-first, so it never recurses into a structure that just
    proved too deep to walk recursively.
    """
    levels, frontier = -1, list(roots)
    while frontier:
        levels += 1
        frontier = [child for node in frontier for child in _children(node)]
    return levels


def too_deep(value: ComplexObject, to: str) -> NestingError:
    """The error for an object whose walk (to print, to order) overflowed the stack."""
    return NestingError(
        f"object is nested {nesting_levels([value])} levels deep, too deep to {to}"
    )


def _too_deep_to_order(elements) -> NestingError:
    """The error for set elements whose ordering keys overflowed the stack."""
    return too_deep(max(elements, key=lambda element: nesting_levels([element])), "order")


def _check_attribute(name: str, value: object) -> None:
    if not isinstance(name, str) or not name:
        raise NormalizationError(f"attribute names must be non-empty strings, got {name!r}")
    if not isinstance(value, ComplexObject):
        raise NormalizationError(
            f"attribute {name!r} must map to a ComplexObject, got {type(value).__name__};"
            " use repro.obj() to convert plain Python values"
        )


def _check_element(element: object) -> None:
    if not isinstance(element, ComplexObject):
        raise NormalizationError(
            f"set elements must be ComplexObject instances, got {type(element).__name__};"
            " use repro.obj() to convert plain Python values"
        )


def _reduce_unique(elements):
    """Drop elements that are sub-objects of some other (distinct) element.

    The input is already deduplicated; domination pruning happens in
    :func:`repro.core.order.maximal_unique`, which buckets elements by their
    kind/depth/breadth fingerprint so incomparable pairs never reach the
    recursive sub-object test.  The module imports this one, so the import is
    deferred to call time to break the cycle.
    """
    from repro.core.order import maximal_unique

    return maximal_unique(elements)
