"""Hash-consing: the canonical interned universe of normalized objects.

Every object produced by the *default* constructors (:class:`repro.core.objects.Atom`,
:class:`TupleObject`, :class:`SetObject`, and the ``TOP``/``BOTTOM`` singletons)
is **interned**: a weak-valued table maps a structural key — built bottom-up
from the intern ids of the children, never by deep traversal — to the one
canonical instance of that structure.  Interning gives the whole stack three
properties the paper's algorithms lean on constantly:

* **O(1) equality** — two interned objects are equal iff they are the same
  instance, so ``==`` degenerates to a pointer comparison;
* **cached O(1) hashing** — the structural hash is computed once per distinct
  structure (from the children's cached hashes, not by re-walking the tree);
* **identity-keyed memo tables** — the sub-object cache keys on ``(intern
  id, intern id)`` pairs of small ints instead of on the objects themselves,
  so it holds **no strong references** to objects and can be cleared
  wholesale.

Intern ids are assigned from a monotonically increasing counter and are never
reused, which is what makes id-keyed caches safe: a stale entry for a
collected object can never be confused with a new object.  The table itself
holds only weak references, so interned objects are garbage-collected exactly
like ordinary ones.

Objects built through the *raw* constructors (``TupleObject.raw`` /
``SetObject.raw``) are deliberately **not** interned: they may carry the
non-normalized structure (⊥/⊤ inside, unreduced sets) that the paper's
Example 3.2 counterexamples require, and they keep the seed's structural
equality semantics.  Mixed comparisons (raw vs interned) fall back to the
structural path.

Formulae (:mod:`repro.calculus.terms`) are hash-consed the same way, in a
table of their own (:func:`intern_term`).

Thread safety: each table is guarded by a lock held across the lookup-or-insert
critical section, so concurrent constructions of the same structure always
converge on a single canonical instance.
"""

from __future__ import annotations

import functools
import threading
import weakref
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "intern_node",
    "is_interned",
    "intern_id",
    "fingerprint",
    "intern_stats",
    "IdPairCache",
    "register_cache",
    "clear_object_caches",
]


class _InternTable:
    """The process-wide weak-valued table from structural keys to instances."""

    __slots__ = ("_lock", "_table", "_next_id", "hits", "misses")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._table: "weakref.WeakValueDictionary[Any, Any]" = weakref.WeakValueDictionary()
        # Ids 0 and 1 are reserved for the BOTTOM / TOP singletons, which are
        # registered eagerly by repro.core.objects at import time.
        self._next_id = 2
        self.hits = 0
        self.misses = 0

    def intern(self, key: Any, build: Callable[..., Any], *args: Any) -> Any:
        """Return the canonical instance for ``key``, building it (``build(*args)``) on a miss.

        The lock is held across the whole lookup-or-insert so racing threads
        cannot both build and leak two "canonical" instances of one structure.
        """
        with self._lock:
            canonical = self._table.get(key)
            if canonical is not None:
                self.hits += 1
                return canonical
            self.misses += 1
            canonical = build(*args)
            object.__setattr__(canonical, "_iid", self._next_id)
            self._next_id += 1
            self._table[key] = canonical
            return canonical

    def register_singleton(self, instance: Any, iid: int) -> None:
        """Assign a reserved id to a module-level singleton (⊥ = 0, ⊤ = 1)."""
        object.__setattr__(instance, "_iid", iid)

    def __len__(self) -> int:
        return len(self._table)


_TABLE = _InternTable()
_TERMS = _InternTable()


#: The object table's weak references by key: a lookup without the lock is one dict read.
_REFS = _TABLE._table.data


def intern_node(key: Any, build: Callable[[], Any]) -> Any:
    """Intern one node: the canonical instance for ``key``; a hit takes no lock."""
    ref = _REFS.get(key)
    canonical = None if ref is None else ref()
    if canonical is None:
        return _TABLE.intern(key, build)
    _TABLE.hits += 1
    return canonical


def live_node(key: Any) -> Any:
    """The live canonical instance for ``key``, or ``None``: builds nothing, takes no lock."""
    ref = _REFS.get(key)
    return None if ref is None else ref()


def intern_term(key: Any, build: Callable[..., Any], *args: Any) -> Any:
    """Intern one formula node; a hit takes no lock (a dict read is atomic)."""
    canonical = _TERMS._table.get(key)
    return _TERMS.intern(key, build, *args) if canonical is None else canonical


def _register_singleton(instance: Any, iid: int) -> None:
    _TABLE.register_singleton(instance, iid)


def is_interned(value: Any) -> bool:
    """``True`` when ``value`` is the canonical interned instance of its structure."""
    return getattr(value, "_iid", None) is not None


def intern_id(value: Any) -> Optional[int]:
    """The intern id of ``value`` (a small int), or ``None`` for raw objects."""
    return getattr(value, "_iid", None)


def fingerprint(value: Any) -> Optional[Tuple[int, int, Any, int]]:
    """The cheap per-node signature ``(kind rank, breadth, depth, size)``.

    Available for interned objects only (it is computed bottom-up at intern
    time); ``None`` for raw objects.  The fingerprint is what lets the order
    and reduction code discard incomparable pairs without recursing: on
    normalized objects ``a ≤ b`` implies same kind, ``depth(a) <= depth(b)``,
    and for tuples ``len(a) <= len(b)`` (attributes of ``a`` are a subset of
    ``b``'s).
    """
    if getattr(value, "_iid", None) is None:
        return None
    return (value._rank, len(value) if hasattr(value, "__len__") else 1, value._depth, value._size)


def intern_stats() -> Dict[str, int]:
    """Counters for diagnostics and benchmarks: table size, hits, misses."""
    return {
        "interned_objects": len(_TABLE),
        "interned_terms": len(_TERMS),
        "hits": _TABLE.hits,
        "misses": _TABLE.misses,
        "caches": len(_CACHES),
        "cache_entries": sum(len(cache) for cache in _CACHES.values()),
    }


# ---------------------------------------------------------------------------
# Id-keyed memo caches
# ---------------------------------------------------------------------------

class IdPairCache:
    """A bounded memo table keyed by a pair of intern ids.

    Unlike ``functools.lru_cache`` keyed on the objects themselves, the keys
    are plain ints, so the cache pins **no objects** (values may, when the
    cached result is itself an object — which is why every cache is clearable
    and registered with :func:`clear_object_caches`).  Ids are never reused,
    so a stale entry can never alias a new object.  On overflow the table is
    simply dropped: the memoized relations are cheap to recompute relative to
    the cost of LRU bookkeeping on the hot path.
    """

    __slots__ = ("_table", "maxsize", "hits", "misses")

    def __init__(self, maxsize: int = 1 << 17):
        self._table: Dict[Tuple[int, int], Any] = {}
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def get(self, left_id: int, right_id: int) -> Any:
        """The cached value for the pair, or ``None`` when absent."""
        value = self._table.get((left_id, right_id))
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, left_id: int, right_id: int, value: Any) -> None:
        if len(self._table) >= self.maxsize:
            self._table.clear()
        self._table[(left_id, right_id)] = value

    def clear(self) -> None:
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)


_CACHES: Dict[str, Any] = {}


def register_cache(cache: Any, name: str) -> Any:
    """Register a clearable cache with the global lifecycle hook; returns it.

    ``name`` is what the cache is reported under (the ``core.memo.<name>_*``
    gauges of :mod:`repro.obs.metrics`).
    """
    _CACHES[name] = cache
    return cache


def node_memo(name: str, maxsize: int = 4096) -> Callable:
    """Memoise a function of one interned node in the ``(iid, 0)``-keyed cache ``name``.

    An entry keeps its node alive, so an equal node built again is the same
    instance and hits.  ``__wrapped__`` is the uncached function, ``cache`` the table.
    """
    table = register_cache(IdPairCache(maxsize), name)

    def decorate(function: Callable[[Any], Any]) -> Callable[[Any], Any]:
        @functools.wraps(function)
        def memoised(node):
            entry = table.get(node._iid, 0)
            if entry is None:
                entry = (node, function(node))
                table.put(node._iid, 0, entry)
            return entry[1]

        memoised.cache = table
        return memoised

    return decorate


def memo_tables() -> Dict[str, Any]:
    """The registered caches by name; each has ``hits``, ``misses`` and ``len``."""
    return dict(_CACHES)


def clear_object_caches() -> None:
    """Clear every registered id-keyed memo table (the sub-object order's).

    The hook for store teardown (``ObjectDatabase.close``) and for benchmark
    cold-run paths.  The intern table itself is weak-valued and needs no
    clearing: unreferenced objects disappear from it on collection.
    """
    for cache in _CACHES.values():
        cache.clear()
