"""The :class:`ObjectDatabase` facade.

An object database is a named collection of complex objects — in memory,
or durable over a write-ahead log (:class:`~repro.store.storage.FileStorage`)
— with:

* calculus queries: formulae evaluate against one stored object or against
  the whole database seen as a single tuple object (the paper's "the entire
  database can be modeled by a single object", :meth:`ObjectDatabase.as_object`,
  built at most once per committed version) through the session facade of
  :mod:`repro.api.session` (``Session(database=db).query(...)``), which plans
  and executes them; the store neither plans nor evaluates rules (closures
  run through ``Session.close`` or ``Program.evaluate``, one-shot
  applications through ``RuleSet.apply``, and a result is stored with
  :meth:`ObjectDatabase.put`);
* pattern search across objects: :meth:`find` returns the names of the stored
  objects of which a pattern is a sub-object;
* functional updates with :mod:`repro.store.updates`, and atomic
  multi-statement transactions with :mod:`repro.store.transactions`.

Concurrency discipline
----------------------
The database is safe for concurrent use from multiple threads.  Every commit
takes the :class:`~repro.store.locks.WriteLock` once and does everything
decisive under it (:meth:`ObjectDatabase.commit_batch`): conflict-check,
log the batch (one WAL append + fsync) and publish the next
:class:`_State` with one attribute assignment.  A published state never
changes, so readers take no lock: each read takes ``self._state`` once, and
:meth:`ObjectDatabase.state` hands out one state to read many times.  A
failed commit publishes nothing.  The mutex guards only commits and
:meth:`ObjectDatabase.compact`.  The store keeps objects, not types: a caller
who wants a checked write runs :func:`repro.schema.check_object` (with
``strict=True``) before :meth:`ObjectDatabase.put`.  The published state is
the store's only ``name → object`` map: the log hands its replayed objects
over once, at open, and keeps none.
"""

from __future__ import annotations

import threading
import time
from itertools import chain
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.builder import obj
from repro.core.errors import ConflictError, StoreError, TransactionError
from repro.core.intern import clear_object_caches
from repro.core.objects import BOTTOM, ComplexObject, TupleObject
from repro.core.order import is_subobject
from repro.core.paths import Path
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY as _METRICS
from repro.store.locks import WriteLock
from repro.store.retry import DEFAULT_POLICY, RetryPolicy
from repro.store.storage import FileStorage
from repro.store.transactions import Transaction
from repro.store.updates import assign_path, insert_element, merge_object, remove_element

__all__ = ["ObjectDatabase"]

#: Copy-on-write shards of a state's name map: a commit copies only the
#: shards its batch touches, not the whole map.
_SHARDS = 64


class _State:
    """One committed state of the database, immutable once published.

    ``version`` counts the committed batches.  The sorted names and the
    whole-database object are memoised: each is built at most once per
    version.  The default is the empty state before version 0 (its
    shards, never written, may all be one dict).
    """

    __slots__ = ("version", "_shards", "_count", "_names", "_object")

    def __init__(self, version=-1, shards=({},) * _SHARDS, count=0):
        self.version = version
        self._shards: Tuple[Dict[str, ComplexObject], ...] = shards
        self._count = count
        self._names: Optional[Tuple[str, ...]] = None
        self._object: Optional[ComplexObject] = None

    def following(self, changes: Mapping[str, Optional[ComplexObject]]) -> "_State":
        """The next version: ``changes`` (``None`` deletes) on copies of the shards they touch."""
        shards = list(self._shards)
        count = self._count
        for name, value in changes.items():
            slot = hash(name) % _SHARDS
            if shards[slot] is self._shards[slot]:
                shards[slot] = dict(shards[slot])
            shard = shards[slot]
            if value is None:
                count -= shard.pop(name, None) is not None
            else:
                count += name not in shard
                shard[name] = value
        return _State(self.version + 1, tuple(shards), count)

    def get(self, name: str, default=None) -> Optional[ComplexObject]:
        return self._shards[hash(name) % _SHARDS].get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._shards[hash(name) % _SHARDS]

    def __len__(self) -> int:
        return self._count

    def names(self) -> Tuple[str, ...]:
        """The stored names, sorted."""
        if self._names is None:
            self._names = tuple(sorted(chain.from_iterable(self._shards)))
        return self._names

    def items(self) -> List[Tuple[str, ComplexObject]]:
        """The ``(name, object)`` pairs in name order."""
        return [(name, self.get(name)) for name in self.names()]

    def as_object(self) -> ComplexObject:
        """The whole state as one tuple object (Section 4 of the paper)."""
        if self._object is None:
            self._object = TupleObject(dict(self.items()))
        return self._object


def _check_batch(changes: Mapping[str, Optional[ComplexObject]]) -> None:
    for name, value in changes.items():
        if not isinstance(name, str):
            raise StoreError(f"object names must be strings, got {type(name).__name__}")
        if value is not None and not isinstance(value, ComplexObject):
            raise StoreError(
                f"only complex objects can be stored, got {type(value).__name__}"
            )


class ObjectDatabase:
    """A named collection of complex objects with queries and updates."""

    def __init__(
        self,
        storage: Optional[FileStorage] = None,
        *,
        lock_timeout: Optional[float] = None,
    ):
        # ``None``: an in-memory store, whose commits are logged nowhere.
        self._storage = storage
        # ``lock_timeout`` (seconds) bounds every acquisition of the writer
        # mutex: past it, commits and compaction raise LockTimeout instead of
        # hanging.
        self._lock = WriteLock(default_timeout=lock_timeout)
        recovered = {} if storage is None else storage.recovered()
        self._state = _State().following(recovered)  # version 0
        # Access counters (see ``access_stats``).  Lock-free readers bump
        # them concurrently, so they go through their own mutex.
        self._stats_lock = threading.Lock()
        self._access_stats = {
            "find_scans": 0,
            "query_root_pushdowns": 0,
            "query_index_shortcircuits": 0,
            "query_scans": 0,
        }

    # -- basic CRUD -----------------------------------------------------------------
    def put(self, name: str, value) -> ComplexObject:
        """Store an object (plain Python values are converted) under ``name``."""
        converted = obj(value)
        self.commit_batch({name: converted})
        return converted

    def get(self, name: str, default=None) -> Optional[ComplexObject]:
        """Return the object stored under ``name`` (or ``default``)."""
        return self._state.get(name, default)

    def __getitem__(self, name: str) -> ComplexObject:
        value = self._state.get(name)
        if value is None:
            raise KeyError(name)
        return value

    def __contains__(self, name: str) -> bool:
        return name in self._state

    def remove(self, name: str) -> None:
        """Delete the object stored under ``name`` (no error when absent)."""
        self.commit_batch({name: None})

    def names(self) -> Tuple[str, ...]:
        """The stored names, sorted."""
        return self._state.names()

    def items(self) -> List[Tuple[str, ComplexObject]]:
        """The ``(name, object)`` pairs in name order, from one consistent state."""
        return self._state.items()

    def __len__(self) -> int:
        return len(self._state)

    @property
    def version(self) -> int:
        """A counter bumped once per committed batch (for cheap change checks)."""
        return self._state.version

    def state(self) -> _State:
        """The current committed state: immutable, so read it as often as needed.

        Its ``version``, ``get``, ``names``, ``items``, ``len`` and
        ``as_object()`` all describe the same commit, whatever commits land
        after it was taken.
        """
        return self._state

    # -- group commit ---------------------------------------------------------------
    def commit_batch(
        self,
        changes: Mapping[str, Optional[ComplexObject]],
        *,
        expected: Optional[Mapping[str, Optional[ComplexObject]]] = None,
    ) -> None:
        """Apply ``changes`` (name → new value, ``None`` deletes) atomically.

        The all-or-nothing discipline every commit goes through:

        Names must be strings and values complex objects: anything else
        raises :class:`StoreError` before the writer mutex is taken.  The
        mutex is taken once and everything decisive happens under it, in
        order:

        1. ``expected`` (a snapshot of name → previously-observed value,
           ``None`` for absent) is validated against the current state — any
           mismatch raises :class:`ConflictError` (the retryable
           :class:`TransactionError` subclass) and applies nothing
           (first committer wins);
        2. the log appends the batch as one record (one WAL append + fsync;
           an in-memory store has no log), and the next state is published.

        Deletes of names that are already absent are dropped from the batch;
        a batch that ends up empty applies nothing and bumps no version.
        """
        start_ns = time.perf_counter_ns()
        with _trace.span("store.commit") as span:
            if span.enabled:
                span.set(names=len(changes), guarded=expected is not None)
            try:
                _check_batch(changes)
                with self._lock:
                    state = self._state
                    if expected is not None:
                        for name, before in expected.items():
                            current = state.get(name)
                            if current is not before and current != before:
                                raise ConflictError(
                                    f"write-write conflict on {name!r}: the object"
                                    " changed since the transaction first read it"
                                )
                    effective = {
                        name: value
                        for name, value in changes.items()
                        if value is not None or name in state
                    }
                    if effective:
                        if self._storage is not None:
                            self._storage.apply_batch(effective, state)
                        self._state = state.following(effective)
            except TransactionError:
                _METRICS.counter("store.conflicts").inc()
                raise
        _METRICS.counter("store.commits").inc()
        _METRICS.histogram("store.commit_ns").observe(
            time.perf_counter_ns() - start_ns
        )

    # -- the whole database as one object ----------------------------------------------
    def as_object(self) -> ComplexObject:
        """The entire database as a single tuple object (Section 4 of the paper).

        One committed state's object, built at most once per version, so
        repeated calls on an unchanged database return the identical object.
        """
        return self._state.as_object()

    def snapshot(self) -> Dict[str, ComplexObject]:
        """A consistent ``name → object`` copy of the current committed state."""
        return dict(self._state.items())

    # -- queries --------------------------------------------------------------------------
    @property
    def access_stats(self) -> Dict[str, int]:
        """How many ``find`` scans and whole-database query scans ran (a copy).

        ``query_root_pushdowns`` and ``query_index_shortcircuits`` stay, at 0:
        a whole-database query reads the one database object.
        """
        with self._stats_lock:
            return dict(self._access_stats)

    def _bump(self, counter: str) -> None:
        with self._stats_lock:
            self._access_stats[counter] += 1
        _METRICS.counter(f"store.index.{counter}").inc()

    def find(self, pattern: ComplexObject) -> List[str]:
        """Names of the stored objects of which ``pattern`` is a sub-object, sorted.

        One scan of one committed state; the sub-object test memoises on
        intern ids, so a repeated search over unchanged objects is cheap.
        """
        state = self._state
        self._bump("find_scans")
        return [name for name, stored in state.items() if is_subobject(pattern, stored)]

    # -- updates ------------------------------------------------------------------------
    # The single-statement helpers below are read-modify-write: they re-read
    # the current object, recompute, and commit with the read value as the
    # expected state.  A concurrent commit in the window shows up as a
    # ConflictError, and the helper recomputes from the new state — so no
    # concurrent update is ever silently lost, and every retry makes global
    # progress (a conflict means somebody else committed).  The loop is
    # bounded by a RetryPolicy (jittered exponential backoff); exhaustion
    # re-raises the conflict instead of spinning forever.

    def _read_modify_write(
        self,
        name: str,
        compute,
        *,
        require: bool,
        retry: Optional[RetryPolicy] = None,
    ) -> ComplexObject:
        def attempt() -> ComplexObject:
            current = self._require(name) if require else self.get(name, default=None)
            result = compute(BOTTOM if current is None else current)
            self.commit_batch({name: result}, expected={name: current})
            return result

        return (retry or DEFAULT_POLICY).run(attempt)

    def update(
        self,
        name: str,
        path: Union[Path, str],
        value,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> ComplexObject:
        """Assign ``value`` at ``path`` inside the object stored under ``name``."""
        converted = obj(value)
        return self._read_modify_write(
            name,
            lambda current: assign_path(current, path, converted),
            require=True,
            retry=retry,
        )

    def insert(
        self,
        name: str,
        path: Union[Path, str],
        element,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> ComplexObject:
        """Insert ``element`` into the set at ``path`` inside ``name``."""
        converted = obj(element)
        return self._read_modify_write(
            name,
            lambda current: insert_element(current, path, converted),
            require=True,
            retry=retry,
        )

    def discard(
        self,
        name: str,
        path: Union[Path, str],
        element,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> ComplexObject:
        """Remove ``element`` from the set at ``path`` inside ``name``."""
        converted = obj(element)
        return self._read_modify_write(
            name,
            lambda current: remove_element(current, path, converted),
            require=True,
            retry=retry,
        )

    def merge(
        self, name: str, other, *, retry: Optional[RetryPolicy] = None
    ) -> ComplexObject:
        """Lattice-union ``other`` into the object stored under ``name``."""
        converted = obj(other)
        return self._read_modify_write(
            name,
            lambda current: merge_object(current, converted),
            require=False,
            retry=retry,
        )

    # -- transactions ----------------------------------------------------------------------
    def transaction(self) -> Transaction:
        """Start a buffered transaction against this database."""
        return Transaction(self)

    # -- maintenance -----------------------------------------------------------------------
    def compact(self) -> None:
        """Rewrite the write-ahead log from the current state (in-memory stores have none)."""
        with self._lock:
            if self._storage is None:
                raise StoreError("an in-memory store has no log to compact")
            self._storage.compact(self._state.items())

    # -- helpers ---------------------------------------------------------------------------
    def _require(self, name: str) -> ComplexObject:
        value = self.get(name)
        if value is None:
            raise StoreError(f"no object stored under {name!r}")
        return value

    def close(self) -> None:
        """Close the write-ahead log (if any) and drop the object memo caches.

        The sub-object memo keys on intern ids and never pins objects, but its
        entries accumulate across a store's lifetime; teardown is the natural
        point to release them.
        """
        storage = self._storage  # invariant: unlocked-ok — teardown is single-threaded by contract
        if storage is not None:
            storage.close()
        clear_object_caches()

    def __repr__(self) -> str:
        return f"<ObjectDatabase {len(self)} objects>"
