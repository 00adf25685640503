"""The :class:`ObjectDatabase` facade.

An object database is a named collection of complex objects — in memory,
or durable over a write-ahead log (:class:`~repro.store.storage.FileStorage`)
— with:

* calculus queries: formulae evaluate against one stored object (or against
  the whole database seen as a single tuple object, exactly the paper's "the
  entire database can be modeled by a single object") through the session
  facade of :mod:`repro.api.session` (``Session(database=db).query(...)``).
  The session plans; the store contributes the access-path decision
  (:meth:`ObjectDatabase.access_path`): root-attribute and indexed-path
  selections are pushed into the store instead of materialising the snapshot
  (``Session.explain`` / ``--explain`` on the CLI print the decision above
  the plan).  :meth:`ObjectDatabase.apply_rules` / :meth:`close_under`
  evaluate rules and closures in place (the latter through the plan-compiled
  engine);
* pattern search across objects: :meth:`find` returns the names of the stored
  objects of which a pattern is a sub-object, prefiltering through every
  path index the pattern pins (``access_stats`` counts prefilters vs scans);
* schema enforcement: a type per name (optional) checked on every write;
* functional updates with :mod:`repro.store.updates`, and atomic
  multi-statement transactions with :mod:`repro.store.transactions`.

Concurrency discipline
----------------------
The database is safe for concurrent use from multiple threads.  Every commit
takes the :class:`~repro.store.locks.WriteLock` once and does everything
decisive under it (:meth:`ObjectDatabase.commit_batch`): validate schemas,
conflict-check, log the batch (one WAL append + fsync), maintain the
indexes, and publish the next :class:`_State` with one attribute assignment.
A published state never changes, so readers take no lock: each read takes
``self._state`` once, and :meth:`ObjectDatabase.state` hands out one state
to read many times.  A failed commit publishes nothing.  Reads of what a
commit mutates in place — path index contents, the schema and index
registries — take the writer mutex.  The published state is the store's
only ``name → object`` map: the log hands its replayed objects over once, at
open, and keeps none.
"""

from __future__ import annotations

import threading
import time
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.calculus.fixpoint import ClosureResult
from repro.calculus.rules import Rule, RuleSet
from repro.calculus.terms import Formula, TupleFormula
from repro.core.builder import obj
from repro.core.errors import ConflictError, SchemaError, StoreError, TransactionError
from repro.core.intern import clear_object_caches
from repro.core.objects import BOTTOM, ComplexObject, SetObject, TupleObject
from repro.core.order import is_subobject
from repro.core.paths import Path, get_path
from repro.engine import SemiNaiveEngine
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY as _METRICS
from repro.plan.ir import NO_PARAMS, ScanLeaf
from repro.schema.check import check_object
from repro.schema.types import SchemaType
from repro.store.index import PathIndex
from repro.store.locks import WriteLock
from repro.store.retry import DEFAULT_POLICY, RetryPolicy
from repro.store.storage import FileStorage
from repro.store.transactions import Transaction
from repro.store.updates import assign_path, insert_element, merge_object, remove_element

__all__ = ["ObjectDatabase"]

#: The ``access_stats`` counter each :meth:`ObjectDatabase.access_path` kind moves.
_ACCESS_COUNTERS = {
    "refuted": "query_index_shortcircuits",
    "pushdown": "query_root_pushdowns",
    "snapshot": "query_scans",
}

#: Copy-on-write shards of a state's name map: a commit copies only the
#: shards its batch touches, not the whole map.
_SHARDS = 64


class _State:
    """One committed state of the database, immutable once published.

    ``version`` counts the committed batches; ``top_names`` are the names
    whose value is ⊤ (a ⊤ value collapses :meth:`as_object` to ⊤ whether or
    not a formula mentions its name, so no query pushes down while any
    exist; ⊤ only occurs as a whole stored value, since any object
    containing ⊤ collapses at construction).  The sorted
    names and the whole-database object are memoised: each is built at most
    once per version.  The default is the empty state before version 0 (its
    shards, never written, may all be one dict).
    """

    __slots__ = ("version", "top_names", "_shards", "_count", "_names", "_object")

    def __init__(self, version=-1, shards=({},) * _SHARDS, count=0, top_names=frozenset()):
        self.version = version
        self.top_names: FrozenSet[str] = top_names
        self._shards: Tuple[Dict[str, ComplexObject], ...] = shards
        self._count = count
        self._names: Optional[Tuple[str, ...]] = None
        self._object: Optional[ComplexObject] = None

    def following(self, changes: Mapping[str, Optional[ComplexObject]]) -> "_State":
        """The next version: ``changes`` (``None`` deletes) on copies of the shards they touch."""
        shards = list(self._shards)
        count, top = self._count, self.top_names
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
            if value is not None and value.is_top:
                top = top | {name}
            elif name in top:
                top = top - {name}
        return _State(self.version + 1, tuple(shards), count, top)

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
    """A named collection of complex objects with queries, indexes and updates."""

    def __init__(
        self,
        storage: Optional[FileStorage] = None,
        *,
        lock_timeout: Optional[float] = None,
    ):
        # ``None``: an in-memory store, whose commits are logged nowhere.
        self._storage = storage
        self._indexes: Dict[str, PathIndex] = {}
        self._schemas: Dict[str, SchemaType] = {}
        # ``lock_timeout`` (seconds) bounds every acquisition of the writer
        # mutex: past it, commits and index-consulting reads raise
        # LockTimeout instead of hanging.
        self._lock = WriteLock(default_timeout=lock_timeout)
        recovered = {} if storage is None else storage.recovered()
        self._state = _State().following(recovered)  # version 0
        # Access-path counters: how often queries/finds used an index or
        # pushdown instead of scanning the snapshot (see ``access_stats``).
        # Lock-free readers bump them concurrently, so they go through their
        # own mutex.
        self._stats_lock = threading.Lock()
        self._access_stats = {
            "find_index_prefilters": 0,
            "find_path_lookups": 0,
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

        1. every written value is schema-checked against the schemas in force
           *at commit time* (checking outside the lock would race a
           concurrent :meth:`declare_schema`), so a violation anywhere in the
           batch rejects the whole batch before anything is touched;
        2. ``expected`` (a snapshot of name → previously-observed value,
           ``None`` for absent) is validated against the current state — any
           mismatch raises :class:`ConflictError` (the retryable
           :class:`TransactionError` subclass) and applies nothing
           (first committer wins);
        3. the log appends the batch as one record (one WAL append + fsync;
           an in-memory store has no log), the path indexes are maintained,
           and the next state is published.

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
                    for name, value in changes.items():
                        if value is None:
                            continue
                        schema = self._schemas.get(name)
                        if schema is not None:
                            issues = check_object(value, schema)
                            if issues:
                                raise SchemaError(
                                    f"object for {name!r} violates its schema:"
                                    f" {issues[0]}"
                                )
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
                        # Every index key first: a failing batch logs and indexes nothing.
                        keyed = [
                            (index, name, None if value is None else index.keys_of(value))
                            for index in self._indexes.values()
                            for name, value in effective.items()
                        ]
                        if self._storage is not None:
                            self._storage.apply_batch(effective, state)
                        for index, name, keys in keyed:
                            if keys is None:
                                index.remove(name)
                            else:
                                index.assign(name, keys)
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

    # -- schemas -------------------------------------------------------------------------
    def declare_schema(self, name: str, schema: SchemaType) -> None:
        """Attach a schema to ``name``; the current and future values must conform.

        Declarations last only for this process: the write-ahead log records
        objects, not schemas, so a reopened store has no schema for ``name``
        (``schema_of`` is ``None``) and accepts any value until it is declared
        again.
        """
        with self._lock:
            current = self._state.get(name)
            if current is not None:
                issues = check_object(current, schema)
                if issues:
                    raise SchemaError(
                        f"existing object for {name!r} violates the declared schema:"
                        f" {issues[0]}"
                    )
            self._schemas[name] = schema

    def schema_of(self, name: str) -> Optional[SchemaType]:
        """The declared schema of ``name`` (or ``None``)."""
        with self._lock:
            return self._schemas.get(name)

    # -- indexes --------------------------------------------------------------------------
    def create_index(self, path: Union[Path, str]) -> PathIndex:
        """Create (or return) a path index and populate it from the stored objects."""
        key = str(path if isinstance(path, Path) else Path(path))
        with self._lock:
            if key not in self._indexes:
                index = PathIndex(key)
                index.rebuild(self._state.items())
                self._indexes[key] = index
            return self._indexes[key]

    def drop_index(self, path: Union[Path, str]) -> None:
        """Remove a path index (no error when absent)."""
        key = str(path if isinstance(path, Path) else Path(path))
        with self._lock:
            self._indexes.pop(key, None)

    def indexes(self) -> Tuple[str, ...]:
        """The paths currently indexed."""
        with self._lock:
            return tuple(sorted(self._indexes))

    # -- queries --------------------------------------------------------------------------
    @property
    def access_stats(self) -> Dict[str, int]:
        """Counters of index pushdowns vs full scans (a copy; see ``find``)."""
        with self._stats_lock:
            return dict(self._access_stats)

    def _bump(self, counter: str) -> None:
        with self._stats_lock:
            self._access_stats[counter] += 1
        _METRICS.counter(f"store.index.{counter}").inc()

    def access_path(
        self,
        formula: Formula,
        leaves,
        *,
        state: Optional[_State] = None,
        allow_bottom: bool = False,
        counted: bool = True,
        params: Mapping[str, ComplexObject] = NO_PARAMS,
    ) -> Tuple[str, str, Optional[ComplexObject]]:
        """The access path of one whole-database query, decided on one state.

        Returns ``(kind, note, target)``.  ``kind`` is ``"refuted"`` (a path
        index proves the answer is ⊥: ``target`` is ``None`` and nothing is
        read), ``"pushdown"`` (``target`` holds only the root attributes the
        formula mentions) or ``"snapshot"`` (``target`` is the full database
        object, ``note`` saying why); ``note`` is the line EXPLAIN prints for
        the decision.  ``leaves`` are the leaves of the query's compiled
        :class:`~repro.plan.ir.BodyPlan` and ``params`` the values of its
        ``$parameter`` slots — planning is the caller's job
        (:mod:`repro.api.session`), the store only reads their static keys,
        atom-bound slots included, against its indexes.  ``state`` is the
        state the caller already holds (default: the current one); the
        decision and the target come from it, and the path indexes are
        consulted only while it is still current.  Every ``counted`` call moves exactly one
        ``access_stats`` counter (an EXPLAIN passes ``counted=False``).
        """
        if state is None:
            state = self._state
        if isinstance(formula, TupleFormula) and not state.top_names:
            if not allow_bottom and self._index_refutes(state, leaves, params):
                decision = (
                    "refuted",
                    "index short-circuit: a path index refutes the query;"
                    " answers ⊥ without reading or interpreting",
                    None,
                )
            else:
                read = {
                    name: value
                    for name in formula.attributes
                    if (value := state.get(name)) is not None
                }
                decision = (
                    "pushdown",
                    f"target: root-attribute pushdown reads {len(read)}"
                    f" of {len(state)} stored objects",
                    TupleObject(read),
                )
        else:
            reason = (
                "a stored value is ⊤, which collapses the database object"
                if isinstance(formula, TupleFormula)
                else "formula is not tuple-shaped"
            )
            decision = ("snapshot", f"target: full snapshot ({reason})", state.as_object())
        if counted:
            self._bump(_ACCESS_COUNTERS[decision[0]])
        return decision

    def _index_refutes(self, state: _State, leaves, params) -> bool:
        """``True`` when a path index proves the query answers ⊥ on ``state``.

        Looks for a scan leaf that pins a ground atom (a constant, or a slot
        ``params`` binds to one) at an indexed path under one root
        attribute; if the index (wildcards included) maps that atom to no
        stored name — or not to the leaf's root attribute — the leaf has no
        witness, its element formula cannot vanish (vanishing needs a bare
        variable or a ⊥ constant or slot, which carry no static key), and
        the conjunction is empty.  The indexes describe the current
        state only, so they are read under the writer mutex and only while
        ``state`` is current; otherwise the answer is ``False`` and the
        caller pushes down, which is always correct.
        """
        if not self._indexes:
            return False
        with self._lock:
            if state is not self._state:
                return False
            for leaf in leaves:
                if not isinstance(leaf, ScanLeaf) or not leaf.path.steps:
                    continue
                keys = leaf.bound_keys(params) if leaf.param_keys else leaf.static_keys
                root, inner = leaf.path.steps[0], leaf.path.steps[1:]
                for key_path, atom in keys:
                    index = self._indexes.get(".".join(inner + key_path.steps))
                    if index is not None and root not in index.lookup(atom):
                        return True
        return False

    def find(
        self, pattern: ComplexObject, *, path: Optional[Union[Path, str]] = None
    ) -> List[str]:
        """Names of the stored objects of which ``pattern`` is a sub-object.

        When ``path`` names an index and ``pattern`` pins atoms at that path,
        the index narrows the candidates before the sub-object check.  With no
        explicit path, every index whose path the pattern pins with ground
        atoms prefilters the candidates (their intersection), so path-rooted
        patterns avoid the full-snapshot scan entirely.  A pattern that pins
        no atom at an index's path is scanned: only an atom's lookup is a
        superset of the matches.  ``access_stats`` counts prefiltered vs
        scanned searches.  The indexes are read under the writer mutex,
        together with the state they describe.
        """
        with self._lock:
            state = self._state
            candidates: Optional[Sequence[str]] = None
            counter = "find_scans"
            if path is not None:
                key = str(path if isinstance(path, Path) else Path(path))
                index = self._indexes.get(key)
                if index is not None:
                    candidates = self._prefilter_candidates(pattern, (index,))
                    if candidates is not None:
                        counter = "find_path_lookups"
            elif self._indexes:
                candidates = self._prefilter_candidates(pattern, self._indexes.values())
                if candidates is not None:
                    counter = "find_index_prefilters"
        if candidates is None:
            candidates = state.names()
        self._bump(counter)
        return [
            name
            for name in candidates
            if (stored := state.get(name)) is not None and is_subobject(pattern, stored)
        ]

    @staticmethod
    def _prefilter_candidates(
        pattern: ComplexObject, indexes: Iterable[PathIndex]
    ) -> Optional[List[str]]:
        """Candidate names from every one of ``indexes`` the pattern pins with atoms.

        Each pinned atom's lookup is individually a superset of the true
        matches (an atom is only dominated by itself or ⊤, and ⊤-carrying
        objects are in every lookup via the wildcard set), so their
        intersection — across values and across indexes — is a sound
        prefilter; the final sub-object check still runs.  ``None`` means no
        index constrained the pattern.  Callers hold the writer mutex.
        """
        narrowed: Optional[set] = None
        for index in indexes:
            located = get_path(pattern, index.path)
            values = located.elements if isinstance(located, SetObject) else (located,)
            atoms = [value for value in values if value.is_atom]
            for atom in atoms:
                names = index.lookup(atom)
                narrowed = set(names) if narrowed is None else (narrowed & names)
                if not narrowed:
                    return []
        if narrowed is None:
            return None
        return sorted(narrowed)

    # -- rules ----------------------------------------------------------------------------
    def apply_rules(
        self,
        rules: Union[Rule, RuleSet, Sequence[Rule]],
        *,
        against: Optional[str] = None,
        allow_bottom: bool = False,
    ) -> ComplexObject:
        """Apply rules once (Definition 4.4) to one object or to the whole database."""
        ruleset = rules if isinstance(rules, RuleSet) else RuleSet(
            [rules] if isinstance(rules, Rule) else rules
        )
        target = self.as_object() if against is None else self._require(against)
        return ruleset.apply(target, allow_bottom=allow_bottom)

    def close_under(
        self,
        rules: Union[Rule, RuleSet, Sequence[Rule]],
        *,
        against: Optional[str] = None,
        store_as: Optional[str] = None,
        **guards,
    ) -> ClosureResult:
        """Compute the closure (Definition 4.6) and optionally store the result.

        Evaluation runs :class:`repro.engine.SemiNaiveEngine` (stratified,
        delta-driven and index-accelerated); ``guards`` are its divergence
        guards and ``allow_bottom``.  The paper-literal series — including
        the non-inflationary one — is the oracle
        ``repro.calculus.fixpoint.close(db.as_object(), rules, ...)``, which
        computes the same closure and raises the same
        :class:`DivergenceError` on divergence.
        """
        target = self.as_object() if against is None else self._require(against)
        result = SemiNaiveEngine(rules, **guards).run(target)
        if store_as is not None:
            self.put(store_as, result.value)
        return result

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
        return f"<ObjectDatabase {len(self)} objects, {len(self.indexes())} indexes>"
