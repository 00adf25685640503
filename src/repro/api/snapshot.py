"""repro.api.snapshot — what a session derives from one version of its database.

The paper evaluates everything against one object ``O`` (Section 4); a
:class:`Snapshot` is that ``O`` for one :attr:`~repro.api.Session.version`
and everything derived from it.  The session replaces it whole when the
version moves (:meth:`Snapshot.advance`), so no cache checks its own
staleness; closures survive the move as bases a later ``close()`` resumes
from (:meth:`Snapshot.resume`) — semi-naive "resume from the delta", one
level up: from engine rounds to commits.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.lattice import union
from repro.core.objects import ComplexObject
from repro.calculus.fixpoint import ClosureResult
from repro.lint.shapes import infer_shapes
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY as _METRICS
from repro.plan import DatabaseStatistics, compile_body, optimize_body
from repro.plan.indexes import TargetIndexes

#: Upper bound on per-session cached plans/closures; beyond it the
#: least-recently-used entry is evicted, so a session that rotates through
#: more distinct queries than this re-optimizes only the coldest ones.
_CACHE_LIMIT = 512

#: Every ``Session.cache_info()`` counter and the registry counter moving with it.
_COUNTER_METRICS = {
    "plan_hits": "session.plan_cache.hits",
    "plan_misses": "session.plan_cache.misses",
    "plan_evictions": "session.plan_cache.evictions",
    "plan_invalidations": "session.plan_cache.invalidations",
    "closure_hits": "session.closure_cache.hits",
    "closure_misses": "session.closure_cache.misses",
    "closure_evictions": "session.closure_cache.evictions",
    "closure_invalidations": "session.closure_cache.invalidations",
    "closure_maintained": "session.closure_cache.maintained",
    "prepared_queries": "session.prepared_queries",
}


class _Counters(dict):
    """A session's cumulative counters; :meth:`count` is their one increment path."""

    def count(self, key: str, n: int = 1) -> None:
        self[key] += n
        _METRICS.counter(_COUNTER_METRICS[key]).inc(n)


def _index_build(built: List[int], set_path, key_path, elements: int):
    """Count one bucket build (planner's or executor's); returns the span it runs under.

    Takes the snapshot's build count, not the snapshot: with no cycle through
    its index stores, a replaced snapshot is freed at once."""
    built[0] += 1
    _METRICS.counter("session.index.builds").inc()
    _METRICS.gauge("session.index.entries").set(built[0])
    span = _trace.span("session.index.build")
    if span.enabled:
        span.set(
            set_path=str(set_path) or "<root>",
            key_path=str(key_path) or "<element>",
            elements=elements,
        )
    return span


class Snapshot:
    """What a session derived from one :attr:`~repro.api.Session.version`.

    ``state`` is the committed store state the version was read from (every
    target is read from it), ``seed`` the seed object (``None``: unseeded),
    ``rules`` the rules.  Derived on first use: the whole-database object
    (:meth:`base`), plans (LRU on ``(formula, mode)``), one index store per
    target identity and closures (LRU on the guards: ``(rule revision, seed,
    evaluator, result)``); bases are older versions' closures.
    """

    __slots__ = (
        "state", "version", "seed", "rules", "_counters", "_base", "_plans", "_indexes",
        "_built", "_closures", "_bases",
    )

    def __init__(self, state, version, seed, rules, counters: _Counters, bases=None):
        self.state = state
        self.version: Optional[Tuple[int, int, int]] = version
        self.seed: Optional[ComplexObject] = seed
        self.rules: Tuple = rules
        self._counters = counters
        self._base: Optional[ComplexObject] = None
        self._plans: "OrderedDict[Tuple, object]" = OrderedDict()
        self._indexes: Dict[int, TargetIndexes] = {}
        self._built = [0]  # bucket tables the index stores built
        self._closures: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._bases: Dict[Tuple, Tuple] = bases or {}

    def advance(self, state, version, seed, rules) -> "Snapshot":
        """The snapshot of a new ``version``: this one's plans count as
        invalidated, its index stores go, its closures become resume bases."""
        self._counters.count("plan_invalidations", len(self._plans))
        _METRICS.gauge("session.index.entries").set(0)
        bases = {**self._bases, **self._closures}
        return Snapshot(state, version, seed, rules, self._counters, bases)

    def gauges(self) -> Dict[str, int]:
        """The ``cache_info()`` gauges: what this version holds."""
        return {
            "plans_cached": len(self._plans),
            "closures_cached": len(self._closures) + len(self._bases),
            "indexes_cached": self._built[0],
        }

    def base(self) -> ComplexObject:
        """The whole database as one object, built once: the state joined with the seed.

        A seeded session over an empty store *is* its seed — ⊥ when seeded
        with ⊥ (the paper's empty database), never the empty store's ``[]``,
        so the oracle's ``interpret(f, BOTTOM)`` semantics hold exactly.
        """
        base = self._base
        if base is None:
            state, seed = self.state, self.seed
            if seed is None:
                base = state.as_object()
            else:
                base = seed if len(state) == 0 else union(state.as_object(), seed)
            self._base = base
        return base

    # -- plans --------------------------------------------------------------------------
    def cached_plan(self, formula, mode: Tuple):
        """The plan held for ``(formula, mode)`` (a hit), or ``None``."""
        key = (formula, mode)
        plan = self._plans.get(key)
        if plan is not None:
            self._counters.count("plan_hits")
            self._plans.move_to_end(key)
        return plan

    def plan_for(self, formula, mode: Tuple, target: ComplexObject):
        """Optimize ``formula`` for ``target`` and keep the plan (a miss).

        What the cache saves is the cost-based reordering.  Its distinct-atom
        estimates read the tables ``target``'s sets carry, which the cursor
        then probes.  Neither walk recurses over ``target``, so a target of
        any depth is planned.
        """
        self._counters.count("plan_misses")
        plan = compile_body(formula)
        shapes = None
        if mode == ("seed", False):
            # Closed-world shape inference over the actual seeded object: a
            # provably-empty body is pruned (the executor answers it without
            # scanning) and EXPLAIN shows each leaf's inferred element shape.
            shapes = infer_shapes(self.rules, target)
        statistics = DatabaseStatistics.collect(target, self.indexes_for(target))
        plan = optimize_body(plan, statistics, shapes)
        self._plans[(formula, mode)] = plan
        while len(self._plans) > _CACHE_LIMIT:
            self._plans.popitem(last=False)
            self._counters.count("plan_evictions")
        return plan

    # -- index stores -------------------------------------------------------------------
    def indexes_for(self, target: ComplexObject) -> TargetIndexes:
        """The index store of ``target``: one per target per version, counting
        its builds as this version's — the tables it reads live on the sets."""
        indexes = self._indexes.get(id(target))
        if indexes is None:
            on_build = partial(_index_build, self._built)
            indexes = self._indexes[id(target)] = TargetIndexes(target, on_build)
        return indexes

    # -- closures -----------------------------------------------------------------------
    def closure(self, key: Tuple) -> Optional[ClosureResult]:
        """The closure held for the guards ``key`` (a hit), or ``None``."""
        entry = self._closures.get(key)
        if entry is None:
            return None
        self._counters.count("closure_hits")
        self._closures.move_to_end(key)
        return entry[3]

    def resume(self, key: Tuple, rules_version: int, seed: ComplexObject):
        """The ``(evaluator, previous)`` a ``close()`` miss may resume from, or ``None``.

        Takes the base an older version left under the guards ``key``: a
        resumed run mutates the evaluator's plans, so an aborted one leaves
        no base.  It resumes while the rules are unchanged and the database
        only grew in the sub-object order (``old ∪ new == new``).  The union
        recurses over the data: seeds too deep for it are not compared, and
        the close runs in full.
        """
        entry = self._bases.pop(key, None)
        if entry is None:
            return None
        self._counters.count("closure_invalidations")
        old_rules, old_seed, evaluator, old_result = entry
        if old_rules != rules_version:
            return None
        try:
            grew = union(old_seed, seed) == seed
        except RecursionError:
            grew = False
        if grew:
            self._counters.count("closure_maintained")
            return evaluator, old_result.value
        return None

    def keep_closure(self, key: Tuple, rules_version: int, seed, evaluator, result) -> None:
        """Keep ``result`` for the guards ``key``, evicting bases first, then LRU."""
        self._closures[key] = (rules_version, seed, evaluator, result)
        while len(self._closures) + len(self._bases) > _CACHE_LIMIT:
            oldest = self._bases or self._closures
            del oldest[next(iter(oldest))]
            self._counters.count("closure_evictions")
