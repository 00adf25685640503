"""repro.api — the public query surface: sessions, prepared queries, cursors.

The paper defines one semantics — ``E(O)`` (Definition 4.2), ``r(O)``
(Definition 4.4) and the closure ``R*(O)`` (Definition 4.6).  This module is
the one way to evaluate it through the optimised stack (the calculus-level
definitions — :func:`repro.calculus.interpretation.interpret`,
:func:`repro.calculus.fixpoint.close` — stay beside it as the oracles tests
compare against), shaped like a classic database client API:

* :func:`connect` opens a :class:`Session` over an in-memory store
  (``connect()``) or a durable WAL-backed store (``connect(path)``);
* :meth:`Session.prepare` parses and cost-optimizes a query **once**,
  returning a :class:`PreparedQuery` whose plan is cached keyed on the
  store's statistics version — re-executions skip parse *and* optimize;
* queries may declare named ``$parameters`` (constants bound at execute
  time), so one prepared plan serves many bindings without re-planning;
* :meth:`PreparedQuery.execute` / :meth:`Session.execute` return a
  :class:`Cursor` that **streams** matches lazily (``for match in cursor``,
  ``cursor.one()``) instead of materialising the full answer, with
  ``cursor.all()`` folding the stream into the classic ``E(O)`` union and
  ``cursor.explain()`` rendering the plan;
* :meth:`Session.register` + :meth:`Session.close` evaluate rule closures;
  plans, index stores and closures belong to one snapshot of the session
  ``version``, replaced whole when a commit (or seed/rule edit) moves it.

Sessions are cheap, single-threaded handles; the underlying
:class:`~repro.store.ObjectDatabase` remains safe for concurrent use, so the
scale-out pattern is one session per worker over one shared database.

Quick use::

    import repro

    with repro.connect() as session:                  # or connect("db.wal")
        session.put("r1", repro.parse_object(
            "{[name: peter, age: 25], [name: john, age: 7]}"))
        ages = session.prepare("[r1: {[name: $who, age: A]}]")
        for match in ages.execute(who="peter"):       # streams lazily
            print(match)
        print(ages.execute(who="john").all())         # the E(O) union
        print(session.cache_info()["plan_hits"])      # 1 — no re-planning
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.builder import obj
from repro.core.errors import (
    ComplexObjectError,
    ConflictError,
    LintError,
    LockTimeout,
    ParameterError,
    QueryTimeout,
    StoreError,
)
from repro.core.lattice import union, union_all
from repro.core.objects import BOTTOM, ComplexObject
from repro.calculus.fixpoint import ClosureResult
from repro.calculus.rules import Rule
from repro.calculus.substitution import Substitution
from repro.calculus.terms import Formula, formula as to_formula
from repro.engine import SemiNaiveEngine
from repro.fault.deadline import Deadline
from repro.lint import lint_query
from repro.lint.diagnostics import new_diagnostic
from repro.lint.shapes import infer_shapes, maybe_subobject
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY as _METRICS
from repro.parser import parse_formula, parse_program
from repro.plan import (
    DatabaseStatistics,
    bind_body_plan,
    compile_body,
    interpret_plan,
    iter_match_plan,
    optimize_body,
)
from repro.plan.explain import execution_record, render_body_plan
from repro.plan.indexes import TargetIndexes
from repro.plan.parameters import validate_parameters
from repro.plan.stats import EngineStats
from repro.store.database import ObjectDatabase
from repro.store.retry import DEFAULT_POLICY, RetryPolicy
from repro.store.storage import FileStorage

__all__ = [
    "ConflictError",
    "Cursor",
    "LintError",
    "LockTimeout",
    "ParameterError",
    "PreparedQuery",
    "QueryTimeout",
    "ReproError",
    "Session",
    "connect",
]

#: The one exception type a caller needs: every error raised by the library
#: derives from it (parse, plan, parameter, schema, store, divergence...).
ReproError = ComplexObjectError

#: Upper bound on per-session cached plans/closures; beyond it the
#: least-recently-used entry is evicted, so a session that rotates through
#: more distinct queries than this re-optimizes only the coldest ones.
_CACHE_LIMIT = 512

#: Keyword options `execute`/`query`/`explain`/`prepare` accept: the target
#: selectors, the semantics flag, and the closure guards forwarded to
#: :meth:`Session.close` when ``on_closure`` is set.  Anything else is a
#: typo and is rejected, mirroring the strict ``$parameter`` policy.
_QUERY_OPTIONS = frozenset(
    {
        "against",
        "on_closure",
        "allow_bottom",
        "max_iterations",
        "max_nodes",
        "max_depth",
        "timeout_ms",
        "batch_size",
    }
)

#: Options that configure the execution itself rather than closure guards;
#: everything else in an options dict is forwarded to :meth:`Session.close`.
_NON_GUARD_OPTIONS = ("against", "on_closure", "allow_bottom", "timeout_ms", "batch_size")

#: What remains: the divergence guards :meth:`Session.close` accepts.
_GUARD_OPTIONS = _QUERY_OPTIONS.difference(_NON_GUARD_OPTIONS)


def _check_options(options: Mapping) -> None:
    unknown = set(options) - _QUERY_OPTIONS
    if unknown:
        raise ReproError(
            f"unknown query option(s) {sorted(unknown)}; valid options:"
            f" {sorted(_QUERY_OPTIONS)}"
        )


def connect(
    path: Optional[str] = None,
    *,
    rules=(),
    slow_query_ms: Optional[float] = None,
    lock_timeout: Optional[float] = None,
) -> "Session":
    """Open a :class:`Session` — the library's front door.

    ``connect()`` gives a private in-memory store; ``connect(path)`` opens
    (or creates) the durable, WAL-backed store at ``path`` — the same log
    format as ``python -m repro store --db-path``.  ``rules`` pre-registers
    a rule program (source text or :class:`~repro.calculus.rules.Rule`
    objects) for :meth:`Session.close`.  ``slow_query_ms`` arms the
    session's slow-query log (see :meth:`Session.slow_queries`).
    ``lock_timeout`` (seconds) bounds every wait for the store's writer
    mutex — commits and the reads that consult path indexes — raising
    :class:`LockTimeout` instead of hanging past it; other reads take no
    lock.
    """
    return Session(
        path,
        rules=rules,
        slow_query_ms=slow_query_ms,
        lock_timeout=lock_timeout,
    )


class _Snapshot:
    """What a session derived from one :attr:`Session.version` of its database.

    The paper evaluates everything against one object ``O`` (Section 4):
    ``state`` is the one committed store state the version was read from
    (every target of the snapshot is read from it), ``plans`` (LRU on
    ``(formula, mode)``), ``indexes`` (one store per target identity; the
    store pins its target, hence the id) and ``closures`` (LRU on the
    guards; ``(rule revision, seed, evaluator, result)``).  ``bases`` holds
    older versions' closures that :meth:`Session.close` may resume from.
    """

    __slots__ = ("state", "version", "plans", "indexes", "closures", "bases")

    def __init__(self, state, version: Optional[Tuple[int, int, int]], bases: Dict[Tuple, Tuple]):
        self.state = state
        self.version = version
        self.plans: "OrderedDict[Tuple, object]" = OrderedDict()
        self.indexes: Dict[int, TargetIndexes] = {}
        self.closures: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self.bases = bases


class Session:
    """One connection: a store, a rule set, and a per-version snapshot.

    A session owns (or wraps) an :class:`~repro.store.ObjectDatabase` and
    funnels **every** evaluation path — prepared queries, ad-hoc queries,
    rule closures and the CLI — through one pipeline::

        parse → compile (cached) → optimize (cached per version)
              → bind $parameters → stream

    Target selection, the plan cache and parameter binding are one private
    step (:meth:`_resolve`) shared by execution and EXPLAIN, so EXPLAIN
    renders the plan that runs.  Plans, index stores and closures live in
    one snapshot of the session :attr:`version` (store commits plus the
    session's own seed/rule revisions), which :meth:`_current` reads once
    per call and replaces whole when it moved.  So re-executing a
    :class:`PreparedQuery` on an unchanged store skips parse and optimize
    entirely (watch ``cache_info()["plan_hits"]``).  Each resolved target
    gets one index store (:class:`~repro.plan.indexes.TargetIndexes`) per
    version: a bound ``$parameter`` or an already-bound join variable
    probes it at every scan leaf, and a bucket is built the first time it
    is probed.

    Sessions are **not** thread-safe; the underlying database is.  Use one
    session per thread over a shared database.  ``lock_timeout`` (seconds)
    bounds the waits for the store's writer mutex, as in :func:`connect`.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        database: Optional[ObjectDatabase] = None,
        rules=(),
        seed=None,
        slow_query_ms: Optional[float] = None,
        lock_timeout: Optional[float] = None,
    ):
        if database is not None:
            self._db = database
            self._owns_db = False
        else:
            storage = FileStorage(path) if path is not None else None
            self._db = ObjectDatabase(storage, lock_timeout=lock_timeout)
            self._owns_db = True
        self._rules: List[Rule] = []
        self._rules_version = 0
        self._seed: ComplexObject = BOTTOM
        # Seeded sessions evaluate against the seed object — even when it is
        # ⊥ (an empty database is ⊥, not the empty store's [] snapshot);
        # unseeded sessions evaluate against the store.
        self._seeded = False
        self._seed_version = 0
        self._snapshot = _Snapshot(None, None, {})
        # Prepare-time lint reports, keyed on (source text, rules version):
        # reports are frozen, so re-preparing the same query re-attaches the
        # same diagnostics without re-running the analysis (the ≤1.10x
        # prepare budget benchmarks/run_lint_benchmarks.py pins).
        self._lint_reports: "OrderedDict[Tuple, object]" = OrderedDict()
        self._counters = {
            "plan_hits": 0,
            "plan_misses": 0,
            "plan_evictions": 0,
            "plan_invalidations": 0,
            "closure_hits": 0,
            "closure_misses": 0,
            "closure_evictions": 0,
            "closure_invalidations": 0,
            "closure_maintained": 0,
            "prepared_queries": 0,
        }
        self._slow_query_ms = slow_query_ms
        self._slow_log: "deque" = deque(maxlen=32)
        self._last_query_stats: Optional[EngineStats] = None
        self._last_closure_stats: Optional[EngineStats] = None
        if seed is not None:
            self.seed_object(seed)
        if rules:
            self.register(rules)

    # -- constructors ------------------------------------------------------------------
    @classmethod
    def over_object(cls, value, rules=()) -> "Session":
        """An in-memory session whose database *is* one complex object.

        This is how the CLI evaluates against an inline object: the object
        seeds the session and queries run against it directly, no store
        writes involved.
        """
        return cls(seed=value, rules=rules)

    @classmethod
    def over_program(cls, program) -> "Session":
        """An in-memory session seeded from a :class:`~repro.program.Program`."""
        session = cls()
        session._rules = list(program.facts) + list(program.rules)
        session._seed = program.database
        session._seeded = True
        return session

    # -- store passthrough --------------------------------------------------------------
    @property
    def database(self) -> ObjectDatabase:
        """The underlying object database (indexes, schemas, transactions...)."""
        return self._db

    @property
    def version(self) -> Tuple[int, int, int]:
        """The cache key revision: (store commits, seed edits, rule edits)."""
        return (self._db.version, self._seed_version, self._rules_version)

    def put(self, name: str, value) -> ComplexObject:
        """Store an object under ``name`` (commits, bumping the version)."""
        return self._db.put(name, value)

    def get(self, name: str, default=None) -> Optional[ComplexObject]:
        """The object stored under ``name`` (or ``default``)."""
        return self._db.get(name, default)

    def remove(self, name: str) -> None:
        """Delete the object stored under ``name`` (no error when absent)."""
        self._db.remove(name)

    def names(self) -> Tuple[str, ...]:
        """The stored names, sorted."""
        return self._db.names()

    def compact(self) -> None:
        """Compact the store's log (WAL-backed sessions)."""
        self._db.compact()

    # -- seeding and rules ---------------------------------------------------------------
    def seed_object(self, value) -> "Session":
        """Union ``value`` into the session's seed object (outside the store).

        The seed participates in every whole-database query and closure the
        session runs, without being committed to storage — the vehicle for
        evaluating against transient objects (the CLI's ``--database``).
        """
        converted = obj(value)
        self._seed = converted if self._seed is BOTTOM else union(self._seed, converted)
        self._seeded = True
        self._seed_version += 1
        return self

    def register(self, rules) -> "Session":
        """Register rules/facts (source text, Rule(s) or a RuleSet) for :meth:`close`."""
        if isinstance(rules, str):
            parsed = parse_program(rules)
        elif isinstance(rules, Rule):
            parsed = [rules]
        else:
            parsed = list(rules)
        for rule in parsed:
            if not isinstance(rule, Rule):
                raise TypeError(f"not a rule: {rule!r}")
        self._rules.extend(parsed)
        self._rules_version += 1
        return self

    @property
    def rules(self) -> Tuple[Rule, ...]:
        """The registered rules and facts, in registration order."""
        return tuple(self._rules)

    def program(self):
        """The registered rules and the current database as a :class:`Program`."""
        return self._program(self._current())

    def _program(self, snapshot: "_Snapshot"):
        # Same layer, deferred one way: repro.program builds on Session.
        from repro.program import Program

        return Program(self._rules, database=self._base_object(snapshot))

    # -- the query pipeline --------------------------------------------------------------
    def prepare(self, query, *, lint: str = "warn", **options) -> "PreparedQuery":
        """Parse and remember a query for repeated execution.

        ``query`` is source text in the paper's notation (which may contain
        ``$name`` parameter slots) or a :class:`Formula`.  ``options`` fix
        the execution target for every run of the prepared query — the same
        keywords :meth:`execute` takes (``against=``, ``on_closure=``,
        ``allow_bottom=`` and closure guards).

        ``lint`` runs :func:`repro.lint.lint_query` over the parsed formula:
        ``"warn"`` (the default) attaches the findings as
        :attr:`PreparedQuery.diagnostics`; ``"strict"`` additionally raises
        :class:`LintError` when the report has errors *or* warnings;
        ``"off"`` skips the analysis.  The pass is statistics-free (no walk
        of the database), so preparing stays cheap.
        """
        if lint not in ("warn", "strict", "off"):
            raise ReproError(
                f'lint must be "warn", "strict" or "off", got {lint!r}'
            )
        with _trace.span("session.prepare") as span:
            _check_options(options)
            parsed = self._as_formula(query)
            source = query if isinstance(query, str) else parsed.to_text()
            diagnostics: Tuple = ()
            param_shapes: Tuple = ()
            if lint != "off":
                lint_key = (source, self._rules_version)
                entry = self._lint_reports.get(lint_key)
                if entry is None:
                    report = lint_query(parsed, rules=self._rules)
                    # Also record the inferred shape of every ``$parameter``
                    # slot — the join of every object derivable at its
                    # position — so each execution can refute
                    # shape-impossible bindings (RL204) before touching the
                    # database.  Gated on a grounded program: without facts
                    # the analysis has no derivable objects to bound the
                    # slots with.
                    slots: Tuple = ()
                    if parsed.parameters():
                        shapes = infer_shapes(tuple(self._rules))
                        if shapes.grounded:
                            slots = tuple(
                                sorted(shapes.query(parsed).param_slots().items())
                            )
                    entry = (report, slots)
                    if len(self._lint_reports) >= 256:
                        self._lint_reports.popitem(last=False)
                    self._lint_reports[lint_key] = entry
                report, param_shapes = entry
                diagnostics = report.diagnostics
                if lint == "strict" and not report.ok(strict=True):
                    raise LintError(
                        f"query failed strict lint ({report.errors} error(s),"
                        f" {report.warnings} warning(s)): {source}",
                        diagnostics,
                    )
            self._counters["prepared_queries"] += 1
            _METRICS.counter("session.prepared_queries").inc()
            trace_id = None
            if span.enabled:
                span.set(query=source, parameters=len(parsed.parameters()))
                trace_id = span.trace_id
            return PreparedQuery(
                self, source, parsed, options,
                trace_id=trace_id, diagnostics=diagnostics,
                lint=lint, param_shapes=param_shapes,
            )

    def execute(self, query, params: Optional[Mapping] = None, **options) -> "Cursor":
        """Run a query and return a streaming :class:`Cursor` over its matches.

        ``query`` may be source text, a :class:`Formula` or a
        :class:`PreparedQuery`; ``params`` binds its ``$parameters``.
        Keyword options:

        ``against=name``
            evaluate against one stored object instead of the whole database;
        ``on_closure=True``
            evaluate against the closure of the database under the
            registered rules (computed through :meth:`close`, hence cached);
        ``allow_bottom=True``
            the literal Definition 4.2 semantics (keep ⊥ bindings);
        guards (``max_iterations=``, ``max_nodes=``, ``max_depth=``)
            forwarded to :meth:`close` when ``on_closure`` is set;
        ``timeout_ms=``
            a cooperative wall-clock deadline over the whole execution
            (closure evaluation included): past it, the query raises
            :class:`QueryTimeout` carrying the elapsed time and a partial
            EXPLAIN of the work already done.
        """
        link = None
        if isinstance(query, PreparedQuery):
            # Options fixed at prepare time are defaults; the span links back
            # to the prepare that built the query.
            options = {**query.options, **options}
            query, link = query.formula, query.trace_id
        formula = self._as_formula(query)
        _check_options(options)
        start_ns = time.perf_counter_ns()
        _METRICS.counter("session.queries").inc()
        run_stats = EngineStats()
        span = _trace.span("session.execute")
        with span:
            trace_id = None
            if span.enabled:
                span.set(query=formula.to_text())
                if link is not None:
                    span.set(prepared_from=link)
                trace_id = span.trace_id
            values = self._convert_params(formula, params or {})
            timeout_ms = options.get("timeout_ms")
            if timeout_ms is not None and not (
                isinstance(timeout_ms, (int, float)) and timeout_ms > 0
            ):
                raise ReproError(
                    f"timeout_ms must be a positive number, got {timeout_ms!r}"
                )
            deadline = Deadline.start(timeout_ms) if timeout_ms is not None else None
            batch_size = options.get("batch_size")
            if batch_size is not None and not (
                isinstance(batch_size, int)
                and not isinstance(batch_size, bool)
                and batch_size > 0
            ):
                raise ReproError(
                    f"batch_size must be a positive integer, got {batch_size!r}"
                )
            access, notes, target, plan, indexes = self._resolve(
                formula, values, options, deadline=deadline
            )
            if span.enabled:
                span.set(access=access)
            return Cursor(
                plan,
                target,
                indexes,
                allow_bottom=options.get("allow_bottom", False),
                notes=notes,
                stats=run_stats,
                on_finish=self._query_finisher(
                    formula, values, run_stats, start_ns, trace_id
                ),
                deadline=deadline,
                batch_size=batch_size,
            )

    def query(self, query, params: Optional[Mapping] = None, **options) -> ComplexObject:
        """Run a query and materialize the full answer — ``E(O)`` of Definition 4.2."""
        return self.execute(query, params, **options).all()

    def explain(
        self,
        query,
        params: Optional[Mapping] = None,
        *,
        analyze: bool = False,
        **options,
    ) -> str:
        """EXPLAIN for :meth:`execute`: the chosen access path and plan.

        Renders the plan :meth:`execute` runs with the same arguments — both
        take it from the one resolve-and-plan step and its plan cache — with
        the actual rows per plan node from one run of it, probing the same
        index store, so each scan leaf shows the access it really got
        (``probed ... → n candidates`` / ``scanned n``) beside the estimate.
        ``analyze=True`` is EXPLAIN ANALYZE: the run is timed and the
        rendering adds wall time per plan node next to the optimizer's
        estimates.  EXPLAIN never moves the store's ``access_stats``.
        """
        if isinstance(query, PreparedQuery):
            options = {**query.options, **options}
            query = query.formula
        formula = self._as_formula(query)
        _check_options(options)
        values = self._convert_params(formula, params or {})
        _, notes, target, plan, indexes = self._resolve(
            formula, values, options, counted=False
        )
        return _render_explain(
            notes, plan, target, indexes, options.get("allow_bottom", False), analyze
        )

    # -- closures -----------------------------------------------------------------------
    def close(self, *, deadline=None, **guards) -> ClosureResult:
        """The closure of the database under the registered rules (cached).

        This is the paper's ``R*(O)`` (Definition 4.6) — *not* a resource
        release; sessions are torn down with :meth:`shutdown` (or by leaving
        their ``with`` block).  The result is cached keyed on the session
        :attr:`version`, so repeated calls after unchanged commits are free.

        A commit makes the cached closure stale but not useless.  While the
        rules are unchanged and the database only *grew* in the sub-object
        order (``old ∪ new == new`` — any mix of ``put``, ``transact`` and
        ``seed_object`` that loses nothing), the engine resumes from the
        cached closure and runs delta rounds over the new elements only:
        sound because rule application is monotone (Lemma 4.1) and the cached
        closure is closed, so a match without a new set witness derives
        nothing new.  A retraction or a :meth:`register` recomputes from
        scratch.  ``iterations`` and ``stats`` of the result then describe
        the work of this evaluation (the delta), not of the whole closure.

        ``iterations`` and the ``max_iterations`` guard count the engine's
        rounds summed over recursive strata (see
        :meth:`repro.program.Program.evaluate`), not the global rounds of
        the oracle :func:`repro.calculus.fixpoint.close`.

        ``deadline`` — a :class:`repro.fault.Deadline` — bounds the
        evaluation (checked at engine round boundaries; raises
        :class:`QueryTimeout` with the partial closure attached).  It is
        deliberately *not* part of the cache key: a closure that completed
        within any deadline is the correct closure, a cached hit is returned
        instantly, and an evaluation that fails (timeout, divergence guard)
        caches nothing and drops the stale entry it started from.
        """
        unknown = set(guards) - _GUARD_OPTIONS
        if unknown:
            raise TypeError(f"close() got unexpected option(s) {sorted(unknown)}")
        key = tuple(sorted(guards.items()))
        snapshot = self._current()
        entry = snapshot.closures.get(key)
        if entry is not None:
            self._counters["closure_hits"] += 1
            _METRICS.counter("session.closure_cache.hits").inc()
            snapshot.closures.move_to_end(key)
            return entry[3]
        # A resumed run mutates the base's indexes: the base is gone until
        # the run completes, so an aborted one leaves none.
        entry = snapshot.bases.pop(key, None)
        if entry is not None:
            self._counters["closure_invalidations"] += 1
            _METRICS.counter("session.closure_cache.invalidations").inc()
        self._counters["closure_misses"] += 1
        _METRICS.counter("session.closure_cache.misses").inc()
        start_ns = time.perf_counter_ns()
        with _trace.span("session.close") as span:
            program = self._program(snapshot)
            seed = program.seed()
            resume = {}
            if entry is not None:
                old_rules, old_seed, evaluator, old_result = entry
                if old_rules == self._rules_version and union(old_seed, seed) == seed:
                    resume = {"previous": old_result.value}
                    evaluator.deadline = deadline
                    self._counters["closure_maintained"] += 1
                    _METRICS.counter("session.closure_cache.maintained").inc()
            if not resume:
                evaluator = SemiNaiveEngine(program.rules, deadline=deadline, **guards)
            if span.enabled:
                span.set(
                    engine=evaluator.name,
                    rules=len(self._rules),
                    mode="delta" if resume else "full",
                )
            result = evaluator.run(seed, **resume)
        _METRICS.histogram("session.closure_ns").observe(
            time.perf_counter_ns() - start_ns
        )
        self._last_closure_stats = result.stats
        snapshot.closures[key] = (self._rules_version, seed, evaluator, result)
        while len(snapshot.closures) + len(snapshot.bases) > _CACHE_LIMIT:
            oldest = snapshot.bases or snapshot.closures
            del oldest[next(iter(oldest))]
            self._counters["closure_evictions"] += 1
            _METRICS.counter("session.closure_cache.evictions").inc()
        return result

    def close_under(self, rules, **options) -> ClosureResult:
        """One-shot closure under ad-hoc ``rules`` (delegates to the store)."""
        return self._db.close_under(rules, **options)

    # -- transactions -------------------------------------------------------------------
    def transact(self, work, *, retry: Optional[RetryPolicy] = None):
        """Run ``work(txn)`` in a transaction, retrying write-write conflicts.

        Opens a fresh :class:`~repro.store.transactions.Transaction`, calls
        ``work`` with it, and commits on normal return.  A commit rejected
        with :class:`ConflictError` (another writer won the race) re-runs
        ``work`` against the new state under ``retry`` — a
        :class:`~repro.store.retry.RetryPolicy` with jittered exponential
        backoff, defaulting to the store's bounded default policy — so the
        classic optimistic read-modify-write loop is one call::

            session.transact(lambda txn: txn.put("n", compute(txn.get("n"))))

        ``work`` must be safe to re-run (it may execute several times) and
        its last return value is returned.  Exhausting the policy re-raises
        the final :class:`ConflictError`; any other exception aborts the
        transaction and propagates immediately.
        """
        def attempt():
            with self._db.transaction() as txn:
                return work(txn)

        return (retry or DEFAULT_POLICY).run(attempt)

    # -- cache bookkeeping ----------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Counters: plan/closure cache hits, misses, evictions, invalidations.

        Every counter is **cumulative over the session's lifetime** — hits
        and misses are never reset when entries are evicted or invalidated;
        those events have their own monotonic counters (``plan_evictions``,
        ``plan_invalidations`` and the closure equivalents) so deltas between
        two reads are always meaningful.  ``plan_invalidations`` counts the
        plans dropped when the :attr:`version` moved, asked for again or
        not; ``closure_maintained`` counts the closure invalidations
        :meth:`close` resumed from an older version's closure instead of
        recomputing (each is also a miss).  ``plans_cached`` /
        ``closures_cached`` / ``indexes_cached`` are gauges: the current
        version's plans, the closures kept (older ones included, as resume
        bases) and the ``(set path, key path)`` bucket tables probes have
        built at the current version.
        """
        snapshot = self._current()
        info = dict(self._counters)
        info["plans_cached"] = len(snapshot.plans)
        info["closures_cached"] = len(snapshot.closures) + len(snapshot.bases)
        info["indexes_cached"] = self._index_entries()
        return info

    def stats(self) -> Dict[str, Optional[EngineStats]]:
        """The engine stats of the session's most recent executions.

        ``"query"`` is the :class:`~repro.plan.stats.EngineStats` record of
        the last fully-consumed query cursor (match attempts, index hits,
        substitutions...); ``"closure"`` is the record of the last closure
        evaluation (``result.stats`` of the engine run — after a maintained
        :meth:`close`, of the delta rounds alone).  Either is ``None``
        until the corresponding path has run.  Use ``.summary()`` on a record
        for the human-readable one-liner.
        """
        return {"query": self._last_query_stats, "closure": self._last_closure_stats}

    def slow_queries(self) -> List[dict]:
        """The slow-query log (most recent last; empty unless armed).

        Armed with ``Session(slow_query_ms=...)`` / ``connect(...,
        slow_query_ms=...)``: every query whose total wall time — planning
        through cursor exhaustion — reaches the threshold is recorded with
        its query text, bound parameter values, elapsed milliseconds, row
        count, and (when tracing is enabled) its trace id and rendered trace.
        The log keeps the 32 most recent entries.
        """
        return list(self._slow_log)

    # -- lifecycle ------------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release the session: drop caches and close an owned store."""
        self._snapshot = _Snapshot(None, None, {})
        if self._owns_db:
            self._db.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        backend = "memory" if self._db._storage is None else "wal"
        return (
            f"<Session {backend} store, {len(self._db.names())} objects,"
            f" {len(self._rules)} rules, {len(self._snapshot.plans)} cached plans>"
        )

    # -- internals ------------------------------------------------------------------------
    @staticmethod
    def _as_formula(query) -> Formula:
        if isinstance(query, Formula):
            return query
        if isinstance(query, str):
            return parse_formula(query)
        return to_formula(query)

    def _convert_params(self, formula: Formula, params: Mapping) -> Dict[str, ComplexObject]:
        provided = {name: obj(value) for name, value in params.items()}
        validate_parameters(formula.parameters(), provided)
        return provided

    def _base_object(self, snapshot: "_Snapshot") -> ComplexObject:
        """The whole database as one object: ``snapshot``'s state joined with the seed.

        A seeded session over an empty store *is* its seed — in particular ⊥
        when seeded with ⊥ (the paper's empty database), never the empty
        store's ``[]`` snapshot, so the oracle's ``interpret(f, BOTTOM)`` /
        ``Program(database=BOTTOM)`` semantics are preserved exactly.
        """
        state = snapshot.state
        if self._seeded:
            if len(state) == 0:
                return self._seed
            return union(state.as_object(), self._seed)
        return state.as_object()

    def _resolve(self, formula, values, options, *, deadline=None, counted=True):
        """The one resolve-and-plan step behind execute, EXPLAIN and cursors.

        Options and bound ``$parameter`` values in, ``(access, notes, target,
        plan, indexes)`` out: ``access`` names the path taken (``against``
        one stored object, the cached ``closure``, the ``seed``-ed object, or
        the store's ``pushdown`` / ``snapshot`` / ``refuted`` decision), ``notes``
        are the lines EXPLAIN prints for it, ``target`` is the object the
        plan runs against — ``None`` when a path index refuted the query,
        which then runs nothing — ``plan`` is the bound plan out of the
        session's one plan cache, and ``indexes`` is the target's index
        store (:meth:`_indexes_for`), which the plan's scan leaves probe.  A
        :class:`Cursor` executes exactly this ``(target, plan, indexes)``
        and EXPLAIN renders it.

        ``deadline`` bounds an ``on_closure`` evaluation (usually the
        expensive part of such a query); ``counted=False`` is EXPLAIN, which
        must not move the store's ``access_stats``.
        """
        snapshot = self._current()
        allow_bottom = bool(options.get("allow_bottom", False))
        against = options.get("against")
        notes: List[str] = []
        if against is not None:
            target = snapshot.state.get(against)
            if target is None:
                raise StoreError(f"no object stored under {against!r}")
            mode: Tuple = ("against", against)
            notes.append(f"target: stored object {against!r}")
        elif options.get("on_closure"):
            guards = {
                name: value
                for name, value in options.items()
                if name not in _NON_GUARD_OPTIONS
            }
            target = self.close(deadline=deadline, **guards).value
            mode = ("closure",)
        elif self._seeded:
            target = self._base_object(snapshot)
            # Strict matching over the seeded object plans with closed-world
            # shapes (see _plan_for), so the semantics flag keys the plan.
            mode = ("seed", allow_bottom)
        else:
            # Store-backed whole-database execution.  The store's refutation
            # probe reads a binding of the *parameterized* compiled plan
            # (cached-optimized when available, else the compile-memoized
            # source order — leaf order is irrelevant to refutation), so no
            # bound formula is ever compiled: distinct parameter values,
            # refuted or not, cannot churn the global compile cache.
            cached = self._cached_plan(snapshot, formula, ("db",))
            plan = bind_body_plan(
                cached if cached is not None else compile_body(formula), values
            )
            access, note, target = self._db.access_path(
                formula, plan.leaves, state=snapshot.state,
                allow_bottom=allow_bottom, counted=counted,
            )
            if target is not None and cached is None:
                plan = bind_body_plan(self._plan_for(snapshot, formula, ("db",), target), values)
            return access, [note], target, plan, self._indexes_for(snapshot, target)
        plan = self._cached_plan(snapshot, formula, mode)
        if plan is None:
            plan = self._plan_for(snapshot, formula, mode, target)
        return (
            mode[0], notes, target, bind_body_plan(plan, values),
            self._indexes_for(snapshot, target),
        )

    def _current(self) -> "_Snapshot":
        """The snapshot of the current :attr:`version` — the one place it is read.

        One call takes one committed store state (``ObjectDatabase.state``);
        the version is read from it and the snapshot keeps it, so every
        target a call reads — ``against``, the whole-database object, the
        store's access path — comes from the same commit as the version,
        whatever commits land meanwhile.  When the version moved, the old
        snapshot is replaced in one transition: its plans count as
        invalidated, its index stores go, and its closures become bases
        :meth:`close` may resume from.
        """
        state = self._db.state()
        version = (state.version, self._seed_version, self._rules_version)
        snapshot = self._snapshot
        if snapshot.version != version:
            dropped = len(snapshot.plans)
            self._counters["plan_invalidations"] += dropped
            _METRICS.counter("session.plan_cache.invalidations").inc(dropped)
            _METRICS.gauge("session.index.entries").set(0)
            snapshot = self._snapshot = _Snapshot(
                state, version, {**snapshot.bases, **snapshot.closures}
            )
        return snapshot

    def _indexes_for(self, snapshot: "_Snapshot", target) -> Optional[TargetIndexes]:
        """The index store of ``target`` in ``snapshot``: one per target per version.

        Targets are immutable, so a store is never refreshed — it goes with
        its snapshot.  A live cursor keeps its own reference, exactly as it
        keeps its target.
        """
        if target is None:
            return None
        indexes = snapshot.indexes.get(id(target))
        if indexes is None:
            indexes = snapshot.indexes[id(target)] = TargetIndexes(
                target, self._index_build
            )
        return indexes

    def _index_entries(self) -> int:
        return sum(indexes.entries for indexes in self._snapshot.indexes.values())

    def _index_build(self, set_path, key_path, elements: int):
        """Count one first-probe bucket build; returns the span it runs under."""
        _METRICS.counter("session.index.builds").inc()
        _METRICS.gauge("session.index.entries").set(self._index_entries())
        span = _trace.span("session.index.build")
        if span.enabled:
            span.set(
                set_path=str(set_path) or "<root>",
                key_path=str(key_path) or "<element>",
                elements=elements,
            )
        return span

    def _plan_for(self, snapshot: "_Snapshot", formula: Formula, mode: Tuple, target):
        """Optimize ``formula`` for ``target`` and cache it in ``snapshot``.

        Runs on a plan-cache miss only.  Compilation is already memoized on
        the formula; what the cache saves is the statistics walk plus the
        cost-based reordering — the expensive per-execution work a
        :class:`PreparedQuery` exists to skip.
        """
        self._counters["plan_misses"] += 1
        _METRICS.counter("session.plan_cache.misses").inc()
        shapes = None
        if mode == ("seed", False):
            # Closed-world shape inference over the actual seeded object: a
            # provably-empty body is pruned (the executor answers it without
            # scanning) and EXPLAIN shows each leaf's inferred element shape.
            shapes = infer_shapes(tuple(self._rules), target)
        plan = optimize_body(
            compile_body(formula), DatabaseStatistics.collect(target), shapes
        )
        snapshot.plans[(formula, mode)] = plan
        while len(snapshot.plans) > _CACHE_LIMIT:
            snapshot.plans.popitem(last=False)
            self._counters["plan_evictions"] += 1
            _METRICS.counter("session.plan_cache.evictions").inc()
        return plan

    def _cached_plan(self, snapshot: "_Snapshot", formula: Formula, mode: Tuple):
        """The plan ``snapshot`` holds for ``(formula, mode)``, or ``None``."""
        plan = snapshot.plans.get((formula, mode))
        if plan is not None:
            self._counters["plan_hits"] += 1
            _METRICS.counter("session.plan_cache.hits").inc()
            snapshot.plans.move_to_end((formula, mode))
        return plan

    def _query_finisher(self, formula, values, run_stats, start_ns, trace_id):
        """The callback a :class:`Cursor` fires once, when fully consumed.

        Observes the query's total wall time (planning through exhaustion),
        publishes the run's :class:`EngineStats` as :meth:`stats`, and
        appends to the slow-query log when the session is armed.
        """

        def finish(rows: int) -> None:
            elapsed_ns = time.perf_counter_ns() - start_ns
            self._last_query_stats = run_stats
            _METRICS.histogram("session.query_ns").observe(elapsed_ns)
            if run_stats.index_hits:
                _METRICS.counter("session.index.probes").inc(run_stats.index_hits)
            threshold = self._slow_query_ms
            if threshold is None or elapsed_ns < threshold * 1e6:
                return
            _METRICS.counter("session.slow_queries").inc()
            entry = {
                "query": formula.to_text(),
                "params": {
                    name: value.to_text() for name, value in values.items()
                },
                "elapsed_ms": elapsed_ns / 1e6,
                "rows": rows,
                "trace_id": trace_id,
            }
            tracer = _trace.current_tracer()
            if tracer is not None and trace_id is not None:
                root = tracer.find(trace_id)
                if root is not None:
                    entry["trace"] = _trace.render_span(root)
            self._slow_log.append(entry)

        return finish


def _render_explain(
    notes, plan, target, indexes, allow_bottom: bool, analyze: bool
) -> str:
    """EXPLAIN (ANALYZE) of one resolved ``(notes, plan, target, indexes)``.

    The plan is run once, apart from any cursor's stream but probing the
    same index store, to collect actual rows and accesses (and times under
    ``analyze``); a refuted query (``target is None``) runs nothing and
    shows the unexecuted plan.
    """
    record = None
    if target is not None:
        record = execution_record(
            plan, target, indexes=indexes, allow_bottom=allow_bottom, timed=analyze
        )
    rendered = render_body_plan(
        plan, record=record, header=f"query plan: {plan.body.to_text()}"
    )
    return "\n".join([*notes, rendered])


class PreparedQuery:
    """A parsed, cost-optimized query awaiting parameter values.

    Created by :meth:`Session.prepare`.  Holds the parsed formula (with its
    ``$parameter`` slots) and the execution options fixed at prepare time;
    each :meth:`execute` binds values into the session's cached plan — on an
    unchanged store that is a dictionary lookup plus a structural
    substitution, no parsing and no optimization.
    """

    __slots__ = (
        "_session", "source", "formula", "options", "trace_id", "diagnostics",
        "_lint", "_param_shapes",
    )

    def __init__(
        self,
        session: Session,
        source: str,
        formula: Formula,
        options: dict,
        trace_id: Optional[str] = None,
        diagnostics: Tuple = (),
        lint: str = "warn",
        param_shapes: Tuple = (),
    ):
        self._session = session
        self.source = source
        self.formula = formula
        self.options = options
        #: The trace id of the ``session.prepare`` span that built this
        #: query (``None`` when tracing was off); every execution span links
        #: back to it as ``prepared_from``.
        self.trace_id = trace_id
        #: The :class:`repro.lint.Diagnostic` findings of the prepare-time
        #: lint pass (empty under ``lint="off"`` or a clean query).
        self.diagnostics = tuple(diagnostics)
        self._lint = lint
        self._param_shapes = tuple(param_shapes)

    @property
    def parameters(self):
        """The ``$parameter`` names the query declares."""
        return self.formula.parameters()

    @property
    def param_shapes(self) -> Dict[str, object]:
        """Inferred slot :class:`~repro.lint.shapes.Shape` per ``$parameter``.

        Computed once at prepare time from the registered program (empty
        under ``lint="off"``, for parameter-free queries, or when the
        program has no facts to ground the analysis).  Each execution
        checks its bound values against these slots — a value no derivable
        object can match is RL204: counted under ``lint="warn"``, a
        :class:`LintError` under ``lint="strict"``.
        """
        return dict(self._param_shapes)

    def _check_shapes(self, merged: Mapping) -> None:
        """Refute shape-impossible parameter bindings (RL204) at bind time."""
        if not self._param_shapes:
            return
        findings = []
        for name, slot in self._param_shapes:
            if name not in merged:
                continue
            try:
                value = obj(merged[name])
            except (ComplexObjectError, TypeError):
                continue  # conversion problems surface via validation
            if maybe_subobject(value, slot):
                continue
            findings.append(
                new_diagnostic(
                    "RL204",
                    message=(
                        f"${name} is bound to {value.to_text()} but every"
                        f" derivable object at its slot has shape"
                        f" {slot.describe()}, so the query returns nothing"
                    ),
                    formula=f"${name}",
                )
            )
        if not findings:
            return
        for finding in findings:
            _METRICS.counter("lint.warnings").inc()
            _METRICS.counter(f"lint.code.{finding.code}").inc()
        if self._lint == "strict":
            raise LintError(
                f"parameter values failed strict shape check"
                f" ({len(findings)} finding(s)): {self.source}",
                tuple(findings),
            )

    def execute(self, params: Optional[Mapping] = None, **kwparams) -> "Cursor":
        """Execute with ``params`` (a mapping, and/or keyword arguments)."""
        merged = dict(params or {})
        merged.update(kwparams)
        self._check_shapes(merged)
        return self._session.execute(self, merged)

    def one(self, params: Optional[Mapping] = None, **kwparams) -> ComplexObject:
        """First matching instantiation (⊥ when nothing matches)."""
        return self.execute(params, **kwparams).one()

    def all(self, params: Optional[Mapping] = None, **kwparams) -> ComplexObject:
        """The materialized answer — ``E(O)`` of Definition 4.2."""
        return self.execute(params, **kwparams).all()

    def explain(
        self, params: Optional[Mapping] = None, *, analyze: bool = False, **kwparams
    ) -> str:
        """EXPLAIN of one execution (``analyze=True`` for EXPLAIN ANALYZE)."""
        merged = dict(params or {})
        merged.update(kwparams)
        return self._session.explain(self, merged, analyze=analyze)

    def __repr__(self) -> str:
        names = ", ".join(sorted(self.parameters)) or "none"
        return f"<PreparedQuery {self.source!r} parameters: {names}>"


class Cursor:
    """A lazy stream of query matches.

    Iterating yields the deduplicated matching instantiations ``σE`` of
    Definition 4.2 one at a time, in the executor's order, computing each
    only when asked — ``.one()`` pays for a single match even when the full
    answer is large.  The terminal operations:

    * :meth:`one` — the next match, ⊥ when the stream is exhausted;
    * :meth:`all` — drain and fold into the union ``E(O)`` (every match the
      cursor ever produced participates, so ``all()`` after partial
      iteration still returns the complete answer);
    * :meth:`bindings` — the raw variable :class:`Substitution` stream;
    * :meth:`explain` — the plan this cursor executes, against the target and
      index store it was resolved to (later commits do not change the
      rendering).

    A cursor is single-pass: it consumes its substitution stream once,
    shared by all of the above.  Re-execute the prepared query for a fresh
    cursor.
    """

    def __init__(
        self,
        plan,
        target: Optional[ComplexObject],
        indexes: Optional[TargetIndexes],
        *,
        allow_bottom: bool = False,
        notes=(),
        stats=None,
        on_finish=None,
        deadline=None,
        batch_size: Optional[int] = None,
    ):
        # What Session._resolve decided: the bound plan, the object it runs
        # against (``None``: a path index refuted the query, nothing runs),
        # the index store its scan leaves probe (the cursor's own reference:
        # it outlives the session's when a commit intervenes, like the
        # target) and the access-path lines EXPLAIN prints above the plan.
        self._plan = plan
        self._target = target
        self._indexes = indexes
        self._notes = tuple(notes)
        self._allow_bottom = allow_bottom
        self._stats = stats
        self._on_finish = on_finish
        self._deadline = deadline
        self._finished = False
        self._started = False
        if target is None:
            self._substitutions: Iterator[Substitution] = iter(())
        else:
            # ``batch_size`` tunes the vector executor's streaming chunk
            # ramp (repro.plan.execute.DEFAULT_BATCH_SIZE when None);
            # ``batch_size=1`` degenerates to one-partial-at-a-time.
            self._substitutions = iter_match_plan(
                plan, target, indexes=indexes, allow_bottom=allow_bottom,
                stats=stats, deadline=deadline, batch_size=batch_size,
            )
        self._seen = set()
        self._matches: List[ComplexObject] = []
        # Substitutions :meth:`bindings` handed out and nobody has asked to
        # see instantiated yet.
        self._deferred: List[Substitution] = []
        self._result: Optional[ComplexObject] = None

    def _finish(self, rows: Optional[int] = None) -> None:
        """Fire the completion callback exactly once, at stream exhaustion."""
        if self._finished:
            return
        self._finished = True
        if self._on_finish is not None:
            if rows is None:
                rows = len(self._matches) + len(self._deferred)
            self._on_finish(rows)

    def _remember(self, substitution: Substitution) -> Optional[ComplexObject]:
        """Instantiate the body; the match if it is new, ``None`` if seen."""
        instantiation = substitution.apply(self._plan.body)
        if instantiation in self._seen:
            return None
        self._seen.add(instantiation)
        self._matches.append(instantiation)
        return instantiation

    def _absorb_deferred(self) -> None:
        """Instantiate what :meth:`bindings` streamed, in stream order."""
        if self._deferred:
            deferred, self._deferred = self._deferred, []
            for substitution in deferred:
                self._remember(substitution)

    # -- streaming --------------------------------------------------------------------
    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> ComplexObject:
        self._started = True
        self._absorb_deferred()
        for substitution in self._substitutions:
            instantiation = self._remember(substitution)
            if instantiation is not None:
                return instantiation
        self._finish()
        raise StopIteration

    def bindings(self) -> Iterator[Substitution]:
        """Stream the raw substitutions (each still counts toward :meth:`all`).

        Nothing is instantiated per row: the substitutions are kept, and the
        body is instantiated (and deduplicated) only if :meth:`all` or
        iteration asks for matches later.
        """
        self._started = True
        for substitution in self._substitutions:
            self._deferred.append(substitution)
            yield substitution
        self._finish()

    # -- terminals --------------------------------------------------------------------
    def one(self) -> ComplexObject:
        """The next match, or ⊥ when the stream is exhausted."""
        try:
            return next(self)
        except StopIteration:
            return BOTTOM

    def all(self) -> ComplexObject:
        """Drain the stream and union every match: ``E(O)`` (⊥ when empty)."""
        if self._result is None:
            if not self._started and self._target is not None:
                # Nothing consumed yet: the batch executor computes the same
                # union without the per-row generator machinery (the common
                # ``Session.query`` path).  The stream is left exhausted,
                # exactly as a drain would.
                self._result = interpret_plan(
                    self._plan,
                    self._target,
                    indexes=self._indexes,
                    allow_bottom=self._allow_bottom,
                    stats=self._stats,
                    deadline=self._deadline,
                )
                self._substitutions = iter(())
                self._started = True
                # The batch executor skips the per-match list; the stats
                # record still carries the substitution count.
                self._finish(
                    rows=self._stats.substitutions if self._stats else None
                )
            else:
                for _ in self:
                    pass
                self._result = union_all(self._matches)
        return self._result

    def explain(self) -> str:
        """Render the plan (and access path) behind this cursor."""
        return _render_explain(
            self._notes, self._plan, self._target, self._indexes,
            self._allow_bottom, analyze=False,
        )

    def __repr__(self) -> str:
        streamed = len(self._matches) + len(self._deferred)
        return f"<Cursor {streamed} matches streamed>"

