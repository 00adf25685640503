"""repro.api.session — :func:`connect` and the :class:`Session`.

The session keeps the store passthrough, rules, seeding, transactions and
the one resolve-and-plan step (:meth:`Session._resolve`); what it derives
from one version of its database lives in the
:class:`~repro.api.snapshot.Snapshot` :meth:`Session._current` reads once
per call.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.builder import obj
from repro.core.errors import ComplexObjectError, LintError, NestingError, StoreError
from repro.core.lattice import union
from repro.core.objects import ComplexObject, nesting_levels
from repro.calculus.fixpoint import ClosureResult
from repro.calculus.rules import Rule
from repro.calculus.terms import Formula, bind_parameters, within_budget
from repro.engine import SemiNaiveEngine
from repro.fault.deadline import Deadline
from repro.lint.analyzer import prepare_lint
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY as _METRICS
from repro.parser import parse_program
from repro.parser.parser import as_formula
from repro.plan.parameters import validate_parameters
from repro.plan.stats import EngineStats
from repro.store.database import ObjectDatabase
from repro.store.retry import DEFAULT_POLICY, RetryPolicy
from repro.store.storage import FileStorage
from repro.api.cursor import Cursor, PreparedQuery, _render_explain, _Resolved
from repro.api.snapshot import _COUNTER_METRICS, Snapshot, _Counters

#: The one exception type a caller needs: every error raised by the library
#: derives from it (parse, plan, parameter, schema, store, divergence...).
ReproError = ComplexObjectError

#: Keyword options `execute`/`query`/`explain`/`prepare` accept: the target
#: selectors, the semantics flag, and the closure guards forwarded to
#: :meth:`Session.close` when ``on_closure`` is set.  Anything else is a
#: typo and is rejected, mirroring the strict ``$parameter`` policy.
_QUERY_OPTIONS = frozenset({
    "against", "on_closure", "allow_bottom", "max_iterations", "max_nodes", "max_depth",
    "timeout_ms",
})

#: Options that configure the execution itself rather than closure guards;
#: everything else in an options dict is forwarded to :meth:`Session.close`.
_NON_GUARD_OPTIONS = ("against", "on_closure", "allow_bottom", "timeout_ms")

#: What remains: the divergence guards :meth:`Session.close` accepts.
_GUARD_OPTIONS = _QUERY_OPTIONS.difference(_NON_GUARD_OPTIONS)


def _check_printable(formula: Formula, values: Mapping[str, ComplexObject]) -> None:
    """EXPLAIN prints ``formula`` bound to ``values``: name the value that makes it too deep."""
    try:
        within_budget(bind_parameters(formula, values), "print")
    except NestingError:  # the formula itself is within the budget
        depth, name = max((nesting_levels([value]) + 1, name) for name, value in values.items())
        message = f"value bound to ${name} is nested {depth} levels deep, too deep to print"
        raise NestingError(message) from None


def _check_options(options: Mapping) -> None:
    unknown = set(options) - _QUERY_OPTIONS
    if unknown:
        valid = sorted(_QUERY_OPTIONS)
        raise ReproError(f"unknown query option(s) {sorted(unknown)}; valid options: {valid}")


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
    mutex — commits and schema reads — raising :class:`LockTimeout`
    instead of hanging past it; other reads take no lock.
    """
    return Session(path, rules=rules, slow_query_ms=slow_query_ms, lock_timeout=lock_timeout)


class Session:
    """One connection: a store, a rule set, and a per-version snapshot.

    A session owns (or wraps) an :class:`~repro.store.ObjectDatabase` and
    funnels **every** evaluation path — prepared queries, ad-hoc queries,
    rule closures and the CLI — through one pipeline::

        parse → compile (cached) → optimize (cached per version)
              → stream, $parameters read from their slots

    Target selection and the plan cache are one private step
    (:meth:`_resolve`) shared by execution and EXPLAIN, so EXPLAIN renders
    the plan that runs, with its values bound.  Everything derived from the
    database lives in one :class:`~repro.api.snapshot.Snapshot` of the session
    :attr:`version` (store commits plus the session's own seed/rule
    revisions), which :meth:`_current` reads once per call and replaces
    whole when it moved.  So re-executing a :class:`PreparedQuery` on an
    unchanged store skips parse and optimize entirely (watch
    ``cache_info()["plan_hits"]``).

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
        # Seeded sessions evaluate against the seed object — even when it is
        # ⊥ (an empty database is ⊥, not the empty store's [] snapshot);
        # unseeded sessions (``None``) evaluate against the store.
        self._seed: Optional[ComplexObject] = None
        self._seed_version = 0
        self._counters = _Counters(dict.fromkeys(_COUNTER_METRICS, 0))
        self._snapshot = Snapshot(None, None, None, (), self._counters)
        # The one prepare-time lint cache: (report, parameter slots) keyed on
        # (interned formula, rules version).  Reports are frozen, so re-preparing
        # the same query re-attaches the same diagnostics without re-running
        # the analysis (the ≤1.10x prepare budget the cost ledger's
        # lint.warn_vs_off cell pins, tools/cost_ledger.py).
        self._lint_reports: "OrderedDict[Tuple, object]" = OrderedDict()
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
        self._seed = converted if self._seed is None else union(self._seed, converted)
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

    def _program(self, snapshot: Snapshot):
        # Same layer, deferred one way: repro.program builds on Session.
        from repro.program import Program

        return Program(snapshot.rules, database=snapshot.base())

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
        of the database) and runs once per formula and rules version, so
        preparing stays cheap.  Every execution then checks its bound values
        against the slots the pass inferred (RL204).  A formula deeper than
        the depth budget raises :class:`NestingError` before any walk.
        """
        if lint not in ("warn", "strict", "off"):
            raise ReproError(f'lint must be "warn", "strict" or "off", got {lint!r}')
        with _trace.span("session.prepare") as span:
            _check_options(options)
            parsed = as_formula(query, "prepare")
            source = query if isinstance(query, str) else None
            diagnostics: Tuple = ()
            param_shapes: Tuple = ()
            if lint != "off":
                lint_key = (parsed, self._rules_version)
                entry = self._lint_reports.get(lint_key)
                if entry is None:
                    # The report, and the inferred shape of every ``$parameter``
                    # slot, from one abstract match: each execution refutes
                    # shape-impossible bindings (RL204) against the slots
                    # before touching the database.
                    entry = prepare_lint(parsed, self._rules)
                    if len(self._lint_reports) >= 256:
                        self._lint_reports.popitem(last=False)
                    self._lint_reports[lint_key] = entry
                report, param_shapes = entry
                diagnostics = report.diagnostics
                if lint == "strict" and not report.ok(strict=True):
                    raise LintError(
                        f"query failed strict lint ({report.errors} error(s),"
                        f" {report.warnings} warning(s)): {source or parsed.to_text()}",
                        diagnostics,
                    )
            self._counters.count("prepared_queries")
            trace_id = None
            if span.enabled:
                span.set(query=source or parsed.to_text(), parameters=len(parsed.parameters()))
                trace_id = span.trace_id
            return PreparedQuery(
                self, source, parsed, options,
                trace_id=trace_id, diagnostics=diagnostics,
                lint=lint, param_shapes=param_shapes,
            )

    def execute(self, query, params: Optional[Mapping] = None, **options) -> "Cursor":
        """Run a query and return a streaming :class:`Cursor` over its matches.

        ``query`` may be source text, a :class:`Formula` or a
        :class:`PreparedQuery` (one deeper than the formula depth budget
        raises :class:`NestingError`); ``params`` binds its ``$parameters``.
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
        link = prepared = None
        if isinstance(query, PreparedQuery):
            # Options fixed at prepare time are defaults; the span links back
            # to the prepare that built the query.
            options = {**query.options, **options}
            prepared, formula, link = query, query.formula, query.trace_id
        else:
            formula = as_formula(query, "execute")
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
            if prepared is not None:
                prepared._check_bindings(values)
            timeout_ms = options.get("timeout_ms")
            if timeout_ms is not None and not (
                isinstance(timeout_ms, (int, float)) and timeout_ms > 0
            ):
                raise ReproError(f"timeout_ms must be a positive number, got {timeout_ms!r}")
            deadline = Deadline.start(timeout_ms) if timeout_ms is not None else None
            resolved = self._resolve(formula, values, options, deadline=deadline)
            if span.enabled:
                span.set(access=resolved.access)
            return Cursor(
                resolved,
                allow_bottom=options.get("allow_bottom", False),
                stats=run_stats,
                on_finish=self._query_finisher(formula, values, run_stats, start_ns, trace_id),
                deadline=deadline,
            )

    def query(self, query, params: Optional[Mapping] = None, **options) -> ComplexObject:
        """Run a query and materialize the full answer — ``E(O)`` of Definition 4.2."""
        return self.execute(query, params, **options).all()

    def explain(
        self, query, params: Optional[Mapping] = None, *, analyze: bool = False, **options
    ) -> str:
        """EXPLAIN for :meth:`execute`: the target and the plan.

        Renders the plan :meth:`execute` runs with the same arguments — both
        take it from the one resolve-and-plan step and its plan cache — with
        the actual rows per plan node from one run of it, probing the same
        index store, so each scan leaf shows the access it really got
        (``probed ... → n candidates`` / ``scanned n``) beside the estimate.
        ``analyze=True`` is EXPLAIN ANALYZE: the run is timed and the
        rendering adds wall time per plan node next to the optimizer's
        estimates.  EXPLAIN never moves the store's ``access_stats``, and
        refuses a query deeper than the formula depth budget, as execute does.
        It prints the bound query, so it also refuses a ``$parameter`` value
        that makes it too deep to print, naming that value; execute runs it.
        """
        prepared = isinstance(query, PreparedQuery)
        options = {**query.options, **options} if prepared else options
        formula = query.formula if prepared else as_formula(query, "explain")
        _check_options(options)
        values = self._convert_params(formula, params or {})
        _check_printable(formula, values)
        resolved = self._resolve(formula, values, options, counted=False)
        return _render_explain(resolved, options.get("allow_bottom", False), analyze)

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
        caches nothing and drops the stale entry it started from.  A round
        that derives anything over a database deeper than the ``max_depth``
        guard raises :class:`~repro.core.errors.DivergenceError`; one whose
        union or projection is too deep to walk raises
        :class:`~repro.core.errors.NestingError` naming the database's depth.
        """
        unknown = set(guards) - _GUARD_OPTIONS
        if unknown:
            raise TypeError(f"close() got unexpected option(s) {sorted(unknown)}")
        return self._close(self._current(), deadline, guards)

    def _close(self, snapshot: Snapshot, deadline, guards) -> ClosureResult:
        """:meth:`close` against ``snapshot`` (``_resolve`` passes its own)."""
        key = tuple(sorted(guards.items()))
        cached = snapshot.closure(key)
        if cached is not None:
            return cached
        self._counters.count("closure_misses")
        start_ns = time.perf_counter_ns()
        with _trace.span("session.close") as span:
            program = self._program(snapshot)
            seed = program.seed()
            resume = {}
            resumed = snapshot.resume(key, self._rules_version, seed)
            if resumed is None:
                evaluator = SemiNaiveEngine(program.rules, deadline=deadline, **guards)
            else:
                evaluator, previous = resumed
                evaluator.deadline = deadline
                resume = {"previous": previous}
            if span.enabled:
                mode = "delta" if resume else "full"
                span.set(engine=evaluator.name, rules=len(snapshot.rules), mode=mode)
            result = evaluator.run(seed, **resume)
        _METRICS.histogram("session.closure_ns").observe(time.perf_counter_ns() - start_ns)
        self._last_closure_stats = result.stats
        snapshot.keep_closure(key, self._rules_version, seed, evaluator, result)
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

        Every counter is **cumulative over the session's lifetime** (evictions
        and invalidations have their own), so deltas between two reads are
        always meaningful; ``plans_cached`` / ``closures_cached`` /
        ``indexes_cached`` are gauges of what the current version holds.  The
        README's session tables define each key.
        """
        return {**self._counters, **self._current().gauges()}

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
        count (the executor's match rows, however the cursor was consumed),
        and (when tracing is enabled) its trace id and rendered trace.
        The log keeps the 32 most recent entries.
        """
        return list(self._slow_log)

    # -- lifecycle ------------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release the session: drop caches and close an owned store."""
        self._snapshot = Snapshot(None, None, None, (), self._counters)
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
            f" {len(self._rules)} rules, {self._snapshot.gauges()['plans_cached']} cached plans>"
        )

    # -- internals ------------------------------------------------------------------------
    def _convert_params(self, formula: Formula, params: Mapping) -> Dict[str, ComplexObject]:
        provided = {name: obj(value) for name, value in params.items()}
        validate_parameters(formula.parameters(), provided)
        return provided

    def _resolve(self, formula, values, options, *, deadline=None, counted=True) -> _Resolved:
        """The one resolve-and-plan step behind execute, EXPLAIN and cursors.

        Options and bound ``$parameter`` values in, one :class:`_Resolved`
        record out, which a :class:`Cursor` executes and EXPLAIN renders.  A
        target of any depth is planned.

        ``deadline`` bounds an ``on_closure`` evaluation (usually the
        expensive part of such a query); ``counted=False`` is EXPLAIN, which
        must not move the store's ``access_stats``: every counted
        whole-database execution moves ``query_scans`` by one.
        """
        snapshot = self._current()
        against = options.get("against")
        notes: Tuple[str, ...] = ()
        if against is not None:
            target = snapshot.state.get(against)
            if target is None:
                raise StoreError(f"no object stored under {against!r}")
            mode: Tuple = ("against", against)
            notes = (f"target: stored object {against!r}",)
        elif options.get("on_closure"):
            guards = {name: v for name, v in options.items() if name not in _NON_GUARD_OPTIONS}
            target = self._close(snapshot, deadline, guards).value
            mode = ("closure",)
        elif snapshot.seed is not None:
            target = snapshot.base()
            # Strict matching over the seeded object plans with closed-world
            # shapes (see Snapshot.plan_for), so the semantics flag keys the plan.
            mode = ("seed", bool(options.get("allow_bottom", False)))
        else:
            target = snapshot.state.as_object()
            mode = ("db",)
            notes = (f"target: whole database ({len(snapshot.state)} stored objects)",)
            if counted:
                self._db._bump("query_scans")
        plan = snapshot.cached_plan(formula, mode)
        if plan is None:
            plan = snapshot.plan_for(formula, mode, target)
        return _Resolved(snapshot, mode[0], notes, target, plan, values)

    def _current(self) -> Snapshot:
        """The snapshot of the current :attr:`version` — the one place it is read.

        One call takes one committed store state (``ObjectDatabase.state``);
        the version is read from it and the snapshot keeps it, so every
        target a call reads — ``against``, the whole-database object, the
        store's access path — comes from the same commit as the version,
        whatever commits land meanwhile.  When the version moved, the old
        snapshot is replaced in one transition (:meth:`Snapshot.advance`).
        """
        state = self._db.state()
        version = (state.version, self._seed_version, self._rules_version)
        snapshot = self._snapshot
        if snapshot.version != version:
            snapshot = self._snapshot = snapshot.advance(
                state, version, self._seed, tuple(self._rules)
            )
        return snapshot

    def _query_finisher(self, formula, values, run_stats, start_ns, trace_id):
        """The callback a :class:`Cursor` fires once, when fully consumed.

        Observes the query's total wall time (planning through exhaustion),
        publishes the run's :class:`EngineStats` as :meth:`stats`, and
        appends to the slow-query log when the session is armed.
        """

        def finish() -> None:
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
                "params": {name: value.to_text() for name, value in values.items()},
                "elapsed_ms": elapsed_ns / 1e6,
                "rows": run_stats.substitutions,
                "trace_id": trace_id,
            }
            tracer = _trace.current_tracer()
            if tracer is not None and trace_id is not None:
                root = tracer.find(trace_id)
                if root is not None:
                    entry["trace"] = _trace.render_span(root)
            self._slow_log.append(entry)

        return finish
