"""repro.api — the public query surface: sessions, prepared queries, cursors.

The paper defines one semantics — ``E(O)`` (Definition 4.2), ``r(O)``
(Definition 4.4) and the closure ``R*(O)`` (Definition 4.6).  This package is
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
* :meth:`Session.register` + :meth:`Session.close` evaluate rule closures.

:mod:`repro.api.session` holds the session, :mod:`repro.api.snapshot` what
it derives from one ``version`` (plans, index stores, closures), and
:mod:`repro.api.cursor` prepared queries and cursors; this package
re-exports their public names.

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

from repro.core.errors import ConflictError, LintError, LockTimeout, ParameterError, QueryTimeout
from repro.api.cursor import Cursor, PreparedQuery
from repro.api.session import ReproError, Session, connect

__all__ = [
    "ConflictError", "Cursor", "LintError", "LockTimeout", "ParameterError", "PreparedQuery",
    "QueryTimeout", "ReproError", "Session", "connect",
]
