"""repro.api.cursor — prepared queries and the cursors that stream their matches.

:meth:`Session.prepare <repro.api.Session.prepare>` returns a
:class:`PreparedQuery`; every execution resolves it once
(``Session._resolve``) into a :class:`_Resolved` record — the snapshot, the
access path, the target, the plan and the ``$parameter`` values — and a
:class:`Cursor` runs exactly that record, probing
``snapshot.indexes_for(target)``, while EXPLAIN (:func:`_render_explain`)
renders it with the values bound.  A cursor holds its record, so it
answers from the version it was opened on whatever commits land while it
streams.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from repro.core.errors import LintError
from repro.core.objects import BOTTOM, ComplexObject
from repro.calculus.substitution import Substitution
from repro.calculus.terms import Formula
from repro.lint.analyzer import check_bindings
from repro.plan import iter_match_rows, match_rows
from repro.plan.compile import compile_projection
from repro.plan.explain import execution_record, render_body_plan
from repro.plan.ir import BodyPlan
from repro.plan.parameters import bind_body_plan
from repro.api.snapshot import Snapshot


class _Resolved(NamedTuple):
    """What ``Session._resolve`` decided for one execution, in ``snapshot``.

    ``access`` names the path taken (``against``, ``closure``, ``seed``, or
    the store's ``pushdown`` / ``snapshot`` / ``refuted``), ``notes`` are the
    lines EXPLAIN prints for it, ``target`` is the object ``plan`` runs
    against — ``None`` when a path index refuted the query — and ``params``
    the values its ``$parameter`` slots read.
    """

    snapshot: Snapshot
    access: str
    notes: Tuple[str, ...]
    target: Optional[ComplexObject]
    plan: BodyPlan
    params: Mapping[str, ComplexObject]


def _render_explain(resolved: _Resolved, allow_bottom: bool, analyze: bool) -> str:
    """EXPLAIN (ANALYZE) of one :class:`_Resolved` record.

    The plan, bound to the record's values, is run once, apart from any
    cursor's stream but probing the same index store, to collect actual rows
    and accesses (and times under ``analyze``); a refuted query (``target is
    None``) runs nothing and shows the unexecuted plan.
    """
    _, _, notes, target, plan, params = resolved
    plan = bind_body_plan(plan, params)
    record = None
    if target is not None:
        record = execution_record(
            plan, target, indexes=resolved.snapshot.indexes_for(target),
            allow_bottom=allow_bottom, timed=analyze,
        )
    rendered = render_body_plan(
        plan, record=record, header=f"query plan: {plan.body.to_text()}"
    )
    return "\n".join([*notes, rendered])


class PreparedQuery:
    """A parsed, cost-optimized query awaiting parameter values.

    Created by :meth:`Session.prepare`.  Holds the parsed formula (with its
    ``$parameter`` slots) and the execution options fixed at prepare time;
    each :meth:`execute` runs the session's cached plan with its values in
    the slots — on an unchanged store that is a dictionary lookup, no
    parsing, no optimization and no rebuilt formula.
    """

    __slots__ = (
        "_session", "_source", "formula", "options", "trace_id", "diagnostics",
        "_lint", "_param_shapes",
    )

    def __init__(
        self, session, source: Optional[str], formula: Formula, options: dict,
        trace_id: Optional[str] = None, diagnostics: Tuple = (), lint: str = "warn",
        param_shapes: Tuple = (),
    ):
        self._session = session
        self._source = source
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
    def source(self) -> str:
        """The query text as written, or the prepared formula rendered."""
        return self.formula.to_text() if self._source is None else self._source

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

    def _check_bindings(self, values: Mapping[str, ComplexObject]) -> None:
        """Refute shape-impossible parameter bindings (RL204) at bind time."""
        if not self._param_shapes:
            return
        findings = check_bindings(self._param_shapes, values)
        if findings and self._lint == "strict":
            raise LintError(
                f"parameter values failed strict shape check"
                f" ({len(findings)} finding(s)): {self.source}",
                tuple(findings),
            )

    def execute(self, params: Optional[Mapping] = None, **kwparams) -> "Cursor":
        """Execute with ``params`` (a mapping, and/or keyword arguments)."""
        return self._session.execute(self, {**(params or {}), **kwparams})

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
        return self._session.explain(self, {**(params or {}), **kwparams}, analyze=analyze)

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
    * :meth:`all` — drain and fold into the union ``E(O)`` (every row the
      cursor ever consumed participates, so ``all()`` after partial
      iteration still returns the complete answer);
    * :meth:`bindings` — the raw variable :class:`Substitution` stream;
    * :meth:`explain` — the plan this cursor executes, against the target and
      index store it was resolved to (later commits do not change the
      rendering).

    A cursor is single-pass: it opens the executor's row stream
    (:func:`repro.plan.execute.iter_match_rows`) at its first terminal,
    consumes it once, shared by all of the above, and keeps the rows it
    consumed; a match is the body projected over one row
    (:func:`~repro.plan.compile.compile_projection`, compiled once per
    parameterized plan and kept in its ``projections``, else once per
    cursor), ``all()`` the projection over every row.  An ``all()`` that
    comes first takes the rows in whole batches
    (:func:`~repro.plan.execute.match_rows`) instead of opening the stream.
    Re-execute the prepared query for a fresh cursor.
    """

    def __init__(
        self, resolved: _Resolved, *, allow_bottom: bool = False, stats=None,
        on_finish=None, deadline=None,
    ):
        # What Session._resolve decided (see _Resolved); the snapshot is the
        # cursor's own reference, so a commit that replaces the session's
        # leaves this cursor its target and the index store its leaves probe.
        self._resolved = resolved
        self._params = resolved.params
        self._target = target = resolved.target
        self._indexes = indexes = resolved.snapshot.indexes_for(target)
        self._allow_bottom = allow_bottom
        self._options = dict(
            indexes=indexes, allow_bottom=allow_bottom, stats=stats, deadline=deadline,
            params=resolved.params,
        )
        self._on_finish = on_finish
        self._finished = False
        # The executor's row stream, opened by the first terminal.
        self._stream: Optional[Iterator] = None
        # Every row consumed so far, and how many of them iteration has
        # projected into ``_seen`` (the rest came through :meth:`bindings`).
        self._names: Tuple[str, ...] = ()
        self._rows: List[tuple] = []
        self._projected = 0
        self._seen = set()
        self._project = None
        self._result: Optional[ComplexObject] = None

    @property
    def _plan(self) -> BodyPlan:
        """The cursor's plan with its values bound: the plan its EXPLAIN renders."""
        return bind_body_plan(self._resolved.plan, self._params)

    def _finish(self) -> None:
        """Fire the completion callback exactly once, at stream exhaustion."""
        if not self._finished:
            self._finished = True
            if self._on_finish is not None:
                self._on_finish()

    def _pull(self) -> Optional[tuple]:
        """Consume the next executor row (``None`` once exhausted)."""
        if self._stream is None:
            self._stream = iter(()) if self._target is None else iter_match_rows(
                self._resolved.plan, self._target, **self._options
            )
        for self._names, row in self._stream:
            self._rows.append(row)
            return row
        self._finish()
        return None

    def _projection(self):
        """The body's compiled projection over this cursor's rows.

        A plan with ``$parameters`` keeps it in its ``projections``, for every
        execution of its prepared query, whatever the values; a cursor of a
        parameter-free plan compiles its own.
        """
        if self._project is None:
            plan, names = self._resolved.plan, self._names
            projections = plan.projections
            if projections is None:
                self._project = compile_projection(plan.body, names)
            elif names in projections:
                self._project = projections[names]
            else:
                self._project = projections[names] = compile_projection(plan.body, names)
        return self._project

    # -- streaming --------------------------------------------------------------------
    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> ComplexObject:
        rows, seen = self._rows, self._seen
        if self._projected < len(rows):
            # What bindings() handed out counts as streamed: never repeat it.
            project, params = self._projection(), self._params
            seen.update(project([row], params) for row in rows[self._projected:])
            self._projected = len(rows)
        while (row := self._pull()) is not None:
            self._projected += 1
            instantiation = self._projection()([row], self._params)
            if instantiation not in seen:
                seen.add(instantiation)
                return instantiation
        raise StopIteration

    def bindings(self) -> Iterator[Substitution]:
        """Stream the raw substitutions (each still counts toward :meth:`all`).

        The public boundary where a row becomes a :class:`Substitution`;
        nothing is projected per row — the rows are kept, and the body is
        projected only if :meth:`all` or iteration asks for matches later.
        """
        while (row := self._pull()) is not None:
            yield Substitution._from_sorted(tuple(zip(self._names, row)))

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
            if self._stream is None and self._target is not None:
                # Nothing consumed yet (the common ``Session.query`` path):
                # take every row in whole batches; the drain below finds the
                # stream exhausted.
                self._names, self._rows = match_rows(
                    self._resolved.plan, self._target, **self._options
                )
                self._stream = iter(())
            while self._pull() is not None:
                pass
            self._result = (
                self._projection()(self._rows, self._params) if self._rows else BOTTOM
            )
        return self._result

    def explain(self) -> str:
        """Render the plan (and access path) behind this cursor."""
        return _render_explain(self._resolved, self._allow_bottom, analyze=False)

    def __repr__(self) -> str:
        return f"<Cursor {len(self._rows)} rows streamed>"
