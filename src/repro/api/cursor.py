"""repro.api.cursor — prepared queries and the cursors that stream their matches.

:meth:`Session.prepare <repro.api.Session.prepare>` returns a
:class:`PreparedQuery`; every execution resolves it once
(``Session._resolve``) into a :class:`_Resolved` record — the snapshot, the
access path, the target, the bound plan — and a :class:`Cursor` runs exactly
that record, probing ``snapshot.indexes_for(target)``, while EXPLAIN
(:func:`_render_explain`) renders it.  A cursor holds its record, so it
answers from the version it was opened on whatever commits land while it
streams.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from repro.core.builder import obj
from repro.core.errors import ComplexObjectError, LintError
from repro.core.objects import BOTTOM, ComplexObject
from repro.calculus.substitution import Substitution
from repro.calculus.terms import Formula
from repro.lint.diagnostics import new_diagnostic
from repro.lint.shapes import maybe_subobject
from repro.obs.metrics import REGISTRY as _METRICS
from repro.plan import interpret_plan, iter_match_rows
from repro.plan.compile import compile_projection
from repro.plan.explain import execution_record, render_body_plan
from repro.plan.ir import BodyPlan
from repro.api.snapshot import Snapshot


class _Resolved(NamedTuple):
    """What ``Session._resolve`` decided for one execution, in ``snapshot``.

    ``access`` names the path taken (``against``, ``closure``, ``seed``, or
    the store's ``pushdown`` / ``snapshot`` / ``refuted``), ``notes`` are the
    lines EXPLAIN prints for it, ``target`` is the object the bound ``plan``
    runs against — ``None`` when a path index refuted the query.
    """

    snapshot: Snapshot
    access: str
    notes: Tuple[str, ...]
    target: Optional[ComplexObject]
    plan: BodyPlan


def _render_explain(resolved: _Resolved, allow_bottom: bool, analyze: bool) -> str:
    """EXPLAIN (ANALYZE) of one :class:`_Resolved` record.

    The plan is run once, apart from any cursor's stream but probing the
    same index store, to collect actual rows and accesses (and times under
    ``analyze``); a refuted query (``target is None``) runs nothing and
    shows the unexecuted plan.
    """
    _, _, notes, target, plan = resolved
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
    each :meth:`execute` binds values into the session's cached plan — on an
    unchanged store that is a dictionary lookup plus a structural
    substitution, no parsing and no optimization.
    """

    __slots__ = (
        "_session", "source", "formula", "options", "trace_id", "diagnostics",
        "_lint", "_param_shapes",
    )

    def __init__(
        self, session, source: str, formula: Formula, options: dict,
        trace_id: Optional[str] = None, diagnostics: Tuple = (), lint: str = "warn",
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
            message = (
                f"${name} is bound to {value.to_text()} but every derivable object at"
                f" its slot has shape {slot.describe()}, so the query returns nothing"
            )
            findings.append(new_diagnostic("RL204", message=message, formula=f"${name}"))
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
        merged = {**(params or {}), **kwparams}
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

    A cursor is single-pass: it consumes the executor's row stream
    (:func:`repro.plan.execute.iter_match_rows`) once, shared by all of the
    above, and keeps the rows it consumed; a match is the body projected
    over one row (:func:`~repro.plan.compile.compile_projection`, compiled
    once per cursor), ``all()`` the projection over every row.  Re-execute
    the prepared query for a fresh cursor.
    """

    def __init__(
        self, resolved: _Resolved, *, allow_bottom: bool = False, stats=None,
        on_finish=None, deadline=None,
    ):
        # What Session._resolve decided (see _Resolved); the snapshot is the
        # cursor's own reference, so a commit that replaces the session's
        # leaves this cursor its target and the index store its leaves probe.
        self._resolved = resolved
        self._plan = plan = resolved.plan
        self._target = target = resolved.target
        self._indexes = indexes = resolved.snapshot.indexes_for(target)
        self._allow_bottom = allow_bottom
        self._stats = stats
        self._on_finish = on_finish
        self._deadline = deadline
        self._finished = False
        self._started = False
        self._stream = iter(()) if target is None else iter_match_rows(
            plan, target, indexes=indexes, allow_bottom=allow_bottom,
            stats=stats, deadline=deadline,
        )
        # Every row consumed so far, and how many of them iteration has
        # projected into ``_seen`` (the rest came through :meth:`bindings`).
        self._names: Tuple[str, ...] = ()
        self._rows: List[tuple] = []
        self._projected = 0
        self._seen = set()
        self._project = None
        self._result: Optional[ComplexObject] = None

    def _finish(self) -> None:
        """Fire the completion callback exactly once, at stream exhaustion."""
        if not self._finished:
            self._finished = True
            if self._on_finish is not None:
                self._on_finish()

    def _pull(self) -> Optional[tuple]:
        """Consume the next executor row (``None`` once exhausted)."""
        for self._names, row in self._stream:
            self._rows.append(row)
            return row
        self._finish()
        return None

    def _projection(self):
        """The body's compiled projection over this cursor's rows."""
        if self._project is None:
            self._project = compile_projection(self._plan.body, self._names)
        return self._project

    # -- streaming --------------------------------------------------------------------
    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> ComplexObject:
        self._started = True
        rows, seen = self._rows, self._seen
        if self._projected < len(rows):
            # What bindings() handed out counts as streamed: never repeat it.
            project = self._projection()
            seen.update(project([row]) for row in rows[self._projected:])
            self._projected = len(rows)
        while (row := self._pull()) is not None:
            self._projected += 1
            instantiation = self._projection()([row])
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
        self._started = True
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
            if not self._started and self._target is not None:
                # Nothing consumed yet: project the whole batch run at once
                # (the common ``Session.query`` path).  The stream is left
                # exhausted, exactly as a drain would.
                self._result = interpret_plan(
                    self._plan, self._target, indexes=self._indexes,
                    allow_bottom=self._allow_bottom, stats=self._stats, deadline=self._deadline,
                )
                self._stream = iter(())
                self._started = True
                self._finish()
            else:
                while self._pull() is not None:
                    pass
                self._result = self._projection()(self._rows) if self._rows else BOTTOM
        return self._result

    def explain(self) -> str:
        """Render the plan (and access path) behind this cursor."""
        return _render_explain(self._resolved, self._allow_bottom, analyze=False)

    def __repr__(self) -> str:
        return f"<Cursor {len(self._rows)} rows streamed>"
