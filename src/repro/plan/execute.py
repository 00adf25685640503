"""The physical executor: run a :class:`BodyPlan` against a database object.

This is the one matching loop every evaluation path shares — the engine,
sessions and EXPLAIN call :func:`match_rows`, a
streaming cursor :func:`iter_match_rows`; both hand out value rows, which
:func:`~repro.plan.compile.compile_projection` joins into answers.  There is
one walk (:meth:`_Executor.walk`, depth-first over chunks of partial rows)
with two chunk policies: :func:`match_rows` hands each leaf's whole output
down as one chunk — breadth-first in effect — and :func:`iter_match_rows`
ramps chunks 1, 2, 4, ... so the first row costs one path.  Its
oracle is the derivation-maximal enumeration of
:func:`repro.calculus.matching.match_all` (Definition 4.2):
on a source-ordered plan the two return the same list, on a cost-ordered one
the same set (``tests/test_exec_properties.py``).  On top of the definition
it adds:

* **Leaf ordering.**  The body's leaves are executed in the optimizer's
  order (a delta restriction's leaf first, see below).  Because the result
  is the meet-product over the leaves' alternatives, deduplicated at the
  end, any order yields the same substitution set (see
  :mod:`repro.plan.ir`) — ordering is purely a cost decision.

* **Index pushdown.**  A scan leaf probes the supplied index store before
  scanning: static keys (``$slots`` bound to atoms among them) immediately,
  dynamic keys per partial substitution —
  the accumulated partial carries every binding made by earlier leaves, so a
  join variable bound by a cheap leaf turns later scans into hash lookups.
  Narrowing discards only witnesses whose match would bind the key variable
  to something an atom meets to ⊥ — substitutions the strict semantics
  filters out anyway.  It is therefore disabled under ``allow_bottom=True``.

* **Delta restriction.**  One scan leaf can be restricted to an explicit
  witness list (the semi-naive frontier), identified by its
  ``(path, element_index)`` position exactly as in :mod:`repro.engine.delta`.
  The restricted leaf runs first, ahead of the optimizer's order, and scans
  its witnesses without probing; the other leaves probe by the variables it
  binds, so a round costs about what its frontier joins with.

Below a scan leaf the executor matches nothing itself: each candidate
witness is one call of the element's compiled matcher
(:func:`repro.plan.compile.compile_element_matcher`), nested sets included.

A parameterized plan runs as compiled: ``params`` maps each ``$slot`` to its
value for this run, and the matchers, the spine and the probes read it there.
Its oracle is the plan :func:`repro.plan.parameters.bind_body_plan` binds.

Runtime shape anomalies — ⊤ on the spine, a tuple formula over a non-tuple
value — collapse the affected subtree into a single constant-alternative
leaf, reproducing the oracle's behaviour for those cases.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.calculus.substitution import Substitution
from repro.calculus.terms import (
    Constant,
    Formula,
    Parameter,
    SetFormula,
    TupleFormula,
    Variable,
)
from repro.core.objects import BOTTOM, TOP, ComplexObject, SetObject, TupleObject
from repro.core.order import is_subobject
from repro.core.paths import Path
from repro.obs.metrics import REGISTRY, ROWS_PER_BATCH_BUCKETS
from repro.plan.compile import (
    _merge_plan,
    _merge_row,
    _merge_rows,
    _vanish_row,
    compile_element_matcher,
    compile_projection,
)
from repro.plan.ir import NO_PARAMS, BodyPlan, ScanLeaf, leaf_key
from repro.plan.stats import EngineStats

__all__ = [
    "match_rows",
    "iter_match_rows",
    "match_plan",
    "iter_match_plan",
    "interpret_plan",
    "DEFAULT_BATCH_SIZE",
]

_ROOT = Path(())

#: Streaming chunk-size cap: expansion ramps 1, 2, 4, ... up to this, so the
#: first row still walks one alternative per leaf while a draining consumer
#: amortises per-operator dispatch over whole chunks.
DEFAULT_BATCH_SIZE = 64


def match_rows(
    plan: BodyPlan,
    target: ComplexObject,
    *,
    position=None,
    delta_elements: Tuple[ComplexObject, ...] = (),
    indexes=None,
    stats=None,
    allow_bottom: bool = False,
    record: Optional[dict] = None,
    deadline=None,
    params=NO_PARAMS,
) -> Tuple[Tuple[str, ...], List[tuple]]:
    """Deduplicated derivation-maximal matches of the plan's body: ``(names, rows)``.

    ``names`` is sorted; each row binds it by position, in enumeration order.
    Agrees with :func:`repro.calculus.matching.match_all` on every body and
    target (restricted to the new-witness subset when ``position`` — a
    :class:`repro.engine.delta.DeltaPosition` — is given).  ``indexes`` is
    the :class:`repro.plan.indexes.TargetIndexes` of ``target`` (or anything
    with its ``candidates`` method); ``record``, when given, is
    filled with actual per-leaf cardinalities and accesses for EXPLAIN.
    ``deadline`` — a :class:`repro.fault.Deadline` — is checked once per
    operator batch, raising :class:`~repro.core.errors.QueryTimeout` when
    spent.  ``params`` binds the plan's ``$parameters`` (reading a slot it
    does not bind raises :class:`~repro.core.errors.ParameterError`).  The
    walk runs on whole batches: each leaf's output is one chunk.
    """
    names, rows = (), []
    for names, chunk in _row_chunks(
        plan, target, position, delta_elements, indexes, stats, allow_bottom,
        record, deadline, None, params,
    ):
        rows += chunk
    return names, rows


def iter_match_rows(
    plan: BodyPlan,
    target: ComplexObject,
    *,
    position=None,
    delta_elements: Tuple[ComplexObject, ...] = (),
    indexes=None,
    stats=None,
    allow_bottom: bool = False,
    deadline=None,
    batch_size: Optional[int] = None,
    params=NO_PARAMS,
) -> Iterator[Tuple[Tuple[str, ...], tuple]]:
    """Stream the rows of :func:`match_rows` lazily, as ``(names, row)`` pairs.

    Yields exactly the rows — in exactly the order — that :func:`match_rows`
    returns for the same arguments, each beside the same sorted ``names``
    tuple, but depth-first: the first row is produced after walking one
    alternative per leaf instead of after materialising the full
    meet-product.  This is the executor behind :class:`repro.api.Cursor`
    streaming, where first-row latency matters and a consumer may stop
    early (``.one()``) without paying for the rest of the result.

    The walk drains chunks whose size ramps 1, 2, 4, ... up to
    ``batch_size`` (:data:`DEFAULT_BATCH_SIZE` unless given; anything but a
    positive ``int`` raises :class:`ValueError` at the first ``next()``):
    the first chunk carries one partial, so the first row costs one
    depth-first path, while the tail of a large result is processed
    batch-at-a-time.  ``batch_size=1`` is the degenerate
    one-partial-at-a-time schedule.  Deadlines are checked once per chunk
    rather than once per row.
    """
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    elif (
        not isinstance(batch_size, int)
        or isinstance(batch_size, bool)
        or batch_size < 1
    ):
        raise ValueError(
            f"batch_size must be a positive integer, got {batch_size!r}"
        )
    for names, rows in _row_chunks(
        plan, target, position, delta_elements, indexes, stats, allow_bottom,
        None, deadline, batch_size, params,
    ):
        for row in rows:
            yield names, row


def _row_chunks(
    plan: BodyPlan, target: ComplexObject, position, delta_elements, indexes, stats,
    allow_bottom: bool, record: Optional[dict], deadline, batch_size: Optional[int],
    params,
) -> Iterator[Tuple[Tuple[str, ...], List[tuple]]]:
    """The one match run behind both entry points: finalized ``(names, rows)`` chunks.

    :meth:`_Executor.walk` on whole batches (``batch_size=None``) or the
    ramp; each chunk deduplicated against the earlier ones and counted.
    """
    if stats is None:
        stats = EngineStats()
    if plan.pruned is not None:
        # The shape analysis proved this body can never produce a row; the
        # zero-row answer is exact, not an estimate (soundness is pinned by
        # tests/test_shape_properties.py).
        if record is not None:
            record["rows"] = 0
            if record.get("timed", False):
                record["wall_ns"] = 0
        return
    # EXPLAIN ANALYZE: a record created with {"timed": True} also collects
    # wall time, per scan leaf (``by_leaf_ns``) and for the whole match.
    timed = record is not None and record.get("timed", False)
    if timed:
        start_ns = time.perf_counter_ns()
    executor = _Executor(
        position, delta_elements, indexes, stats, record, deadline, allow_bottom, params
    )
    finalizer: Optional[_RowFinalizer] = None
    total = 0
    try:
        for layout, chunk in executor.walk(plan, target, batch_size):
            if finalizer is None:
                finalizer = _RowFinalizer(layout, allow_bottom)
            rows = [row for row in map(finalizer.emit, chunk) if row is not None]
            if rows:
                stats.substitutions += len(rows)
                total += len(rows)
                yield finalizer.names, rows
    finally:
        executor.flush_metrics()
    if record is not None:
        record["rows"] = total
        if timed:
            record["wall_ns"] = time.perf_counter_ns() - start_ns


# Oracle/test adapters: rows as :class:`Substitution` objects, for the tests and
# the per-layer probe of ``benchmarks/e2e/layers.py``; no evaluation path calls them.
def match_plan(plan: BodyPlan, target: ComplexObject, **options) -> List[Substitution]:
    """:func:`match_rows` with each row a :class:`Substitution` (same keywords)."""
    names, rows = match_rows(plan, target, **options)
    return [Substitution._from_sorted(tuple(zip(names, row))) for row in rows]


def iter_match_plan(plan: BodyPlan, target: ComplexObject, **options) -> Iterator[Substitution]:
    """:func:`iter_match_rows` with each row a :class:`Substitution` (same keywords)."""
    for names, row in iter_match_rows(plan, target, **options):
        yield Substitution._from_sorted(tuple(zip(names, row)))


def interpret_plan(
    plan: BodyPlan,
    target: ComplexObject,
    *,
    allow_bottom: bool = False,
    stats=None,
    indexes=None,
    record: Optional[dict] = None,
    deadline=None,
) -> ComplexObject:
    """``E(O)`` through the plan pipeline: the body projected over its match rows.

    The lub of its instantiations (:func:`~repro.plan.compile.compile_projection`);
    agrees with :func:`repro.calculus.interpretation.interpret`.
    """
    names, rows = match_rows(
        plan,
        target,
        indexes=indexes,
        stats=stats,
        allow_bottom=allow_bottom,
        record=record,
        deadline=deadline,
    )
    return compile_projection(plan.body, names)(rows)


class _RowFinalizer:
    """Deduplicate final value rows into sorted-name order, first-wins.

    Every row of one run shares one layout (the names tuple the pipeline's
    merge plans accumulated), so dedup is a set of id-tuples — interning made
    ``==`` an ``is``, and ``id()`` is a C call where ``__hash__`` is a Python
    one.  The sort permutation onto the sorted :attr:`names` is computed once
    per run and replayed onto each unique row (``None``: already sorted).
    """

    __slots__ = ("skip_bottom", "names", "permute", "seen")

    def __init__(self, layout: Tuple[str, ...], allow_bottom: bool):
        self.skip_bottom = not allow_bottom
        order = sorted(range(len(layout)), key=layout.__getitem__)
        self.names = tuple(layout[index] for index in order)
        self.permute = None if self.names == layout else itemgetter(*order)
        self.seen: set = set()

    def emit(self, row: tuple) -> Optional[tuple]:
        """The row in :attr:`names` order, or ``None`` for duplicates (and ⊥ rows)."""
        if self.skip_bottom:
            for value in row:
                if value is BOTTOM:
                    return None
        key = tuple(map(id, row))
        seen = self.seen
        before = len(seen)
        seen.add(key)
        if len(seen) == before:
            return None
        return row if self.permute is None else self.permute(row)


def _timeout_explain(plan: BodyPlan, progress) -> str:
    """The partial EXPLAIN attached to a :class:`QueryTimeout`.

    Renders the plan with **estimates only** plus a progress line — it must
    never execute (or re-execute) anything, only describe work already done.
    """
    from repro.plan.explain import render_body_plan

    rendered = render_body_plan(plan, header="query plan (timed out)")
    return f"{rendered}\nprogress: {progress}"


class _Instance:
    """One runtime leaf: either fixed ``(layout, rows)`` or a scan with witnesses."""

    __slots__ = ("rank", "order", "spec", "witnesses", "restricted", "layout", "rows")

    def __init__(
        self, rank, order, spec=None, witnesses=None, restricted=False, layout=(), rows=None
    ):
        self.rank = rank
        self.order = order
        self.spec = spec
        self.witnesses = witnesses
        self.restricted = restricted
        self.layout = layout
        self.rows = rows


class _ScanState:
    """Per-run cached state of one scan-leaf instance.

    Everything here is computed at most once per instance per run and shared
    by every chunk that reaches it — one per run on whole batches, many on
    the streaming ramp.
    """

    __slots__ = (
        "matcher",
        "merge",
        "key_positions",
        "single_position",
        "probe_cache",
        "base_rows",
    )

    def __init__(self, matcher, merge):
        #: The leaf's ``match(witness, out)`` (:func:`compile_element_matcher`).
        self.matcher = matcher
        #: :func:`_merge_plan` of (input layout, the matcher's layout).
        self.merge = merge
        #: (key path, partial-layout column) for each *bound* dynamic key.
        self.key_positions: Tuple[Tuple[object, int], ...] = ()
        self.single_position: Optional[int] = None
        #: id-of-bound-value(s) -> matched alternative rows.
        self.probe_cache: Dict[object, List[tuple]] = {}
        #: Matched rows every partial shares: over the static probe's hits,
        #: else (lazily; also the dynamic-probe fallback) the full witness list.
        self.base_rows: Optional[List[tuple]] = None


class _Executor:
    """One match run, chunk-at-a-time: operators exchange columnar row batches.

    A batch is ``(layout, rows)``: one names tuple plus plain value tuples,
    one per partial substitution, aligned to it.  The layout is a property of
    the *pipeline position*, not the row — an element formula's layout is
    fixed when it compiles — so each operator computes one
    :func:`_merge_plan` and then meets rows with C-level tuple concats plus
    an ``is`` check per shared column.

    :meth:`walk` is the one schedule: depth-first over chunks of each
    operator's output.  Its chunk policy is the only difference between
    the entry points — whole batches (``batch_size=None``, every leaf runs
    once: :func:`match_rows`) or the 1, 2, 4, ... ramp
    (:func:`iter_match_rows`).  Chunks split a batch without reordering it,
    so both policies yield the same rows in the same order.

    * each leaf's witnesses are matched **once per run** and the resulting
      rows shared across partials and chunks; dynamic index probes are
      cached per distinct bound key value (identity-keyed — interning made
      ``==`` an ``is``), so a frontier binding the same join key a thousand
      times pays one probe and one witness-match pass;
    * every scan leaf's element formula, nested sets included, is compiled
      by :func:`repro.plan.compile.compile_element_matcher`: one closure
      call per witness appends that witness's rows;
    * deadlines are checked once per operator chunk, not once per tuple;
    * final rows leave as plain value tuples, in sorted-name order, after
      identity-keyed dedup (:class:`_RowFinalizer`).

    The enumeration order is partials outer, alternatives inner, instances
    in (restricted first, rank, arrival) order — on a source-ordered plan
    without a restriction exactly the list
    :func:`repro.calculus.matching.match_all` returns, which
    ``tests/test_exec_properties.py`` pins.

    Batch/row counts accumulate in plain instance fields and fold into the
    ``exec.*`` metrics in one :meth:`flush_metrics` call per match.
    """

    __slots__ = (
        "position",
        "delta_elements",
        "indexes",
        "stats",
        "record",
        "deadline",
        "drop_bottom",
        "params",
        "_batches",
        "_batch_rows",
        "_compiled_hits",
    )

    def __init__(
        self, position, delta_elements, indexes, stats, record, deadline, allow_bottom, params
    ):
        self.position = position
        self.delta_elements = delta_elements
        # Narrowing drops only ⊥-binding matches, which allow_bottom keeps.
        self.indexes = None if allow_bottom else indexes
        self.stats = stats
        self.record = record
        self.deadline = deadline
        #: Strict semantics (``allow_bottom=False``): rows acquiring a ⊥
        #: binding are dropped at the operator that creates them instead of
        #: at the finalizer — ⊥ never recovers, so only rows the strict
        #: filter would discard anyway disappear (EXPLAIN's per-leaf actuals
        #: therefore count *surviving* rows).
        self.drop_bottom = not allow_bottom
        #: The run's ``$parameter`` values, read by slots wherever they occur.
        self.params = params
        self._batches = 0
        self._batch_rows: List[int] = []
        self._compiled_hits = 0
        if record is not None:
            record["by_leaf"] = {}
            record["by_leaf_batches"] = {}
            record["by_leaf_access"] = {}
            if record.get("timed", False):
                record["by_leaf_ns"] = {}

    # -- top level ----------------------------------------------------------------------
    def walk(
        self, plan: BodyPlan, target: ComplexObject, batch_size: Optional[int]
    ) -> Iterator[Tuple[Tuple[str, ...], List[tuple]]]:
        """The meet-product, depth-first over chunks: ``(layout, rows)`` past the last leaf.

        Each instance steps over one chunk and hands its output down in
        chunks: the whole output (``batch_size=None``; every leaf runs once
        and an empty batch ends the run) or sizes ramping 1, 2, 4, ... up to
        ``batch_size``, so the first row's path runs on single-partial
        chunks.  Scan state (probes, matched alternatives, merge plans)
        lives in ``state`` across chunks, so no chunk re-probes or re-matches.
        """
        instances = self._instances(plan, target)
        if instances is None:
            return
        state: Dict[object, object] = {}
        total = len(instances)
        pending = [(0, (), [()])]  # (depth, layout, chunk); the next to walk is last
        while pending:
            depth, layout, chunk = pending.pop()
            if depth == total:
                yield layout, chunk
                continue
            if self.deadline is not None:
                self.deadline.check(
                    "plan execution",
                    partial_explain=lambda: _timeout_explain(
                        plan, f"leaf {depth + 1} of {total},"
                        f" {len(chunk)} partial substitutions"
                    ),
                )
            layout, rows = self._step(instances[depth], layout, chunk, state)
            if batch_size is None:
                if rows:
                    pending.append((depth + 1, layout, rows))
                continue
            chunks = []
            start, size = 0, 1
            while start < len(rows):
                chunks.append((depth + 1, layout, rows[start:start + size]))
                start += size
                size = min(size * 2, batch_size)
            pending.extend(reversed(chunks))

    # -- runtime flattening -------------------------------------------------------------
    def _instances(
        self, plan: BodyPlan, target: ComplexObject
    ) -> Optional[List[_Instance]]:
        """The run's leaf instances in execution order; ``None``: no match."""
        leaves = {leaf_key(leaf): (rank, leaf) for rank, leaf in enumerate(plan.leaves)}
        instances: List[_Instance] = []
        if not self._flatten(plan.body, target, _ROOT, leaves, instances):
            return None
        # Stable sort: a delta round's restricted leaf first, so its few new
        # witnesses bind the join variables the later leaves probe by; then
        # optimizer rank, arrival order as the tiebreak.  Collapsed subtrees
        # (⊤ on the spine) carry rank -1 and run first among the rest.
        instances.sort(
            key=lambda instance: (not instance.restricted, instance.rank, instance.order)
        )
        return instances

    def _flatten(
        self,
        node: Formula,
        target: ComplexObject,
        path: Path,
        leaves: Dict[Tuple, Tuple[int, object]],
        out: List[_Instance],
    ) -> bool:
        """Collect runtime leaf instances; ``False`` means a definite non-match."""
        if target is TOP:
            # ⊤ dominates every instantiation: the whole subtree contributes a
            # single row binding its variables to ⊤.
            names = tuple(sorted(node.variables()))
            out.append(
                _Instance(rank=-1, order=len(out), layout=names, rows=[(TOP,) * len(names)])
            )
            return True
        rank, _ = leaves.get((path.steps, -1), (-1, None))
        if isinstance(node, TupleFormula):
            if not len(node):
                return isinstance(target, TupleObject)
            if not isinstance(target, TupleObject):
                return False
            for name, child in node.items():
                if not self._flatten(child, target.get(name), path.child(name), leaves, out):
                    return False
            return True
        if isinstance(node, SetFormula):
            if not len(node):
                return isinstance(target, SetObject)
            if not isinstance(target, SetObject):
                return False
            for index, element in enumerate(node.elements):
                # Flattening walks plan.body — the very formula compile_body
                # built the leaves from — so every runtime set position has a
                # compiled leaf; a KeyError here means the plan and the body
                # diverged and should fail loudly.
                leaf_rank, spec = leaves[(path.steps, index)]
                restricted = (
                    self.position is not None
                    and index == self.position.element_index
                    and path == self.position.path
                )
                out.append(
                    _Instance(
                        rank=leaf_rank,
                        order=len(out),
                        spec=spec,
                        witnesses=self.delta_elements if restricted else target.elements,
                        restricted=restricted,
                    )
                )
            return True
        if isinstance(node, Variable):
            out.append(
                _Instance(rank=rank, order=len(out), layout=(node.name,), rows=[(target,)])
            )
            return True
        if isinstance(node, Constant):
            value = node.value
        elif isinstance(node, Parameter):
            value = self.params[node.name]  # a slot is the constant its run binds
        else:
            raise TypeError(f"not a formula: {node!r}")
        # Identity fast path first: interned constants hit their exact
        # witness by pointer comparison.
        if value is target or is_subobject(value, target):
            out.append(_Instance(rank=rank, order=len(out), rows=[()]))
            return True
        return False

    # -- per-instance operators ---------------------------------------------------------
    def _step(
        self,
        instance: _Instance,
        layout: Tuple[str, ...],
        rows: List[tuple],
        state: Dict[object, object],
    ) -> Tuple[Tuple[str, ...], List[tuple]]:
        """One operator over one chunk, counted for ``exec.*`` and, per scan
        leaf, into the record's ``by_leaf`` / ``by_leaf_batches`` / ``by_leaf_ns``."""
        spec = instance.spec
        if spec is None:
            layout, rows = self._fixed_step(instance, layout, rows, state)
        elif self.record is None:
            layout, rows = self._scan_batch(instance, layout, rows, state)
        else:
            start_ns = time.perf_counter_ns()
            layout, rows = self._scan_batch(instance, layout, rows, state)
            elapsed_ns = time.perf_counter_ns() - start_ns
            key = leaf_key(spec)
            actuals = self.record["by_leaf"]
            actuals[key] = actuals.get(key, 0) + len(rows)
            entry = self.record["by_leaf_batches"].setdefault(key, [0, 0])
            entry[0] += 1
            entry[1] += len(rows)
            timings = self.record.get("by_leaf_ns")
            if timings is not None:
                timings[key] = timings.get(key, 0) + elapsed_ns
        self._batches += 1
        self._batch_rows.append(len(rows))
        return layout, rows

    def _fixed_step(
        self,
        instance: _Instance,
        layout: Tuple[str, ...],
        rows: List[tuple],
        state: Dict[object, object],
    ) -> Tuple[Tuple[str, ...], List[tuple]]:
        """Meet a batch with a non-scan instance's fixed rows."""
        merge = state.get(id(instance))
        if merge is None:
            merge = state[id(instance)] = _merge_plan(layout, instance.layout)
        merged_layout, new_indices, overlap = merge
        fresh: List[tuple] = []
        _merge_rows(rows, instance.rows, new_indices, overlap, self.drop_bottom, fresh)
        return merged_layout, fresh

    def _scan_batch(
        self,
        instance: _Instance,
        layout: Tuple[str, ...],
        rows: List[tuple],
        state: Dict[object, object],
    ) -> Tuple[Tuple[str, ...], List[tuple]]:
        """One scan leaf over a whole batch of partial rows.

        Static probes and witness matching happen once per instance; dynamic
        probes once per distinct tuple of bound key values.  Alternative row
        lists are shared across partials — rows are immutable tuples, so
        sharing is safe by construction.
        """
        spec = instance.spec
        scan = state.get(id(instance))
        if scan is None:
            alt_layout, matcher = compile_element_matcher(spec.element)
            scan = _ScanState(matcher, _merge_plan(layout, alt_layout))
            static_keys, dynamic_keys = (), ()
            # A restricted leaf scans only its frontier: a probe would answer
            # from the whole set, old witnesses included.
            if self.indexes is not None and not instance.restricted:
                static_keys = spec.static_keys
                if spec.param_keys:
                    static_keys = spec.bound_keys(self.params)
                dynamic_keys = spec.dynamic_keys
            static_candidates = None
            if static_keys:
                static_candidates = self._probe(
                    spec, static_keys, count_miss=not dynamic_keys
                )
            if static_candidates is not None:
                scan.base_rows = self._vector_alternatives(
                    spec.element, static_candidates, matcher
                )
            elif dynamic_keys:
                # A dynamic key is usable only once an earlier leaf bound its
                # variable; boundness is a property of the layout, i.e. of
                # the pipeline position, so the usable subset is fixed here.
                positions = []
                for key_path, name in dynamic_keys:
                    if name in layout:
                        positions.append((key_path, layout.index(name)))
                scan.key_positions = tuple(positions)
                if len(positions) == 1:
                    scan.single_position = positions[0][1]
            state[id(instance)] = scan

        merged_layout, new_indices, overlap = scan.merge
        fresh: List[tuple] = []
        if scan.key_positions:
            positions = scan.key_positions
            single = scan.single_position
            probe_cache = scan.probe_cache
            for prow in rows:
                # Interning made equality identity, so the probe cache keys
                # on the bound values' ids — one probe and one witness-match
                # pass per distinct key binding in the batch.
                if single is not None:
                    probe_key = id(prow[single])
                else:
                    probe_key = tuple(id(prow[column]) for _, column in positions)
                alt_rows = probe_cache.get(probe_key)
                if alt_rows is None:
                    narrowed = self._probe_dynamic_row(spec, positions, prow)
                    if narrowed is None:
                        alt_rows = self._base_rows(instance, scan)
                    else:
                        alt_rows = self._vector_alternatives(
                            spec.element, narrowed, scan.matcher
                        )
                    probe_cache[probe_key] = alt_rows
                if not alt_rows:
                    continue
                if not overlap:
                    fresh.extend([prow + arow for arow in alt_rows])
                else:
                    drop = self.drop_bottom
                    for arow in alt_rows:
                        merged_row = _merge_row(
                            prow, arow, new_indices, overlap, drop
                        )
                        if merged_row is not None:
                            fresh.append(merged_row)
            return merged_layout, fresh
        alt_rows = self._base_rows(instance, scan)
        if alt_rows:
            _merge_rows(rows, alt_rows, new_indices, overlap, self.drop_bottom, fresh)
        return merged_layout, fresh

    # -- index probes -------------------------------------------------------------------
    def _probe(self, spec: ScanLeaf, keys, *, count_miss: bool):
        for key_path, atom in keys:
            candidates = self.indexes.candidates(spec.path, key_path, atom)
            if candidates is not None:
                self.stats.index_hits += 1
                if self.record is not None:
                    self._note_access(spec, len(candidates), probed=key_path)
                return candidates
        if count_miss:
            self.stats.index_misses += 1
        return None

    def _probe_dynamic_row(self, spec: ScanLeaf, positions, row: tuple):
        """Probe the dynamic keys bound in ``row``, first usable key wins."""
        for key_path, column in positions:
            candidates = self.indexes.candidates(spec.path, key_path, row[column])
            if candidates is not None:
                self.stats.index_hits += 1
                if self.record is not None:
                    self._note_access(spec, len(candidates), probed=key_path)
                return candidates
        self.stats.index_misses += 1
        return None

    def _note_access(self, spec: ScanLeaf, examined: int, probed=None) -> None:
        """EXPLAIN's actual access of one leaf: what it examined, and how.

        ``record["by_leaf_access"]`` maps the leaf to ``[key, probes,
        candidates, scanned]``: the (first) ``probed`` key path, the probes an
        index answered and the candidates they returned, and the elements
        full scans went through (a note without ``probed``).
        """
        entry = self.record["by_leaf_access"].setdefault(
            leaf_key(spec), [None, 0, 0, 0]
        )
        if probed is None:
            entry[3] += examined
        else:
            if entry[0] is None:
                entry[0] = str(probed) or "<element>"
            entry[1] += 1
            entry[2] += examined

    # -- witnesses ----------------------------------------------------------------------
    def _base_rows(self, instance: _Instance, scan: _ScanState) -> List[tuple]:
        """Alternatives over the full witness list, matched lazily once."""
        if scan.base_rows is None:
            if self.record is not None:
                self._note_access(instance.spec, len(instance.witnesses))
            scan.base_rows = self._vector_alternatives(
                instance.spec.element, instance.witnesses, scan.matcher
            )
        return scan.base_rows

    def _vector_alternatives(
        self, element: Formula, candidates, matcher
    ) -> List[tuple]:
        """Match one element formula over a witness list: its alternative rows.

        One match attempt per candidate witness, each one closure call; an
        empty answer takes the element's vanish row, as
        ``matching._set_element_alternatives`` does.
        """
        count = len(candidates)
        self.stats.match_attempts += count
        self._compiled_hits += count
        alt_rows: List[tuple] = []
        params = self.params
        for witness in candidates:
            matcher(witness, alt_rows, params)
        if not alt_rows:
            vanish = _vanish_row(element, params)
            # A bare variable's vanish row binds ⊥, which the strict filter
            # discards at the end — drop it (and the partials it would
            # extend) here instead.
            if vanish is not None and not (vanish and self.drop_bottom):
                alt_rows.append(vanish)
        return alt_rows

    # -- metrics ------------------------------------------------------------------------
    def flush_metrics(self) -> None:
        """Fold the accumulated batch counters into the ``exec.*`` metrics.

        One registry interaction per match run — the per-batch hot path only
        touches plain instance fields.
        """
        if not self._batches and not self._compiled_hits:
            return
        REGISTRY.counter("exec.batches").inc(self._batches)
        if self._compiled_hits:
            REGISTRY.counter("exec.compiled_leaf_hits").inc(self._compiled_hits)
        rows_histogram = REGISTRY.histogram(
            "exec.rows_per_batch", ROWS_PER_BATCH_BUCKETS
        )
        for rows in self._batch_rows:
            rows_histogram.observe(rows)
        self._batches = 0
        self._batch_rows = []
        self._compiled_hits = 0
