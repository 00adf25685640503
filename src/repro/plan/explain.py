"""EXPLAIN rendering: pretty-print optimized plans with cardinalities.

The renderer turns the IR of :mod:`repro.plan.ir` into an indented text tree:
one block per stratum (apply-once vs fixpoint), one block per rule, one line
per leaf showing the optimizer's **estimated** surviving rows and chosen
access path, and — when an execution record from
:func:`repro.plan.execute.match_rows` is supplied — the **actual** rows that
survived each leaf, so a bad estimate is visible at a glance.

EXPLAIN ANALYZE: a record created with ``{"timed": True}`` (see
``Session.explain(analyze=True)`` and the CLI ``--explain-analyze`` flags)
additionally carries per-leaf and whole-match wall time
(``by_leaf_ns``/``wall_ns``), and the renderer prints them next to the
actual rows — so a leaf that survives few rows but burns the time budget is
just as visible as a bad cardinality estimate.  The executor also records
per-leaf batch counts (``by_leaf_batches``: how many batches the operator
dispatched and the total rows they carried), rendered as ``N batches, M
rows/batch`` so a leaf that fragments the pipeline into tiny batches is
visible too, and each scan leaf's actual access (``by_leaf_access``),
rendered as ``probed <key path> → N candidates`` and/or ``scanned N`` next to
the estimate's ``via index ...`` — an index the optimizer counted on and the
run did not get shows as a scan.

``Program.explain()`` renders the closure engine's own rule plans
(``SemiNaiveEngine.plan``) with :func:`render_program_plan`, and
``Session.explain()`` / ``Cursor.explain()`` the plan a cursor runs with
:func:`render_body_plan` — hence the CLI's ``run/query --explain`` and
``store query --explain``; all collect their actuals with
:func:`execution_record`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.calculus.dependency import Stratum
from repro.calculus.rules import Rule
from repro.core.objects import ComplexObject
from repro.obs.trace import format_ns
from repro.plan.execute import match_rows
from repro.plan.ir import BodyPlan, leaf_key

__all__ = ["execution_record", "render_body_plan", "render_program_plan"]


def execution_record(
    plan: BodyPlan,
    target: ComplexObject,
    *,
    indexes=None,
    allow_bottom: bool = False,
    timed: bool = False,
) -> dict:
    """Execute ``plan`` against ``target`` once and return its actuals.

    The record the ``render_*`` functions take: rows surviving each leaf,
    what each scan leaf examined and how (probing ``indexes``, the store the
    real run probes), batches dispatched and the substitution count — plus
    per-leaf and total wall time when ``timed`` (EXPLAIN ANALYZE).
    """
    record: dict = {"timed": True} if timed else {}
    match_rows(
        plan, target, indexes=indexes, allow_bottom=allow_bottom, record=record
    )
    return record


def _leaf_lines(plan: BodyPlan, record: Optional[dict], indent: str) -> list:
    lines = []
    if plan.pruned is not None:
        lines.append(f"{indent}pruned by shape analysis: {plan.pruned}")
    actuals: Dict = (record or {}).get("by_leaf", {})
    batches: Dict = (record or {}).get("by_leaf_batches", {})
    timings: Dict = (record or {}).get("by_leaf_ns", {})
    accesses: Dict = (record or {}).get("by_leaf_access", {})
    for position, (leaf, estimate) in enumerate(
        zip(plan.leaves, plan.estimates or (None,) * len(plan.leaves)), start=1
    ):
        line = f"{indent}{position}. {leaf.describe()}"
        notes = []
        if estimate is not None:
            notes.append(f"est {estimate.rows:g} rows via {estimate.access}")
            if estimate.shape is not None:
                notes.append(f"shape {estimate.shape}")
        actual = actuals.get(leaf_key(leaf))
        if actual is not None:
            notes.append(f"actual {actual}")
        access = accesses.get(leaf_key(leaf))
        if access is not None:
            key, probes, candidates, scanned = access
            if probes:
                times = f" in {probes} probes" if probes > 1 else ""
                notes.append(f"probed {key} → {candidates} candidates{times}")
            if scanned:
                notes.append(f"scanned {scanned}")
        dispatched = batches.get(leaf_key(leaf))
        if dispatched is not None:
            count, total_rows = dispatched
            per_batch = total_rows / count if count else 0.0
            notes.append(f"{count} batches, {per_batch:g} rows/batch")
        elapsed = timings.get(leaf_key(leaf))
        if elapsed is not None:
            notes.append(f"time {format_ns(elapsed)}")
        if notes:
            line += "  [" + ", ".join(notes) + "]"
        lines.append(line)
    if record is not None and "rows" in record:
        summary = f"{indent}=> {record['rows']} substitutions (actual)"
        if "wall_ns" in record:
            summary += f" in {format_ns(record['wall_ns'])}"
        lines.append(summary)
    return lines


def render_body_plan(
    plan: BodyPlan, *, record: Optional[dict] = None, header: Optional[str] = None
) -> str:
    """Render one body/query plan (the shape behind ``query --explain``)."""
    kind = "join" if len(plan.leaves) > 1 else "match"
    mode = "cost-ordered" if plan.optimized else "source-ordered"
    lines = []
    if header:
        lines.append(header)
    lines.append(f"{kind} over {len(plan.leaves)} leaves ({mode})")
    lines.extend(_leaf_lines(plan, record, "  "))
    return "\n".join(lines)


def render_program_plan(
    strata: Sequence[Stratum],
    plans: Mapping[Rule, BodyPlan],
    *,
    iterations: Optional[int] = None,
    rule_records: Optional[Dict] = None,
) -> str:
    """Render a program's rule plans, stratum by stratum.

    ``plans`` maps each rule with a body to its plan (facts have none);
    ``rule_records`` maps a rule to the execution record collected for it;
    ``iterations`` is the fixpoint's actual round count when the program has
    been evaluated.
    """
    recursive = sum(1 for stratum in strata if stratum.recursive)
    lines = [f"program plan: {len(strata)} strata ({recursive} recursive)"]
    for number, stratum in enumerate(strata, start=1):
        if stratum.recursive:
            note = f", {iterations} iterations total" if iterations is not None else ""
            lines.append(f"stratum {number}: fixpoint (iterate to closure{note})")
        else:
            lines.append(f"stratum {number}: apply once")
        for rule in stratum.rules:
            lines.append(f"  rule {rule.to_text()}")
            plan = plans.get(rule)
            if plan is None:
                lines.append("    emit ground head (fact)")
                continue
            lines.append(f"    project {rule.head.to_text()}")
            record = rule_records.get(rule) if rule_records is not None else None
            lines.extend(_leaf_lines(plan, record, "      "))
    return "\n".join(lines)
