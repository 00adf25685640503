#!/usr/bin/env python3
"""The cost ledger: deterministic call counts per operation, checked against ``COST.json``.

Each cell counts the Python-level work of an operation with ``cProfile``:
the calls of every function (``calls``) and of a short list of hot ones
(:data:`HOT`).  A count is bit-for-bit reproducible, so the ledger compares
exactly where a wall clock could only compare with a tolerance.  Counts are
taken under ``PYTHONHASHSEED=0``; ``--selftest`` shows that none of them
depends on the seed.  C-level and I/O work (sorting, ``json``, ``fsync``)
is invisible to a count; that stays with ``benchmarks/e2e``.

There are two kinds of cell:

* **workload cells** (:data:`SCALED`) drive the operations of the end-to-end
  workloads (``benchmarks/e2e/workloads``, imported read-only) at ``--scale``
  1 and 3, and declare the growth between the two: ``flat`` (per-op calls at
  scale 3 at most 1.2 × those at scale 1) or ``linear`` (at most 3 × 1.2).  A
  cell that misses its growth today is declared at its target growth and
  marked strict ``xfail`` with the ROADMAP item that owns it: it fails once
  it passes, so that item's change must flip the mark;
* **contract cells** (:data:`CONTRACTS`) count two ways of doing one job and
  bound the ratio of their calls.

Usage::

    python tools/cost_ledger.py --check      # measure every cell, compare with COST.json
    python tools/cost_ledger.py --update     # measure, check the gates, rewrite COST.json
    python tools/cost_ledger.py --selftest   # every cell 3 times under PYTHONHASHSEED 0 and 123

``--check`` fails on a count that rose, and on a count that fell until it is
re-recorded with ``--update``; CHANGES.md then names the cell and the reason.
A gate's bound is never widened to make a cell pass.  The counts are
CPython 3.11's: comprehension inlining in 3.12 changes them.  Every cell runs
in a fresh interpreter, the workload cells of one workload and scale together.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "COST.json")
PYTHON = "3.11"
SEED = 101
SCALES = (1, 3)
#: The largest scale-3 / scale-1 ratio of per-op calls each growth allows.
GROWTH = {"flat": 1.2, "linear": 3 * 1.2}

#: Workload cells: name → (declared growth, owning ROADMAP item if strict xfail).
SCALED = {
    "bom_join.op": ("flat", None),
    "bom_join.reopen": ("linear", None),
    "genealogy_closure.op": ("linear", None),
    "genealogy_closure.reopen": ("linear", None),
    "closure_after_write.op": ("flat", None),
    "closure_after_write.read": ("flat", None),
    "closure_after_write.reopen": ("linear", None),
    "closure_after_write.first_execute": ("flat", "22"),
    "doc_mixed.op": ("flat", None),
    "doc_mixed.write_first_read": ("flat", None),
    "doc_mixed.reopen": ("linear", None),
    "adhoc_frontend.op": ("linear", None),
    "adhoc_frontend.template0": ("flat", None),
    "adhoc_frontend.template1": ("linear", None),
    "adhoc_frontend.template2": ("flat", "20"),
    "adhoc_frontend.template3": ("flat", "20"),
    "adhoc_frontend.reopen": ("linear", None),
    "ingest_recover.op": ("flat", None),
    "ingest_recover.reopen": ("linear", None),
}

#: Contract cells: name → (numerator side, denominator side, "<=" or ">=", bound).
CONTRACTS = {
    "obs.disabled_vs_stripped": ("disabled", "stripped", "<=", 1.05),
    "lint.warn_vs_off": ("warn", "off", "<=", 1.10),
    "shapes.blind_vs_pruned": ("blind", "pruned", ">=", 3.0),
    "api.materialise_vs_first_row": ("materialise", "first_row", ">=", 3.0),
    "core.set_reduction": ("structural", "interned", ">=", 3.0),
    "plan.source_vs_cost_ordered": ("source_ordered", "cost_ordered", ">=", 2.0),
}

#: Hot functions counted in every cell: label → (file under ``src/``, function name).
HOT = {
    "_bucket": ("repro/core/order.py", "_bucket"),
    "_atom_at": ("repro/core/order.py", "_atom_at"),
    "_InternTable.intern": ("repro/core/intern.py", "intern"),
    "is_subobject": ("repro/core/order.py", "is_subobject"),
    "match_product": ("repro/plan/compile.py", "match_product"),
    "_survivors": ("repro/core/order.py", "_survivors"),
    "bind_parameters": ("repro/calculus/terms.py", "bind_parameters"),
    "parse_record": ("repro/store/codec.py", "parse_record"),
}

#: Per workload: the ops its run leaves uncounted after the set-up, then the ops it counts.
OPS = {
    "bom_join": (5, 20),
    "genealogy_closure": (1, 1),
    "closure_after_write": (2, 5),
    "doc_mixed": (0, 30),
    "adhoc_frontend": (8, 32),
    "ingest_recover": (10, 90),
}


# -- counting -------------------------------------------------------------------------
_HOT_AT = {(os.path.join("src", path), name): label for label, (path, name) in HOT.items()}


def _tally(profile: cProfile.Profile) -> Counter:
    tally = Counter()
    for entry in profile.getstats():
        tally["calls"] += entry.callcount
        code = entry.code  # a string for a builtin
        if not isinstance(code, str):
            label = _HOT_AT.get((os.path.relpath(code.co_filename, ROOT), code.co_name))
            if label:
                tally[label] += entry.callcount
    return tally


class _Counting:
    """Counts the calls of ``fn()``; a count nested in another pauses the outer one."""

    def __init__(self) -> None:
        self._active = []

    def __call__(self, fn):
        outer = self._active[-1] if self._active else None
        if outer is None:
            gc.collect()
        else:
            outer.disable()
        gc.disable()  # no collection, and none of its callbacks, inside a count
        profile = cProfile.Profile()
        self._active.append(profile)
        profile.enable()
        try:
            result = fn()
        finally:
            profile.disable()
            self._active.pop()
            calls = _tally(profile)  # before the outer count resumes
            if outer is None:
                gc.enable()
            else:
                outer.enable()
        return result, calls


def count(fn, times: int = 1) -> Counter:
    """The calls of ``times`` runs of ``fn()``, each counted on its own."""
    counting = _Counting()
    total = Counter()
    for _ in range(times):
        total += counting(fn)[1]
    return total


# -- workload cells -------------------------------------------------------------------
class _LedgerClock:
    """The clock a workload's ``run`` drives, counting calls instead of timing.

    Of the ops (``step("op", ...)``), the first ``skip`` run uncounted, the
    next ``ops`` are counted (``part``s inside them too) and the rest run
    uncounted, so that the run ends as the benchmark's does.  Every answer is
    checked: the ledger records no count of a wrong answer.
    """

    def __init__(self, skip: int, ops: int) -> None:
        self.window = range(skip, skip + ops)
        self.failed = 0
        self.counted = []  # (op index, calls, {part: calls})
        self._index = 0
        self._parts = None
        self._counting = _Counting()

    def step(self, kind, fn, check=None, **_):
        if kind != "op" or self._index not in self.window:
            self._index += kind == "op"
            return _checked(kind, fn(), check)
        self._parts = {}
        result, calls = self._counting(fn)
        for part in self._parts.values():
            calls += part
        self.counted.append((self._index, calls, self._parts))
        self._parts = None
        self._index += 1
        return _checked(kind, result, check)

    side = step

    def part(self, kind, fn):
        if self._parts is None:
            return fn()
        result, calls = self._counting(fn)
        self._parts[kind] = self._parts.get(kind, Counter()) + calls
        return result


def _checked(kind, result, check):
    if check is not None and not check(result):
        raise AssertionError(f"{kind}: wrong answer, no count recorded")
    return result


def _sum(ops) -> dict:
    total = Counter(ops=len(ops))
    for calls in ops:
        total += calls
    return dict(total)


def _op_cells(name: str, workload, counted) -> dict:
    """The workload's cells (but ``reopen``) from its counted ops."""
    cells = {f"{name}.op": _sum([calls for _, calls, _ in counted])}
    if name == "closure_after_write":
        cells[f"{name}.read"] = _sum([parts["read"] for _, _, parts in counted])
    elif name == "doc_mixed":
        after = {index: (calls, parts) for index, calls, parts in counted}
        cells[f"{name}.write_first_read"] = _sum([
            calls + after[index + 1][0]
            for index, calls, parts in counted
            if "write" in parts and "read" in after.get(index + 1, ({}, {}))[1]
        ])
    elif name == "adhoc_frontend":
        mix = workload.MIX
        for template in sorted(set(mix)):
            cells[f"{name}.template{template}"] = _sum([
                calls for index, calls, _ in counted if mix[index % len(mix)] == template
            ])
    return cells


def _counted_setup(workload) -> Counter:
    """Run ``workload.setup()``, counting the queries it prepares, executes and drains.

    ``closure_after_write`` closes first, so what is counted is a prepared
    query's first execution: its lint, its plan miss on the cached closure,
    its first probe and its projection.
    """
    from repro.api import Cursor, Session

    counting = _Counting()
    total = Counter()
    methods = [(Session, "prepare"), (Session, "execute"), (Cursor, "all")]
    originals = [getattr(owner, attribute) for owner, attribute in methods]

    def counted(method):
        def run(*args, **kwargs):
            result, calls = counting(lambda: method(*args, **kwargs))
            total.update(calls)
            return result
        return run

    for (owner, attribute), method in zip(methods, originals):
        setattr(owner, attribute, counted(method))
    try:
        workload.setup()
    finally:
        for (owner, attribute), method in zip(methods, originals):
            setattr(owner, attribute, method)
    return total


def measure_workload(name: str, scale: int) -> dict:
    """Every cell of one workload at one scale, in this process."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from e2e.workloads import BY_NAME

    with tempfile.TemporaryDirectory() as directory:
        workload = BY_NAME[name](SEED, scale, 1, directory)
        if name == "closure_after_write":
            first_execute = _counted_setup(workload)
        else:
            workload.setup()
        clock = _LedgerClock(*OPS[name])
        workload.run(clock)
        cells = _op_cells(name, workload, clock.counted)
        if name == "closure_after_write":
            cells[f"{name}.first_execute"] = _sum([first_execute])
        value, calls = _Counting()(workload.reopen)
        _checked("reopen", value, workload.check_reopened)
        cells[f"{name}.reopen"] = _sum([calls])
        workload.discard()
    return cells


# -- contract cells: each fixture returns its cell's sides ---------------------------
def _join_session(rows: int, keys: int):
    from repro import Session, parse_object

    return Session.over_object(parse_object(
        "[a_r: {" + ", ".join(f"[x: {i}, y: y{i % keys}]" for i in range(rows)) + "},"
        " b_r: {" + ", ".join(f"[y: y{i % keys}, z: z{i}]" for i in range(rows)) + "}]"
    ))


_JOIN = "[a_r: {[x: $x, y: Y]}, b_r: {[y: Y, z: Z]}]"


def _obs():
    """Tracing disabled (the shipped default) against the hooks stripped to no-ops."""
    from repro import Session, parse_object
    from repro.obs import metrics, trace

    session = _join_session(24, 4)
    prepared = session.prepare(_JOIN)
    closing = Session.over_object(parse_object(
        "[parent: {" + ", ".join(f"[of: p{i}, is: p{i + 1}]" for i in range(10)) + "}]"
    ))
    closing.register(
        "[anc: {[of: X, is: Y]}] :- [parent: {[of: X, is: Y]}].\n"
        "[anc: {[of: X, is: Z]}] :- [anc: {[of: X, is: Y]}, parent: {[of: Y, is: Z]}]."
    )

    def workload():
        for value in range(8):
            prepared.execute(x=value).all()
        session.query("[a_r: {[x: X, y: Y]}]")
        closing.register(())  # a new rule revision: close() recomputes
        closing.close()

    workload()  # warm the parse and compile memos
    trace.disable()
    disabled = count(workload, 3)
    hooks = trace.span, metrics.Counter.inc, metrics.Histogram.observe
    trace.span = lambda name, **attrs: trace.NULL_SPAN
    metrics.Counter.inc = lambda self, amount=1: None
    metrics.Histogram.observe = lambda self, value: None
    try:
        stripped = count(workload, 3)
    finally:
        trace.span, metrics.Counter.inc, metrics.Histogram.observe = hooks
    return {"disabled": disabled, "stripped": stripped}


def _lint():
    """``prepare(lint="warn")`` against ``lint="off"`` on a warm session."""
    session = _join_session(16, 4)
    session.prepare(_JOIN)  # warm the parse and compile memos
    return {
        "warn": count(lambda: session.prepare(_JOIN, lint="warn"), 20),
        "off": count(lambda: session.prepare(_JOIN, lint="off"), 20),
    }


_LIVE_RULES = """
[path: {[src: X, dst: Y]}] :- [edge: {[src: X, dst: Y]}].
[path: {[src: X, dst: Z]}] :- [path: {[src: X, dst: Y]}, edge: {[src: Y, dst: Z]}].
"""
#: A shape-dead recursive branch: every audit row's ``status`` is the atom
#: ``done``, never a tuple, so shape analysis refutes the literal once, while
#: a shape-blind engine scans the audit set in every round (its leaf has no
#: key: ``F`` is unbound, and the variable names differ per rule, RL004).
_DEAD_RULE = (
    "[path: {{[src: X{k}, dst: X{k}]}}] :-\n"
    "    [path: {{[src: X{k}, dst: _Y{k}]}},"
    " audit: {{[id: _I{k}, owner: W{k}, status: [flag: F{k}]]}}].\n"
)


def _shapes():
    """Plan + run with shape pruning against shape-blind evaluation."""
    from repro import Program, parse_object
    from repro.engine import SemiNaiveEngine
    from repro.lint.shapes import infer_shapes

    nodes, audits = 32, 2000
    edges = ", ".join(f"[src: n{i}, dst: n{i + 1}]" for i in range(nodes - 1))
    rows = ", ".join(f"[id: a{i}, owner: n{i % nodes}, status: done]" for i in range(audits))
    program = Program.from_source(
        _LIVE_RULES + "".join(_DEAD_RULE.format(k=k) for k in range(4)),
        database=parse_object(f"[edge: {{{edges}}}, audit: {{{rows}}}]"),
    )
    results = {}

    def evaluate(use_shapes):
        def run():
            infer_shapes.cache_clear()  # the pruned side pays for its analysis
            engine = SemiNaiveEngine(program.rules, use_shapes=use_shapes)
            results[use_shapes] = engine.run(program.seed())
        return run

    evaluate(True)()  # warm the parse and compile memos
    evaluate(False)()
    sides = {"pruned": count(evaluate(True)), "blind": count(evaluate(False))}
    assert results[True].value == results[False].value, "pruning changed the closure"
    assert results[True].stats.rules_pruned == 4, "shape analysis pruned no dead branch"
    return sides


def _streaming():
    """A cursor's first row against materialising every row (a quadratic self-join)."""
    from repro import Session, parse_formula, parse_object

    pairs = Session.over_object(parse_object(
        "[pairs: {" + ", ".join(f"[l: {i}, r: r{i}]" for i in range(24)) + "}]"
    ))
    body = parse_formula("[pairs: {[l: X], [r: Y]}]")
    assert not pairs.execute(body).one().is_bottom
    return {
        "first_row": count(lambda: pairs.execute(body).one(), 3),
        "materialise": count(lambda: pairs.execute(body).all(), 3),
    }


def _reduction():
    """Interned set reduction against the seed's quadratic scan over raw twins."""
    import importlib.util

    from repro.core import SetObject, clear_object_caches

    spec = importlib.util.spec_from_file_location(
        "bench_interning", os.path.join(ROOT, "benchmarks", "bench_interning.py")
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    elements = bench.make_reduction_elements(120)
    twins = [bench.raw_twin(element) for element in elements]
    for twin in twins:
        twin.sort_key()

    def reduce(build, items):
        def run():
            clear_object_caches()
            assert len(build(items)) == 120
        return run

    return {
        "interned": count(reduce(SetObject, elements)),
        "structural": count(reduce(bench.seed_reduce, twins)),
    }


def _join_order():
    """A chain join in the optimizer's leaf order against the source order."""
    from repro import parse_formula, parse_object
    from repro.plan import DatabaseStatistics, compile_body, match_rows, optimize_body
    from repro.plan.indexes import TargetIndexes

    def rows(maker):
        return ", ".join(maker(i) for i in range(400))

    # The selective relation c_r sorts last: the source order scans all of a_r
    # first, the optimizer probes c_r by its static key.
    chain = parse_object(
        "[a_r: {" + rows(lambda i: f"[x: {i}, y: y{i % 40}]") + "},"
        " b_r: {" + rows(lambda i: f"[y: y{i % 40}, z: z{i % 40}]") + "},"
        " c_r: {" + rows(lambda i: f"[z: z{i % 40}, tag: t{i % 80}]") + "}]"
    )
    body = parse_formula("[a_r: {[x: X, y: Y]}, b_r: {[y: Y, z: Z]}, c_r: {[z: Z, tag: t0]}]")
    indexes = TargetIndexes(chain)
    source = compile_body(body)
    ordered = optimize_body(source, DatabaseStatistics.collect(chain))
    assert str(ordered.leaves[0].path) == "c_r", "the optimizer should probe c_r first"

    def join(plan):
        return lambda: set(match_rows(plan, chain, indexes=indexes)[1])

    assert join(ordered)() == join(source)()
    return {"cost_ordered": count(join(ordered), 3), "source_ordered": count(join(source), 3)}


FIXTURES = {
    "obs.disabled_vs_stripped": _obs,
    "lint.warn_vs_off": _lint,
    "shapes.blind_vs_pruned": _shapes,
    "api.materialise_vs_first_row": _streaming,
    "core.set_reduction": _reduction,
    "plan.source_vs_cost_ordered": _join_order,
}


def _groups(cells) -> list:
    """The interpreters the cells need: ``workload@scale``, or the contract's name."""
    groups = []
    for cell in cells:
        wanted = [f"{cell.split('.')[0]}@{scale}" for scale in SCALES] if cell in SCALED else [cell]
        groups += [group for group in wanted if group not in groups]
    return groups


def measure_group(group: str) -> dict:
    """One group's cells, in this process: ``{cell: {scale or side: counts}}``."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if "@" not in group:
        return {group: {side: dict(counts) for side, counts in FIXTURES[group]().items()}}
    name, scale = group.split("@")
    return {cell: {scale: counts} for cell, counts in measure_workload(name, int(scale)).items()}


def measure(cells, hash_seed: str = "0") -> dict:
    """The named cells, each group in a fresh interpreter under ``PYTHONHASHSEED``."""
    result = {}
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    for group in _groups(cells):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--measure", group],
            env=env, capture_output=True, text=True,
        )
        if done.returncode:
            raise RuntimeError(f"measuring {group} failed:\n{done.stderr}")
        for cell, parts in json.loads(done.stdout.splitlines()[-1]).items():
            if cell in cells:
                result.setdefault(cell, {}).update(parts)
    for cell in result:
        result[cell]["ratio"] = round(ratio(cell, result[cell]), 4)
    return result


# -- the checker ----------------------------------------------------------------------
def ratio(name: str, cell: dict) -> float:
    """Per-op calls at scale 3 over scale 1, or a contract's numerator over its denominator."""
    if name in SCALED:
        high, low = (cell[str(scale)] for scale in reversed(SCALES))
        return (high["calls"] / high["ops"]) / (low["calls"] / low["ops"])
    numerator, denominator, _, _ = CONTRACTS[name]
    return cell[numerator]["calls"] / cell[denominator]["calls"]


def gate(name: str, cell: dict):
    """Why the cell misses its declared gate, or ``None``."""
    value = ratio(name, cell)
    if name in CONTRACTS:
        _, _, op, bound = CONTRACTS[name]
        held = value <= bound if op == "<=" else value >= bound
        return None if held else f"{name}: ratio {value:.4f}, bound {op} {bound}"
    growth, owner = SCALED[name]
    held = value <= GROWTH[growth]
    if owner is None:
        return None if held else f"{name}: grows ×{value:.3f}, {growth} allows ×{GROWTH[growth]}"
    if held:
        return (f"{name}: strict xfail passes (×{value:.3f} is {growth}); item {owner}"
                " must drop the mark")
    return None


def _changes(cell: dict, before: dict):
    """``(key, count before, count now)`` for every count the two cells disagree on."""
    def flat(record):
        return {
            f"{part}.{key}": number
            for part, counts in record.items() if isinstance(counts, dict)
            for key, number in counts.items()
        }
    now, then = flat(cell), flat(before)
    for key in sorted(now.keys() | then.keys()):
        if now.get(key, 0) != then.get(key, 0):
            yield key, then.get(key, 0), now.get(key, 0)


def verdicts(fresh: dict, recorded: dict, update: bool = False) -> list:
    """Every failure of the ``fresh`` cells against the ``recorded`` ones and the gates."""
    failures = []
    for name in sorted(fresh):
        if not update and name not in recorded:
            failures.append(f"{name}: not in COST.json; record it with --update")
        elif not update:
            for key, old, new in _changes(fresh[name], recorded[name]):
                failures.append(
                    f"{name}: {key} rose {old} → {new}" if new > old else
                    f"{name}: {key} fell {old} → {new}; re-record it with --update"
                    " and name the cell and the reason in CHANGES.md"
                )
        missed = gate(name, fresh[name])
        if missed:
            failures.append(missed)
    return failures


def _report(cells: dict) -> None:
    for name in sorted(cells):
        cell = cells[name]
        parts = ", ".join(
            f"{part}: {counts['calls'] / counts.get('ops', 1):,.1f}"
            for part, counts in cell.items() if isinstance(counts, dict)
        )
        print(f"{name:34s} ×{cell['ratio']:<8.4f} {parts}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with COST.json exactly")
    mode.add_argument("--update", action="store_true", help="rewrite COST.json")
    mode.add_argument("--selftest", action="store_true",
                      help="3 runs × PYTHONHASHSEED 0 and 123 must count alike")
    mode.add_argument("--measure", metavar="GROUP", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure_group(args.measure)))
        return 0
    if not sys.version.startswith(PYTHON + "."):
        print(f"COST.json holds CPython {PYTHON}'s counts; this is {sys.version.split()[0]}")
        return 2
    cells = [*SCALED, *CONTRACTS]
    if args.selftest:
        runs = [(seed, measure(cells, seed)) for seed in ("0", "123") for _ in range(3)]
        first = runs[0][1]
        _report(first)
        differ = sorted({
            f"{cell} {key}: {old} at PYTHONHASHSEED 0, {new} at {seed}"
            for seed, run in runs[1:] for cell in cells
            for key, old, new in _changes(run[cell], first[cell])
        })
        for line in differ:
            print("DIFFERS", line)
        print(f"selftest: {len(runs)} runs,", "counts differ" if differ else "identical counts")
        return 1 if differ else 0
    recorded = {}
    if os.path.exists(LEDGER):
        with open(LEDGER, encoding="utf-8") as handle:
            recorded = json.load(handle)["cells"]
    fresh = measure(cells)
    _report(fresh)
    failures = verdicts(fresh, recorded, update=args.update)
    for failure in failures:
        print("FAIL", failure)
    if failures:
        return 1
    if args.update:
        with open(LEDGER, "w", encoding="utf-8") as handle:
            json.dump({"python": PYTHON, "seed": SEED, "cells": fresh}, handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(LEDGER)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
