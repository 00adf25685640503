#!/usr/bin/env python
"""Emit the machine-readable observability benchmark record ``BENCH_obs.json``.

Companion to ``run_benchmarks.py`` (core), ``run_store_benchmarks.py``
(storage), ``run_plan_benchmarks.py`` (planner) and ``run_api_benchmarks.py``
(sessions): this script pins the **cost contract** of :mod:`repro.obs` —

* **disabled overhead** — the headline guarantee: a representative query
  workload with observability present-but-disabled (the shipped default)
  must stay within **5%** of the same workload with the instrumentation
  hooks monkeypatched to literal no-ops (``trace.span`` returning a
  constant, ``Counter.inc``/``Histogram.observe`` doing nothing).  That is
  the "compiles to no-ops when off" promise, measured;
* **enabled overhead** — the same workload with tracing on, reported for
  information (tracing is opt-in; no target is enforced);
* **span micro-cost** — one disabled ``span()`` call vs one enabled
  span enter/exit, in nanoseconds;
* **snapshot cost** — one :func:`repro.obs.snapshot` export.

Usage::

    PYTHONPATH=src python benchmarks/run_obs_benchmarks.py [--smoke] [--output PATH]

``--smoke`` shrinks sizes and repetitions so CI can exercise the harness in
seconds; in that mode the overhead ceiling is recorded but not enforced.  In
full mode the script exits non-zero when the disabled-tracing workload runs
more than 5% slower than the stripped baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: The enforced ceiling: disabled-observability wall time over the stripped
#: baseline's (1.0 would be literally free).
MAX_DISABLED_OVERHEAD = 1.05


def _median_ns(func, *, repeats: int, number: int) -> float:
    """Median wall time of one call, measured over ``repeats`` batches."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(number):
            func()
        samples.append((time.perf_counter_ns() - start) / number)
    return statistics.median(samples)


def _workload(session, prepared, cycle, rules_session):
    """One representative slice of instrumented work: queries + a closure."""
    for value in cycle:
        prepared.execute(x=value).all()
    session.query("[a_r: {[x: X, y: Y]}]")
    rules_session.register(())  # a new rule revision: close() recomputes
    rules_session.close()


def _build_fixtures(smoke: bool):
    from repro import Session, parse_object

    rows = 8 if smoke else 24
    database = parse_object(
        "[a_r: {" + ", ".join(
            f"[x: {i}, y: y{i % 4}]" for i in range(rows)
        ) + "},"
        " b_r: {" + ", ".join(
            f"[y: y{i % 4}, z: z{i}]" for i in range(rows)
        ) + "}]"
    )
    session = Session.over_object(database)
    prepared = session.prepare("[a_r: {[x: $x, y: Y]}, b_r: {[y: Y, z: Z]}]")
    cycle = [i % rows for i in range(4 if smoke else 8)]

    rules_session = Session.over_object(
        parse_object(
            "[parent: {" + ", ".join(
                f"[of: p{i}, is: p{i + 1}]" for i in range(4 if smoke else 10)
            ) + "}]"
        )
    )
    rules_session.register(
        "[anc: {[of: X, is: Y]}] :- [parent: {[of: X, is: Y]}].\n"
        "[anc: {[of: X, is: Z]}] :- [anc: {[of: X, is: Y]},"
        " parent: {[of: Y, is: Z]}]."
    )
    return session, prepared, cycle, rules_session


class _StrippedHooks:
    """Monkeypatch the instrumentation hooks to literal no-ops.

    This is the benchmark's baseline: what the library would cost with the
    ``repro.obs`` call sites deleted.  ``trace.span`` becomes a constant
    return (no global read, no None check), counters and histograms become
    empty methods — so the measured difference against the default build is
    exactly the price of having the hooks in the code.
    """

    def __enter__(self):
        from repro.obs import metrics, trace

        self._span = trace.span
        self._inc = metrics.Counter.inc
        self._observe = metrics.Histogram.observe
        null = trace.NULL_SPAN
        trace.span = lambda name, **attrs: null
        metrics.Counter.inc = lambda self, amount=1: None
        metrics.Histogram.observe = lambda self, value: None
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        from repro.obs import metrics, trace

        trace.span = self._span
        metrics.Counter.inc = self._inc
        metrics.Histogram.observe = self._observe
        return False


def run_suite(smoke: bool) -> dict:
    import repro.obs
    from repro.obs import trace

    repeats = 3 if smoke else 9
    number = 1 if smoke else 5
    results = {}

    fixtures = _build_fixtures(smoke)
    workload = lambda: _workload(*fixtures)
    workload()  # warm caches (parse/compile memos) before any measurement

    # -- the enforced comparison: default(disabled) vs stripped hooks -----------------
    trace.disable()
    disabled_ns = _median_ns(workload, repeats=repeats, number=number)
    with _StrippedHooks():
        stripped_ns = _median_ns(workload, repeats=repeats, number=number)
    # -- informational: the same workload with tracing on ------------------------------
    tracer = trace.enable(max_traces=32)
    enabled_ns = _median_ns(workload, repeats=repeats, number=number)
    tracer.clear()
    trace.disable()

    results["workload_stripped"] = {"median_ns": round(stripped_ns, 1)}
    results["workload_disabled"] = {"median_ns": round(disabled_ns, 1)}
    results["workload_traced"] = {"median_ns": round(enabled_ns, 1)}

    # -- micro-costs -------------------------------------------------------------------
    span_repeats, span_number = (3, 1000) if smoke else (9, 20000)
    disabled_span_ns = _median_ns(
        lambda: trace.span("bench.micro"),
        repeats=span_repeats,
        number=span_number,
    )

    def enabled_span():
        with trace.span("bench.micro"):
            pass

    trace.enable(max_traces=4)
    enabled_span_ns = _median_ns(
        enabled_span, repeats=span_repeats, number=span_number
    )
    trace.disable()
    results["span_disabled"] = {"median_ns": round(disabled_span_ns, 1)}
    results["span_enabled"] = {"median_ns": round(enabled_span_ns, 1)}

    # -- snapshot export ---------------------------------------------------------------
    snapshot_ns = _median_ns(
        lambda: json.dumps(repro.obs.snapshot()),
        repeats=repeats,
        number=10 if smoke else 200,
    )
    results["snapshot_json"] = {"median_ns": round(snapshot_ns, 1)}

    return {
        "schema": "bench-obs/v1",
        "mode": "smoke" if smoke else "full",
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "benchmarks": results,
        "overheads": {
            "disabled_vs_stripped": round(disabled_ns / stripped_ns, 4),
            "traced_vs_disabled": round(enabled_ns / disabled_ns, 4),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fast CI mode, no enforcement")
    parser.add_argument("--output", default="BENCH_obs.json", help="where to write the record")
    args = parser.parse_args(argv)

    record = run_suite(args.smoke)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, stats in sorted(record["benchmarks"].items()):
        print(f"{name:24s} {stats['median_ns']:>14,.0f} ns")
    for name, ratio in sorted(record["overheads"].items()):
        print(f"overhead {name:22s} {ratio:>8.3f}x")
    print(f"wrote {args.output}")

    if not args.smoke:
        overhead = record["overheads"]["disabled_vs_stripped"]
        if overhead > MAX_DISABLED_OVERHEAD:
            print(
                f"FAIL: disabled observability costs {overhead:.3f}x the stripped"
                f" baseline (ceiling {MAX_DISABLED_OVERHEAD:.2f}x)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
