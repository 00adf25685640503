#!/usr/bin/env python
"""Emit the machine-readable robustness benchmark record ``BENCH_fault.json``.

Companion to the cost ledger's ``obs.disabled_vs_stripped`` cell
(``tools/cost_ledger.py``, the observability cost contract): this script
pins the **cost and liveness contracts** of :mod:`repro.fault` and the
store's retry layer —

* **disabled injection overhead** — the headline guarantee: a WAL commit
  workload with the fault-injection points present-but-disarmed (the shipped
  default: one module-global ``None`` check per point) must stay within
  **5%** of the same workload with ``injection.fire`` monkeypatched to a
  literal no-op and the ``ACTIVE`` guard forced cold.  That is the
  "zero-cost when disabled" promise, measured;
* **conflict storm** — 4 writer threads × N increments through
  ``Session.transact`` over one shared counter: *every* commit must land
  (no lost updates, no exhausted retries) under the default bounded
  backoff policy.  Enforced in both modes — it is a liveness assertion,
  not a timing;
* **retry-path latency** — the cost of a conflicted CAS commit that retries
  once (with sleeping stubbed out), vs an uncontended commit — what one
  conflict actually costs on top of the happy path;
* **lock timeout punctuality** — a read acquisition against a held write
  lock with ``timeout=10ms`` must raise within 10x the bound (never hang);
* **query timeout punctuality** — a streaming query over a cross product far
  too large to finish, issued with ``timeout_ms=10``, must raise
  ``QueryTimeout`` within the same 10x factor.  The vectorized executor
  checks the deadline once per operator batch rather than once per tuple;
  this bound pins that batching never stretches a timeout into a hang.

Usage::

    PYTHONPATH=src python benchmarks/run_fault_benchmarks.py [--smoke] [--output PATH]

``--smoke`` shrinks sizes and repetitions so CI can exercise the harness in
seconds; in that mode the overhead ceiling is recorded but not enforced.  In
full mode the script exits non-zero when disabled injection costs more than
5% over the stripped baseline.  The conflict-storm and lock-punctuality
assertions are enforced in **both** modes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import threading
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: The enforced ceiling: disabled-injection wall time over the stripped
#: baseline's (1.0 would be literally free).
MAX_DISABLED_OVERHEAD = 1.05

#: Lock timeouts must fire near the bound; 10x covers scheduler noise while
#: still catching "waits forever" and "ignores the deadline" regressions.
MAX_LOCK_TIMEOUT_FACTOR = 10.0

#: Query timeouts share the lock bound: per-batch deadline polls must still
#: fire within 10x of ``timeout_ms`` on a query that cannot finish in time.
MAX_QUERY_TIMEOUT_FACTOR = 10.0


def _median_ns(func, *, repeats: int, number: int) -> float:
    """Median wall time of one call, measured over ``repeats`` batches."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(number):
            func()
        samples.append((time.perf_counter_ns() - start) / number)
    return statistics.median(samples)


class _StrippedInjection:
    """Monkeypatch the injection hooks to literal no-ops.

    The baseline: what the store would cost with the ``repro.fault`` call
    sites deleted.  ``injection.fire`` becomes a constant-``None`` lambda
    and the ``ACTIVE`` global the hot paths guard on stays ``None``, so the
    measured difference against the default build is exactly the price of
    having the injection points in the code.
    """

    def __enter__(self):
        from repro.fault import injection

        self._fire = injection.fire
        injection.fire = lambda point, size=None: None
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        from repro.fault import injection

        injection.fire = self._fire
        return False


def _commit_workload(directory: str, commits: int):
    """One WAL lifecycle: open, N commits through the locked database, close."""
    from repro.core.builder import obj
    from repro.store.database import ObjectDatabase
    from repro.store.storage import FileStorage

    path = os.path.join(directory, "bench.wal")
    if os.path.exists(path):
        os.remove(path)
    database = ObjectDatabase(FileStorage(path))
    for index in range(commits):
        with database.transaction() as txn:
            txn.put(f"o{index % 8}", obj([index, index + 1]))
    database.close()


def _bench_disabled_overhead(smoke: bool, results: dict) -> float:
    repeats = 3 if smoke else 9
    commits = 20 if smoke else 120
    with tempfile.TemporaryDirectory(prefix="repro-fault-bench-") as scratch:
        workload = lambda: _commit_workload(scratch, commits)
        workload()  # warm the page cache and interned-object memos
        disabled_ns = _median_ns(workload, repeats=repeats, number=1)
        with _StrippedInjection():
            stripped_ns = _median_ns(workload, repeats=repeats, number=1)
    results["commits_stripped"] = {"median_ns": round(stripped_ns, 1)}
    results["commits_disabled"] = {"median_ns": round(disabled_ns, 1)}
    return disabled_ns / stripped_ns


def _bench_conflict_storm(smoke: bool, results: dict) -> dict:
    """4 writers × N transact increments: every commit must land."""
    import repro
    from repro.core.builder import obj

    writers = 4
    increments = 10 if smoke else 50
    with repro.connect() as session:
        session.put("counter", obj(0))
        errors = []

        def bump():
            try:
                for _ in range(increments):
                    session.transact(
                        lambda txn: txn.put(
                            "counter", obj(txn.get("counter").value + 1)
                        )
                    )
            except Exception as error:
                errors.append(repr(error))

        start = time.perf_counter_ns()
        threads = [threading.Thread(target=bump) for _ in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed_ns = time.perf_counter_ns() - start
        final = session.get("counter").value
    expected = writers * increments
    outcome = {
        "writers": writers,
        "increments_per_writer": increments,
        "expected": expected,
        "committed": final,
        "errors": errors,
        "elapsed_ns": elapsed_ns,
        "ns_per_commit": round(elapsed_ns / expected, 1),
        "all_commits_landed": final == expected and not errors,
    }
    results["conflict_storm"] = outcome
    return outcome


def _bench_retry_latency(smoke: bool, results: dict) -> None:
    """What one conflicted-then-retried CAS costs over the happy path."""
    from repro.core.builder import obj
    from repro.store.database import ObjectDatabase
    from repro.store.retry import RetryPolicy

    repeats = 3 if smoke else 9
    number = 20 if smoke else 200
    policy = RetryPolicy(max_attempts=4, base_delay_ms=0.0, jitter=False, sleep=lambda _: None)

    database = ObjectDatabase()
    database.put("doc", obj({"v": 0}))
    uncontended_ns = _median_ns(
        lambda: database.update("doc", "v", 1, retry=policy),
        repeats=repeats,
        number=number,
    )

    contended = ObjectDatabase()
    contended.put("doc", obj({"v": 0}))
    original = contended.commit_batch
    state = {"tick": 0, "arm": False}

    def interfering(changes, *, expected=None):
        if state["arm"] and expected:
            # Sneak a competing commit between the CAS read and its commit,
            # forcing exactly one ConflictError + one retry per update.
            state["arm"] = False
            state["tick"] += 1
            original({"doc": obj({"v": 10_000 + state["tick"]})})
        return original(changes, expected=expected)

    contended.commit_batch = interfering

    def conflicted_update():
        state["arm"] = True
        contended.update("doc", "v", 2, retry=policy)

    one_retry_ns = _median_ns(conflicted_update, repeats=repeats, number=number)
    results["cas_uncontended"] = {"median_ns": round(uncontended_ns, 1)}
    results["cas_one_retry"] = {"median_ns": round(one_retry_ns, 1)}
    results["retry_penalty"] = {
        "ratio": round(one_retry_ns / uncontended_ns, 4)
    }


def _bench_lock_timeout(smoke: bool, results: dict) -> dict:
    """A bounded acquisition against a held lock must fail on time."""
    from repro.core.errors import LockTimeout
    from repro.store.locks import WriteLock

    bound_s = 0.01
    attempts = 3 if smoke else 10
    lock = WriteLock()
    lock.acquire()
    overshoots = []
    try:
        for _ in range(attempts):
            start = time.perf_counter_ns()
            try:
                lock.acquire(timeout=bound_s)
            except LockTimeout:
                pass
            else:  # pragma: no cover - the lock is held; acquisition is a bug
                raise AssertionError("acquire succeeded against a held lock")
            overshoots.append((time.perf_counter_ns() - start) / 1e9 / bound_s)
    finally:
        lock.release()
    worst = max(overshoots)
    outcome = {
        "bound_ms": bound_s * 1000,
        "attempts": attempts,
        "worst_factor": round(worst, 3),
        "within_bound": worst <= MAX_LOCK_TIMEOUT_FACTOR,
    }
    results["lock_timeout"] = outcome
    return outcome


def _bench_query_timeout(smoke: bool, results: dict) -> dict:
    """A streaming query with ``timeout_ms=10`` must raise near the bound.

    The workload is a three-way cross product (~1M candidate rows) that no
    executor finishes in 10ms; the vectorized executor polls the deadline
    once per operator batch, so this measures exactly the worst batch's
    stretch past the bound.
    """
    import repro
    from repro.core.builder import obj
    from repro.core.errors import QueryTimeout

    bound_ms = 10
    attempts = 3 if smoke else 10
    size = 100
    overshoots = []
    with repro.connect() as session:
        session.put(
            "rel",
            obj(
                {
                    "a": [{"x": f"a{i}"} for i in range(size)],
                    "b": [{"y": f"b{i}"} for i in range(size)],
                    "c": [{"z": f"c{i}"} for i in range(size)],
                }
            ),
        )
        body = "[rel: [a: {[x: X]}, b: {[y: Y]}, c: {[z: Z]}]]"
        for _ in range(attempts):
            start = time.perf_counter_ns()
            try:
                for _ in session.execute(body, timeout_ms=bound_ms):
                    pass
            except QueryTimeout:
                pass
            else:  # pragma: no cover - 1M rows never drain in 10ms
                raise AssertionError("cross-product query finished inside 10ms")
            elapsed_ms = (time.perf_counter_ns() - start) / 1e6
            overshoots.append(elapsed_ms / bound_ms)
    worst = max(overshoots)
    outcome = {
        "bound_ms": bound_ms,
        "attempts": attempts,
        "worst_factor": round(worst, 3),
        "within_bound": worst <= MAX_QUERY_TIMEOUT_FACTOR,
    }
    results["query_timeout"] = outcome
    return outcome


def run_suite(smoke: bool) -> dict:
    results: dict = {}
    overhead = _bench_disabled_overhead(smoke, results)
    storm = _bench_conflict_storm(smoke, results)
    _bench_retry_latency(smoke, results)
    punctuality = _bench_lock_timeout(smoke, results)
    query_punctuality = _bench_query_timeout(smoke, results)
    return {
        "schema": "bench-fault/v1",
        "mode": "smoke" if smoke else "full",
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "max_lock_timeout_factor": MAX_LOCK_TIMEOUT_FACTOR,
        "max_query_timeout_factor": MAX_QUERY_TIMEOUT_FACTOR,
        "benchmarks": results,
        "overheads": {
            "disabled_vs_stripped": round(overhead, 4),
        },
        "assertions": {
            "all_commits_landed": storm["all_commits_landed"],
            "lock_timeout_within_bound": punctuality["within_bound"],
            "query_timeout_within_bound": query_punctuality["within_bound"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fast CI mode, overhead not enforced")
    parser.add_argument("--output", default="BENCH_fault.json", help="where to write the record")
    args = parser.parse_args(argv)

    record = run_suite(args.smoke)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, stats in sorted(record["benchmarks"].items()):
        if "median_ns" in stats:
            print(f"{name:24s} {stats['median_ns']:>14,.0f} ns")
    storm = record["benchmarks"]["conflict_storm"]
    print(
        f"{'conflict_storm':24s} {storm['committed']}/{storm['expected']}"
        f" commits, {storm['ns_per_commit']:,.0f} ns/commit"
    )
    lock = record["benchmarks"]["lock_timeout"]
    print(f"{'lock_timeout':24s} worst {lock['worst_factor']:.2f}x the bound")
    query = record["benchmarks"]["query_timeout"]
    print(f"{'query_timeout':24s} worst {query['worst_factor']:.2f}x the bound")
    for name, ratio in sorted(record["overheads"].items()):
        print(f"overhead {name:22s} {ratio:>8.3f}x")
    print(f"wrote {args.output}")

    failed = False
    # The liveness and punctuality assertions hold in every mode.
    if not record["assertions"]["all_commits_landed"]:
        print(
            f"FAIL: conflict storm lost commits"
            f" ({storm['committed']}/{storm['expected']} landed,"
            f" errors: {storm['errors']})",
            file=sys.stderr,
        )
        failed = True
    if not record["assertions"]["lock_timeout_within_bound"]:
        print(
            f"FAIL: lock timeout overshot its bound by {lock['worst_factor']:.1f}x"
            f" (ceiling {MAX_LOCK_TIMEOUT_FACTOR:.1f}x)",
            file=sys.stderr,
        )
        failed = True
    if not record["assertions"]["query_timeout_within_bound"]:
        print(
            f"FAIL: query timeout overshot its bound by {query['worst_factor']:.1f}x"
            f" (ceiling {MAX_QUERY_TIMEOUT_FACTOR:.1f}x)",
            file=sys.stderr,
        )
        failed = True
    if not args.smoke:
        overhead = record["overheads"]["disabled_vs_stripped"]
        if overhead > MAX_DISABLED_OVERHEAD:
            print(
                f"FAIL: disabled fault injection costs {overhead:.3f}x the"
                f" stripped baseline (ceiling {MAX_DISABLED_OVERHEAD:.2f}x)",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
