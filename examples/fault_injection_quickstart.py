#!/usr/bin/env python3
"""Robustness quickstart: fault injection → crash recovery → retries → deadlines.

:mod:`repro.fault` is the robustness toolkit the store and session layers are
hardened with.  Everything here is off by default and nearly free when off
(the disabled-injection contract is pinned by
``benchmarks/run_fault_benchmarks.py``).  This walkthrough covers:

1. deterministic fault injection — ``inject("store.wal.fsync:fail:times=1")``
   makes the next fsync fail, exactly once, reproducibly; the store
   self-heals the aborted append;
2. simulated crashes and recovery — a ``torn_crash`` spec kills the "process"
   mid-append; reopening the WAL truncates the torn tail back to the last
   committed record (the crash-consistency sweep does this at *every*
   boundary: ``python -m repro.fault.sweep --smoke``);
3. quarantine — in-place corruption is moved to a ``.quarantine`` sidecar on
   open, keeping the longest intact prefix instead of refusing to start;
4. bounded conflict retry — ``Session.transact`` re-runs a read-modify-write
   under a jittered-backoff ``RetryPolicy`` when another writer wins;
5. lock timeouts — ``WriteLock.acquire(timeout=...)`` (the store's writer
   mutex) raises ``LockTimeout`` instead of hanging;
6. query deadlines — ``execute(..., timeout_ms=...)`` raises ``QueryTimeout``
   with the partial closure and a plan rendering attached.

Run with::

    python examples/fault_injection_quickstart.py
"""

import os
import sys
import tempfile
import threading

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro
from repro import obj
from repro.core.errors import InjectedFault, LockTimeout, QueryTimeout
from repro.fault import SimulatedCrash, inject
from repro.store import FileStorage, ObjectDatabase
from repro.store.locks import WriteLock
from repro.store.retry import RetryPolicy


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    scratch = tempfile.mkdtemp(prefix="repro-fault-demo-")
    path = os.path.join(scratch, "demo.wal")

    banner("1. Injected fsync failure: the append self-heals")
    database = ObjectDatabase(FileStorage(path))
    database.put("committed", obj({"v": 1}))
    with inject("store.wal.fsync:fail:times=1"):
        try:
            database.put("lost", obj({"v": 2}))
        except InjectedFault as error:
            print(f"append failed as injected: {error}")
    print(f"log untouched, store still usable: names = {database.names()}")
    database.put("after", obj({"v": 3}))
    print(f"next commit lands cleanly:        names = {database.names()}")
    database.close()

    banner("2. Simulated crash mid-append: recovery truncates the torn tail")
    database = ObjectDatabase(FileStorage(path))
    size_before = os.path.getsize(path)
    with inject("store.wal.append:torn_crash", seed=7):
        try:
            database.put("in_flight", obj({"v": 4}))
        except SimulatedCrash:
            print("the process 'died' with a partial record on disk")
    database.close()
    print(f"torn bytes on disk: {os.path.getsize(path) - size_before}")
    recovered = ObjectDatabase(FileStorage(path))
    print(f"recovery truncated back to the commit boundary: {recovered.names()}")
    recovered.close()

    banner("3. In-place corruption: quarantined on open, prefix preserved")
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    lines[1] = lines[1].replace('"commit"', '"COMMIT"')  # flip bytes in record 2
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    log = FileStorage(path)
    recovered = ObjectDatabase(log)
    print(f"intact prefix:        {recovered.names()}")
    print(
        f"quarantined: {log.quarantined_records} records,"
        f" {log.quarantined_bytes} bytes -> {log.quarantine_path}"
    )
    recovered.close()
    print("offline check (read-only): python -m repro store --db-path ... verify")

    banner("4. Conflict storm through Session.transact: no update lost")
    with repro.connect() as session:
        session.put("counter", obj(0))
        policy = RetryPolicy(max_attempts=16, seed=42)

        def bump():
            for _ in range(25):
                session.transact(
                    lambda txn: txn.put("counter", obj(txn.get("counter").value + 1)),
                    retry=policy,
                )

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        print(f"4 writers x 25 increments = {session.get('counter').to_text()}")
        retries = repro.obs.snapshot()["counters"].get("store.retries", 0)
        print(f"conflicts retried so far (process-wide): {retries}")

    banner("5. Lock timeouts: bounded waits instead of hangs")
    lock = WriteLock()
    lock.acquire()
    try:
        lock.acquire(timeout=0.05)
    except LockTimeout as error:
        print(f"second writer gave up on time: {error}")
    finally:
        lock.release()

    banner("6. Query deadlines: QueryTimeout with the partial work attached")
    with repro.connect() as session:
        session.put("list", repro.parse_object("{[head: 0]}"))
        session.register("[list: {[head: 1, tail: X]}] :- [list: {X}].")
        try:
            session.execute("[list: X]", on_closure=True, timeout_ms=5).all()
        except QueryTimeout as error:
            print(f"timed out: {error}")
            print(f"elapsed_ms={error.elapsed_ms:.1f}, partial attached:"
                  f" {error.partial is not None}")

    print()
    print(f"scratch files left in {scratch} for inspection")


if __name__ == "__main__":
    main()
