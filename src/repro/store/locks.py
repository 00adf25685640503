"""The object store's writer mutex.

Readers take no lock: every commit publishes one immutable state (see
:mod:`repro.store.database`), so a reader reads whichever state is current
and keeps it as long as it likes.  :class:`WriteLock` serialises what still
mutates in place — commits and compaction — so first-committer-wins is
decided under the same lock that publishes the decision.  It is
non-reentrant.

Graceful degradation: :meth:`WriteLock.acquire` takes ``timeout=`` (seconds)
and raises a typed :class:`~repro.core.errors.LockTimeout` instead of
blocking past the deadline; ``default_timeout`` applies the same bound to
``with lock:`` (how :class:`~repro.store.database.ObjectDatabase` arms it).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.core.errors import LockTimeout
from repro.fault import injection as _fault
from repro.obs.metrics import REGISTRY as _METRICS

__all__ = ["WriteLock"]


class WriteLock:
    """A mutual-exclusion lock with optional timeouts and contention metrics."""

    def __init__(self, *, default_timeout: Optional[float] = None):
        self._mutex = threading.Lock()
        self.default_timeout = default_timeout

    def acquire(self, timeout: Optional[float] = None) -> None:
        """Take the lock; ``timeout`` (seconds, default ``default_timeout``) bounds the wait."""
        if not self._mutex.acquire(blocking=False):
            if timeout is None:
                timeout = self.default_timeout
            wait_start = time.perf_counter_ns()
            if not self._mutex.acquire(timeout=-1 if timeout is None else max(timeout, 0)):
                _METRICS.counter("store.lock.timeouts").inc()
                raise LockTimeout(
                    f"write lock not acquired within {timeout:g} s"
                    " (another writer holds it)"
                )
            _METRICS.counter("store.lock.write_contended").inc()
            _METRICS.histogram("store.lock.write_wait_ns").observe(
                time.perf_counter_ns() - wait_start
            )
        if _fault.ACTIVE is not None:
            # Fired while the lock is held: a delay spec turns this writer
            # into a deterministic lock hog (LockTimeout tests).  A raising
            # mode must not leak the freshly-taken lock.
            try:
                _fault.fire("store.lock.write_held")
            except BaseException:
                self._mutex.release()
                raise

    def release(self) -> None:
        self._mutex.release()

    def __enter__(self) -> "WriteLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._mutex.release()
