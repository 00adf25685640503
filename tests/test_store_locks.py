"""Unit tests for the store's writer mutex: timeouts, no leaks, fault points."""

import threading
import time

import pytest

from repro.core.errors import LockTimeout, StoreError
from repro.fault.injection import inject
from repro.store.locks import WriteLock


class TestTimeouts:
    def test_write_timeout_never_hangs_past_deadline(self):
        lock = WriteLock()
        lock.acquire()
        start = time.monotonic()
        with pytest.raises(LockTimeout):
            lock.acquire(timeout=0.05)
        elapsed = time.monotonic() - start
        assert 0.04 <= elapsed < 1.0
        lock.release()

    def test_lock_timeout_is_a_store_error(self):
        assert issubclass(LockTimeout, StoreError)

    def test_default_timeout_applies_to_context_managers(self):
        lock = WriteLock(default_timeout=0.05)
        lock.acquire()
        with pytest.raises(LockTimeout):
            with lock:
                pass  # pragma: no cover - never acquired
        lock.release()

    def test_explicit_timeout_overrides_default(self):
        lock = WriteLock(default_timeout=30.0)
        lock.acquire()
        start = time.monotonic()
        with pytest.raises(LockTimeout):
            lock.acquire(timeout=0.05)
        assert time.monotonic() - start < 1.0
        lock.release()

    def test_timed_out_state_is_untouched(self):
        lock = WriteLock()
        lock.acquire()
        with pytest.raises(LockTimeout):
            lock.acquire(timeout=0.01)
        lock.release()
        # The failed acquisition left no residue: the lock is free.
        with lock:
            pass
        lock.acquire(timeout=0.01)
        lock.release()


class TestLockFaultPoints:
    def test_delay_spec_forces_deterministic_contention(self):
        lock = WriteLock()
        with inject("store.lock.write_held:delay:delay_ms=80,times=1"):
            held = threading.Event()

            def slow_writer():
                lock.acquire()  # dawdles 80ms inside the fault point
                held.set()
                time.sleep(0.05)
                lock.release()

            thread = threading.Thread(target=slow_writer)
            thread.start()
            time.sleep(0.02)
            with pytest.raises(LockTimeout):
                lock.acquire(timeout=0.02)
            thread.join(timeout=2.0)

    def test_raising_fault_does_not_leak_the_lock(self):
        lock = WriteLock()
        with inject("store.lock.write_held:fail:times=1"):
            with pytest.raises(StoreError):
                lock.acquire()
        # The fault fired post-acquire but the lock was released on the way
        # out: the next writer takes it immediately.
        lock.acquire(timeout=0.5)
        lock.release()
