"""Concurrency and crash-recovery tests for the store subsystem.

Covers the two guarantees the storage rework is responsible for:

* **Crash recovery** — a WAL-backed database killed mid-commit reopens with
  every previously committed object intact and no trace of the in-flight
  transaction (the torn tail is truncated away);
* **Isolation** — concurrent readers only ever observe fully-committed
  states, and concurrent writers serialise correctly under optimistic
  conflict detection (lost updates are impossible).
"""

import threading

from repro.core.builder import obj
from repro.core.errors import TransactionError
from repro.store.codec import encode_json, frame_record
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage


class TestCrashRecovery:
    def test_kill_mid_commit_preserves_every_committed_object(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = ObjectDatabase(FileStorage(path))
        for round_number in range(10):
            with database.transaction() as txn:
                txn.put("counter", obj({"value": round_number}))
                txn.put(f"entry{round_number}", obj({"round": round_number}))
        database.close()

        # Simulate the process dying mid-commit: the WAL append of an
        # in-flight transaction stops partway through the record, before the
        # terminating newline ever reaches the disk.
        in_flight = frame_record(
            {
                "op": "commit",
                "writes": {
                    "counter": encode_json(obj({"value": 999})),
                    "entry_inflight": encode_json(obj({"round": 999})),
                },
            }
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(in_flight[: len(in_flight) // 2])

        recovered = ObjectDatabase(FileStorage(path))
        # Every committed object is intact...
        assert recovered["counter"] == obj({"value": 9})
        for round_number in range(10):
            assert recovered[f"entry{round_number}"] == obj({"round": round_number})
        # ...and the in-flight transaction left no trace.
        assert "entry_inflight" not in recovered
        assert len(recovered) == 11
        recovered.close()

    def test_recovered_database_accepts_new_commits(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("a", obj(1))
        database.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op":"commit","writes":{"b"')
        recovered = ObjectDatabase(FileStorage(path))
        recovered.put("c", obj(3))
        recovered.close()
        reloaded = ObjectDatabase(FileStorage(path))
        assert sorted(reloaded.names()) == ["a", "c"]
        reloaded.close()


class TestConcurrentReadersAndWriter:
    READERS = 4
    ROUNDS = 150

    def test_readers_only_observe_fully_committed_states(self):
        """≥4 reader threads + 1 writer; pairs must never be torn apart."""
        database = ObjectDatabase()
        database.put("left", obj({"value": 0}))
        database.put("right", obj({"value": 0}))
        stop = threading.Event()
        torn_states = []
        errors = []

        def writer():
            try:
                for round_number in range(1, self.ROUNDS + 1):
                    # Each commit updates both halves atomically.
                    database.commit_batch(
                        {
                            "left": obj({"value": round_number}),
                            "right": obj({"value": round_number}),
                        }
                    )
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    state = database.snapshot()
                    left = state["left"].get("value").value
                    right = state["right"].get("value").value
                    if left != right:
                        torn_states.append((left, right))
                        return
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(self.READERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert not torn_states
        assert database["left"] == obj({"value": self.ROUNDS})
        assert database["right"] == obj({"value": self.ROUNDS})

    def test_concurrent_increments_lose_no_update(self):
        """Optimistic transactions with retry: every increment lands."""
        database = ObjectDatabase()
        database.put("counter", obj({"value": 0}))
        per_thread = 25
        thread_count = 4
        errors = []

        def incrementer():
            try:
                for _ in range(per_thread):
                    while True:
                        txn = database.transaction()
                        current = txn.get("counter").get("value").value
                        txn.put("counter", obj({"value": current + 1}))
                        try:
                            txn.commit()
                            break
                        except TransactionError:
                            continue  # conflict: somebody else won; retry
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)

        threads = [threading.Thread(target=incrementer) for _ in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert database["counter"] == obj({"value": per_thread * thread_count})

    def test_concurrent_single_statement_inserts_lose_no_element(self):
        """update/insert/discard/merge are CAS-with-retry: no lost updates."""
        database = ObjectDatabase()
        database.put("doc", obj({"tags": []}))
        per_thread = 20
        thread_count = 4
        errors = []

        def inserter(slot: int):
            try:
                for position in range(per_thread):
                    database.insert("doc", "tags", obj(f"tag-{slot}-{position}"))
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)

        threads = [threading.Thread(target=inserter, args=(slot,)) for slot in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(database["doc"].get("tags")) == per_thread * thread_count

    def test_wal_backed_concurrent_commits(self, tmp_path):
        """The WAL serialises concurrent committers; replay agrees."""
        path = str(tmp_path / "db.wal")
        database = ObjectDatabase(FileStorage(path))
        errors = []

        def writer(slot: int):
            try:
                for round_number in range(10):
                    database.put(f"slot{slot}", obj({"round": round_number}))
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        database.close()
        assert not errors
        reloaded = ObjectDatabase(FileStorage(path))
        for slot in range(4):
            assert reloaded[f"slot{slot}"] == obj({"round": 9})
        reloaded.close()
