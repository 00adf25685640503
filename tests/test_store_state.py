"""One immutable state per commit (repro.store.database).

Every commit publishes the next ``_State``; a published state never changes,
so a reader that holds one sees exactly that version's objects however many
commits land after it, and a transaction that reads from one never sees half
of a later commit.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import obj
from repro.core.errors import ConflictError
from repro.core.objects import TOP
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage


class TestAHeldStateNeverMoves:
    def test_a_state_held_across_100_commits_is_that_versions(self):
        database = ObjectDatabase()
        for index in range(20):
            database.put(f"n{index}", obj({"v": index}))
        held = database.state()
        expected = dict(database.items())
        whole = held.as_object()
        for round_number in range(100):
            if round_number % 3 == 0:
                database.put(f"x{round_number}", obj(round_number))
            elif round_number % 3 == 1:
                database.remove(f"x{round_number - 1}")
            else:
                database.put(f"n{round_number % 20}", obj({"v": 1000 + round_number}))
        assert database.version == held.version + 100
        assert held.version == 20
        assert dict(held.items()) == expected
        assert held.names() == tuple(sorted(expected))
        assert len(held) == 20
        assert all(held.get(name) is value for name, value in expected.items())
        assert "x99" in database and "x99" not in held and held.get("x99") is None
        assert held.as_object() is whole
        assert whole == obj(expected)
        assert database.as_object() != whole

    def test_as_object_is_built_once_per_version(self):
        database = ObjectDatabase()
        database.put("a", obj(1))
        first = database.as_object()
        assert database.as_object() is first
        assert database.state().as_object() is first
        database.put("b", obj(2))
        assert database.as_object() is not first
        assert database.as_object() is database.as_object()

    def test_a_failed_commit_publishes_nothing(self):
        database = ObjectDatabase()
        database.put("a", obj(1))
        held = database.state()
        with pytest.raises(ConflictError):
            database.commit_batch({"a": obj(2)}, expected={"a": obj(9)})
        database.remove("absent")  # an empty effective batch
        assert database.state() is held


class TestLockFreeReadersUnderStress:
    def test_readers_see_whole_commits_and_no_commit_is_lost(self):
        """More threads than cores, a short switch interval, no reader lock."""
        database = ObjectDatabase()
        database.commit_batch({"left": obj(0), "right": obj(0)})
        writers, readers, commits = 3, 4, 60
        errors = []

        def write(slot):
            for round_number in range(commits):
                value = obj(slot * 1000 + round_number)
                database.commit_batch({"left": value, "right": value})

        def read():
            last = -1
            while not stop.is_set():
                state = database.state()
                if state.get("left") is not state.get("right") or state.version < last:
                    errors.append((state.version, last))
                    return
                if state.as_object().get("left") is not state.get("left"):
                    errors.append(("as_object", state.version))
                    return
                last = state.version

        stop = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(slot,)) for slot in range(writers)]
            watchers = [threading.Thread(target=read) for _ in range(readers)]
            for thread in watchers + threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            for thread in watchers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + watchers)
        assert not errors
        assert database.version == 1 + writers * commits


class TestTransactionsReadOneState:
    def test_a_commit_between_two_reads_is_a_conflict_not_a_torn_pair(self):
        database = ObjectDatabase()
        database.put("a", obj(0))
        database.put("b", obj(0))
        seen = []

        def work(txn):
            first = txn.get("a")
            # Another writer commits both names between the two reads.
            database.commit_batch({"a": obj(1), "b": obj(1)})
            seen.append((first, txn.get("b")))
            txn.put("c", obj(first.value + txn.get("b").value))

        txn = database.transaction()
        work(txn)
        assert seen == [(obj(0), obj(0))]  # the old pair, never (0, 1)
        with pytest.raises(ConflictError):
            txn.commit()
        assert "c" not in database


_NAMES = st.sampled_from(["a", "b", "c", "d", "e"])
_VALUES = st.one_of(
    st.none(),  # delete
    st.just(TOP),
    st.integers(0, 5).map(lambda n: obj({"n": n})),
    st.integers(0, 5).map(lambda n: obj([n, n + 1])),
)
_BATCHES = st.lists(st.dictionaries(_NAMES, _VALUES, max_size=4), max_size=12)


class TestStateMatchesADictModel:
    @settings(max_examples=60, deadline=None)
    @given(_BATCHES, st.booleans())
    def test_random_batches(self, tmp_path_factory, batches, durable):
        path = str(tmp_path_factory.mktemp("wal") / "store.wal") if durable else None

        def open_database():
            return ObjectDatabase(FileStorage(path)) if durable else ObjectDatabase()

        database = open_database()
        model = {}
        version = database.version
        for batch in batches:
            database.commit_batch(batch)
            effective = {
                name: value
                for name, value in batch.items()
                if value is not None or name in model
            }
            for name, value in effective.items():
                if value is None:
                    del model[name]
                else:
                    model[name] = value
            version += bool(effective)
            state = database.state()
            assert state.version == version
            assert dict(state.items()) == model
            assert len(state) == len(model)
            assert state.top_names == {name for name, value in model.items() if value.is_top}
        if durable:
            database.close()
            database = open_database()
            state = database.state()
            assert dict(state.items()) == model
            assert state.top_names == {name for name, value in model.items() if value.is_top}
            database.close()
