"""Unit tests for transactions (repro.store.transactions)."""

import pytest

from repro.core.builder import obj
from repro.core.errors import ConflictError, InjectedFault, TransactionError
from repro.fault import FaultSpec, inject
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage


@pytest.fixture
def database():
    db = ObjectDatabase()
    db.put("account_a", {"balance": 100})
    db.put("account_b", {"balance": 50})
    return db


class TestCommit:
    def test_writes_visible_only_after_commit(self, database):
        txn = database.transaction()
        txn.put("account_a", obj({"balance": 80}))
        txn.put("account_b", obj({"balance": 70}))
        assert database["account_a"] == obj({"balance": 100})
        txn.commit()
        assert database["account_a"] == obj({"balance": 80})
        assert database["account_b"] == obj({"balance": 70})

    def test_reads_see_own_writes(self, database):
        txn = database.transaction()
        txn.put("account_a", obj({"balance": 1}))
        assert txn.get("account_a") == obj({"balance": 1})
        assert txn.get("account_b") == obj({"balance": 50})
        txn.abort()

    def test_delete(self, database):
        txn = database.transaction()
        txn.delete("account_a")
        assert txn.get("account_a") is None
        txn.commit()
        assert "account_a" not in database

    def test_context_manager_commits_on_success(self, database):
        with database.transaction() as txn:
            txn.put("account_a", obj({"balance": 5}))
        assert database["account_a"] == obj({"balance": 5})

    def test_context_manager_aborts_on_error(self, database):
        with pytest.raises(RuntimeError):
            with database.transaction() as txn:
                txn.put("account_a", obj({"balance": 5}))
                raise RuntimeError("boom")
        assert database["account_a"] == obj({"balance": 100})

    def test_touched_names(self, database):
        txn = database.transaction()
        txn.put("account_a", obj({"balance": 5}))
        txn.delete("account_b")
        assert txn.touched() == {"account_a", "account_b"}
        txn.abort()


class TestAbortAndLifecycle:
    def test_abort_discards_changes(self, database):
        txn = database.transaction()
        txn.put("account_a", obj({"balance": 0}))
        txn.abort()
        assert database["account_a"] == obj({"balance": 100})

    def test_finished_transactions_refuse_further_work(self, database):
        txn = database.transaction()
        txn.commit()
        assert not txn.active
        with pytest.raises(TransactionError):
            txn.put("account_a", obj({"balance": 1}))
        with pytest.raises(TransactionError):
            txn.commit()

    def test_rejects_non_objects(self, database):
        txn = database.transaction()
        with pytest.raises(TransactionError):
            txn.put("account_a", 1)
        txn.abort()


class TestAtomicity:
    """A failed commit must leave the database exactly as it was."""

    @staticmethod
    def durable(path):
        database = ObjectDatabase(FileStorage(path))
        database.put("account_a", {"balance": 100})
        database.put("account_b", {"balance": 50})
        return database

    @staticmethod
    def both_written(database):
        txn = database.transaction()
        txn.put("account_a", obj({"balance": 0}))
        txn.put("account_b", obj({"balance": 0}))
        return txn

    @staticmethod
    def assert_holds(database, path, expected):
        assert database.snapshot() == expected
        database.close()
        # Nothing of the failed batch reached the log either.
        reopened = ObjectDatabase(FileStorage(path))
        assert reopened.snapshot() == expected
        reopened.close()

    def test_conflict_on_the_second_name_applies_nothing(self, tmp_path):
        # Regression for the half-commit bug: the batch's second name changed
        # since the transaction read it, and the first write must NOT land.
        path = str(tmp_path / "db.wal")
        database = self.durable(path)
        txn = self.both_written(database)
        database.put("account_b", {"balance": 7})
        version = database.version
        with pytest.raises(ConflictError, match="account_b"):
            txn.commit()
        assert not txn.active
        assert database.version == version
        self.assert_holds(
            database, path, {"account_a": obj({"balance": 100}), "account_b": obj({"balance": 7})}
        )

    @pytest.mark.parametrize("point", ["store.wal.append", "store.wal.fsync"])
    def test_failed_log_write_applies_nothing(self, tmp_path, point):
        # At store.wal.fsync the whole record is already in the file: the
        # failed commit must cut it off again.
        path = str(tmp_path / "db.wal")
        database = self.durable(path)
        txn = self.both_written(database)
        version = database.version
        with inject(FaultSpec(point)):
            with pytest.raises(InjectedFault):
                txn.commit()
        assert not txn.active
        with pytest.raises(TransactionError):
            txn.commit()
        assert database.version == version
        self.assert_holds(
            database, path, {"account_a": obj({"balance": 100}), "account_b": obj({"balance": 50})}
        )

    def test_exit_after_failed_commit_does_not_double_abort(self, database):
        # The context manager commits on a clean exit; when that commit fails
        # the original error must surface — not a second TransactionError
        # from __exit__ trying to abort the already-deactivated transaction.
        with pytest.raises(TransactionError, match="conflict"):
            with database.transaction() as txn:
                txn.put("account_a", obj({"balance": 1}))
                database.put("account_a", obj({"balance": 999}))
        assert database["account_a"] == obj({"balance": 999})

    def test_exit_after_explicit_failed_commit_is_quiet(self, database):
        txn = database.transaction()
        txn.__enter__()
        txn.put("account_a", obj({"balance": 1}))
        database.put("account_a", obj({"balance": 999}))
        with pytest.raises(TransactionError):
            txn.commit()
        # Leaving the with-block afterwards must not raise again.
        assert txn.__exit__(None, None, None) is False


class TestConflicts:
    def test_first_committer_wins(self, database):
        first = database.transaction()
        second = database.transaction()
        first.put("account_a", obj({"balance": 10}))
        second.put("account_a", obj({"balance": 20}))
        first.commit()
        with pytest.raises(TransactionError):
            second.commit()
        assert database["account_a"] == obj({"balance": 10})

    def test_disjoint_transactions_both_commit(self, database):
        first = database.transaction()
        second = database.transaction()
        first.put("account_a", obj({"balance": 10}))
        second.put("account_b", obj({"balance": 20}))
        first.commit()
        second.commit()
        assert database["account_a"] == obj({"balance": 10})
        assert database["account_b"] == obj({"balance": 20})

    def test_conflict_with_direct_write(self, database):
        txn = database.transaction()
        txn.put("account_a", obj({"balance": 10}))
        database.put("account_a", obj({"balance": 999}))
        with pytest.raises(TransactionError):
            txn.commit()

    def test_delete_create_conflict_on_name_absent_at_snapshot(self, database):
        # The transaction deletes a name that did not exist when it looked;
        # a concurrent writer then creates it.  Committing the delete would
        # silently destroy the other writer's object, so it must conflict.
        txn = database.transaction()
        txn.delete("ghost")
        database.put("ghost", obj({"balance": 1}))
        with pytest.raises(TransactionError):
            txn.commit()
        assert database["ghost"] == obj({"balance": 1})

    def test_interned_aba_rewrite_is_not_a_conflict(self, database):
        # A concurrent writer rewrites the identical object (hash-consing
        # makes it the same interned value).  Nothing the transaction read
        # has semantically changed, so the commit must go through.
        txn = database.transaction()
        assert txn.get("account_a") == obj({"balance": 100})  # snapshots account_a
        txn.put("account_b", obj({"balance": 70}))
        database.put("account_a", obj({"balance": 100}))  # identical rewrite
        txn.commit()
        assert database["account_b"] == obj({"balance": 70})

    def test_read_set_is_validated_too(self, database):
        # Snapshot validation covers names the transaction only read: the
        # write to account_b was computed from a stale account_a.
        txn = database.transaction()
        assert txn.get("account_a") == obj({"balance": 100})
        txn.put("account_b", obj({"balance": 150}))
        database.put("account_a", obj({"balance": 0}))
        with pytest.raises(TransactionError):
            txn.commit()
        assert database["account_b"] == obj({"balance": 50})
