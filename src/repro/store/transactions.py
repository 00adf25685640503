"""Atomic, optimistically-concurrent transactions over the object database.

A :class:`Transaction` buffers writes and deletes against a snapshot of the
database and applies them atomically on :meth:`commit` — genuinely
all-or-nothing: every schema is validated and every change staged *before*
anything touches storage, and the batch then lands under the database's
writer mutex as one commit (a single WAL append + fsync on a durable
store).  A commit that fails — schema violation, conflict, storage error —
leaves the database exactly as it was.

Reads inside the transaction see its own uncommitted writes first, then one
committed state of the database (:meth:`ObjectDatabase.state`), taken at the
first read: every name is read from that state, so a transaction never sees
half of a later commit.  What it read is remembered per name.  At commit time
the *whole* snapshot (read set as well as write set) is validated against
the current state under the writer mutex: if any object the transaction
observed has since changed, the commit is rejected with
:class:`~repro.core.errors.ConflictError` — the retryable
:class:`TransactionError` subclass that
:class:`~repro.store.retry.RetryPolicy` and
:meth:`repro.api.Session.transact` catch to re-run the work (first committer
wins).  Because stored objects are hash-consed (PR 2), "changed" means
semantically changed — rewriting an identical object underneath the
transaction is not a conflict.

A failed commit deactivates the transaction, so the context-manager exit
never aborts a transaction that already tried to commit (no double-abort).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.errors import TransactionError
from repro.core.objects import ComplexObject

__all__ = ["Transaction"]

_DELETED = object()


class Transaction:
    """A buffered, atomically-committed set of changes to an :class:`ObjectDatabase`."""

    def __init__(self, database):
        self._database = database
        self._state = None  # the committed state every read comes from
        self._snapshot: Dict[str, Optional[ComplexObject]] = {}
        self._writes: Dict[str, object] = {}
        self._active = True

    # -- context manager --------------------------------------------------------------
    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._active:
            # Already committed or aborted (possibly a commit that failed and
            # deactivated us) — there is nothing left to clean up.
            return False
        if exc_type is None:
            self.commit()
        else:
            self.abort()
        return False

    # -- transactional reads/writes ----------------------------------------------------
    def _require_active(self) -> None:
        if not self._active:
            raise TransactionError("the transaction is no longer active")

    def _remember_snapshot(self, name: str) -> None:
        if name not in self._snapshot:
            if self._state is None:
                self._state = self._database.state()
            self._snapshot[name] = self._state.get(name)

    def get(self, name: str, default=None):
        """Read an object, seeing this transaction's own writes first."""
        self._require_active()
        if name in self._writes:
            value = self._writes[name]
            return default if value is _DELETED else value
        self._remember_snapshot(name)
        value = self._snapshot[name]
        return default if value is None else value

    def put(self, name: str, value: ComplexObject) -> None:
        """Buffer a write."""
        self._require_active()
        if not isinstance(value, ComplexObject):
            raise TransactionError(
                f"only complex objects can be stored, got {type(value).__name__}"
            )
        self._remember_snapshot(name)
        self._writes[name] = value

    def delete(self, name: str) -> None:
        """Buffer a delete."""
        self._require_active()
        self._remember_snapshot(name)
        self._writes[name] = _DELETED

    def touched(self) -> Set[str]:
        """The names written or deleted by this transaction."""
        return set(self._writes)

    # -- lifecycle ----------------------------------------------------------------------
    def commit(self) -> None:
        """Validate everything, then apply the buffered changes as one batch.

        Schema checks for every write run before any change is applied; the
        snapshot validation and the apply step happen together under the
        database's writer mutex (see :meth:`ObjectDatabase.commit_batch`).  Any
        failure — :class:`~repro.core.errors.SchemaError`, a write-write
        :class:`~repro.core.errors.ConflictError`, a storage error — leaves
        the database untouched and this transaction inactive.
        """
        self._require_active()
        # Deactivate first: whatever happens below, this transaction is over,
        # and __exit__ must not try to abort it a second time.
        self._active = False
        changes = {
            name: None if value is _DELETED else value
            for name, value in self._writes.items()
        }
        self._database.commit_batch(changes, expected=dict(self._snapshot))

    def abort(self) -> None:
        """Discard the buffered changes."""
        self._require_active()
        self._writes.clear()
        self._active = False

    @property
    def active(self) -> bool:
        return self._active
