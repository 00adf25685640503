"""Property-based crash-recovery guarantees for the write-ahead log.

The satellite contract, pinned over generated workloads:

* **truncation** — cutting a committed WAL at *any* byte offset and
  recovering yields exactly the longest intact prefix of commits (never a
  partial batch, never a reordering, never an invented object);
* **in-place damage** — XOR-flipping any byte of the log demotes recovery
  to the prefix before the damaged record: CRC-32 catches every single-byte
  flip, and the quarantine default preserves prefix consistency.

Atom values are restricted to ints and strings: float atoms canonicalize
through ``repr`` and are orthogonal to the framing guarantees under test.
"""

import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from repro.core.builder import obj  # noqa: E402
from repro.store.database import ObjectDatabase  # noqa: E402
from repro.store.storage import FileStorage  # noqa: E402


_NAMES = st.sampled_from(["a", "b", "c", "d"])
_VALUES = st.one_of(
    st.integers(min_value=-999, max_value=999),
    st.text(alphabet="xyz", min_size=0, max_size=4),
).map(obj)
# ``None`` deletes the name; lists/sets exercise nested encodings.
_CHANGES = st.one_of(
    st.none(),
    _VALUES,
    st.lists(st.integers(min_value=0, max_value=9), max_size=3).map(obj),
)
_BATCHES = st.lists(
    st.dictionaries(_NAMES, _CHANGES, min_size=1, max_size=3),
    min_size=1,
    max_size=6,
)


def _write_workload(path, batches):
    """Commit the batches; return the expected state after each logged record."""
    states = [{}]
    database = ObjectDatabase(FileStorage(path))
    try:
        for batch in batches:
            version = database.version
            database.commit_batch(batch)
            state = dict(states[-1])
            for name, value in batch.items():
                if value is None:
                    state.pop(name, None)
                else:
                    state[name] = value
            # A batch that only deletes absent names logs no record.
            if database.version != version:
                states.append(state)
    finally:
        database.close()
    return states


def _record_ends(raw):
    """Exclusive end offset of each newline-terminated record."""
    ends = []
    position = 0
    while True:
        newline = raw.find(b"\n", position)
        if newline < 0:
            return ends
        position = newline + 1
        ends.append(position)


def _recovered(path):
    database = ObjectDatabase(FileStorage(path))
    try:
        return database.snapshot()
    finally:
        database.close()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_truncation_recovers_longest_intact_prefix(data):
    batches = data.draw(_BATCHES)
    with tempfile.TemporaryDirectory(prefix="repro-prop-") as scratch:
        path = os.path.join(scratch, "db.wal")
        states = _write_workload(path, batches)
        with open(path, "rb") as handle:
            raw = handle.read()
        offset = data.draw(st.integers(min_value=0, max_value=len(raw)))
        with open(path, "wb") as handle:
            handle.write(raw[:offset])
        # The longest prefix of whole records inside ``offset`` bytes.
        intact = sum(1 for end in _record_ends(raw) if end <= offset)
        assert _recovered(path) == states[intact]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_byte_flip_recovers_prefix_before_the_damage(data):
    batches = data.draw(_BATCHES)
    with tempfile.TemporaryDirectory(prefix="repro-prop-") as scratch:
        path = os.path.join(scratch, "db.wal")
        states = _write_workload(path, batches)
        with open(path, "rb") as handle:
            original = handle.read()
        assume(original)  # batches that only delete absent names log nothing
        position = data.draw(st.integers(min_value=0, max_value=len(original) - 1))
        mask = data.draw(st.integers(min_value=1, max_value=255))
        damaged = bytearray(original)
        damaged[position] ^= mask
        with open(path, "wb") as handle:
            handle.write(bytes(damaged))
        # The record whose bytes include the flip is lost, along with
        # everything after it — whether the flip corrupts the record body,
        # splits it with an injected newline, or (for the final record's own
        # newline) turns the tail torn.  Records strictly before the flip
        # survive: their count is the number of record ends <= position.
        intact = sum(1 for end in _record_ends(original) if end <= position)
        assert _recovered(path) == states[intact]


@settings(max_examples=20, deadline=None)
@given(_BATCHES)
def test_undamaged_log_recovers_exactly(batches):
    with tempfile.TemporaryDirectory(prefix="repro-prop-") as scratch:
        path = os.path.join(scratch, "db.wal")
        states = _write_workload(path, batches)
        recovered = _recovered(path)
        assert recovered == states[-1]
        # And recovery is idempotent: reopening changes nothing.
        assert _recovered(path) == recovered
