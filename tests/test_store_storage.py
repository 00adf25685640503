"""Unit tests for the storage engines (repro.store.storage)."""

import json
import os

import pytest

from repro import parse_object
from repro.core.builder import obj
from repro.core.errors import StoreError
from repro.store.storage import FileStorage, MemoryStorage, StorageEngine


class TestMemoryStorage:
    def test_read_write_delete(self):
        storage = MemoryStorage()
        assert storage.read("x") is None
        storage.write("x", obj(1))
        assert storage.read("x") == obj(1)
        storage.write("x", obj(2))
        assert storage.read("x") == obj(2)
        storage.delete("x")
        assert storage.read("x") is None

    def test_delete_is_idempotent(self):
        MemoryStorage().delete("missing")

    def test_names_and_items_sorted(self):
        storage = MemoryStorage()
        storage.write("b", obj(2))
        storage.write("a", obj(1))
        assert storage.names() == ("a", "b")
        assert [name for name, _ in storage.items()] == ["a", "b"]

    def test_rejects_non_objects(self):
        with pytest.raises(StoreError):
            MemoryStorage().write("x", 1)


class TestFileStorage:
    def test_write_and_reload(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        storage = FileStorage(path)
        family = parse_object("[family: {[name: abraham]}]")
        storage.write("family", family)
        storage.write("numbers", obj([1, 2, 3]))
        storage.close()

        reloaded = FileStorage(path)
        assert reloaded.read("family") == family
        assert reloaded.read("numbers") == obj([1, 2, 3])
        assert reloaded.names() == ("family", "numbers")
        reloaded.close()

    def test_latest_version_wins_after_reload(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        storage = FileStorage(path)
        storage.write("x", obj(1))
        storage.write("x", obj(2))
        storage.delete("x")
        storage.write("x", obj(3))
        storage.close()
        assert FileStorage(path).read("x") == obj(3)

    def test_delete_survives_reload(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        storage = FileStorage(path)
        storage.write("x", obj(1))
        storage.delete("x")
        storage.close()
        assert FileStorage(path).read("x") is None

    def test_compact_shrinks_the_log(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        storage = FileStorage(path)
        for version in range(10):
            storage.write("x", obj(version))
        size_before = os.path.getsize(path)
        storage.compact()
        size_after = os.path.getsize(path)
        assert size_after < size_before
        assert storage.read("x") == obj(9)
        storage.close()
        assert FileStorage(path).read("x") == obj(9)

    def test_corrupt_log_reported(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json}\n")
        with pytest.raises(StoreError):
            FileStorage(path, on_corruption="raise")

    def test_unknown_record_op_reported(self, tmp_path):
        from repro.store.codec import frame_record

        path = str(tmp_path / "store.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(frame_record({"op": "truncate", "name": "x"}))
        with pytest.raises(StoreError, match="unknown op 'truncate'"):
            FileStorage(path, on_corruption="raise")

    def test_missing_name_reported(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"op": "write", "data": {"k": "B"}}) + "\n")
        with pytest.raises(StoreError):
            FileStorage(path, on_corruption="raise")

    def test_bad_corruption_mode_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            FileStorage(str(tmp_path / "store.jsonl"), on_corruption="ignore")

    def test_blank_lines_tolerated(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        storage = FileStorage(path)
        storage.write("x", obj(1))
        storage.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        assert FileStorage(path).read("x") == obj(1)


class TestWriteAheadLog:
    """Group commit, checksummed framing and torn-tail crash recovery."""

    def test_apply_batch_is_one_log_record(self, tmp_path):
        path = str(tmp_path / "store.wal")
        storage = FileStorage(path)
        storage.apply_batch({"a": obj(1), "b": obj(2), "c": obj(3)})
        storage.close()
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 1
        reloaded = FileStorage(path)
        assert reloaded.names() == ("a", "b", "c")
        reloaded.close()

    def test_batch_mixes_writes_and_deletes(self, tmp_path):
        path = str(tmp_path / "store.wal")
        storage = FileStorage(path)
        storage.write("old", obj(1))
        storage.apply_batch({"old": None, "new": obj(2)})
        storage.close()
        reloaded = FileStorage(path)
        assert reloaded.read("old") is None
        assert reloaded.read("new") == obj(2)
        reloaded.close()

    def test_empty_batch_appends_nothing(self, tmp_path):
        path = str(tmp_path / "store.wal")
        storage = FileStorage(path)
        storage.apply_batch({})
        storage.close()
        assert os.path.getsize(path) == 0

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        path = str(tmp_path / "store.wal")
        storage = FileStorage(path)
        storage.write("committed", obj(1))
        storage.close()
        size_committed = os.path.getsize(path)
        # Simulate a crash mid-append: a partial record with no newline.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op":"commit","writes":{"in_flight":{"k"')
        recovered = FileStorage(path)
        assert recovered.read("committed") == obj(1)
        assert recovered.read("in_flight") is None
        assert recovered.names() == ("committed",)
        assert recovered.torn_bytes_dropped > 0
        # The tail was physically truncated, so new appends start clean.
        assert os.path.getsize(path) == size_committed
        recovered.write("after", obj(2))
        recovered.close()
        reloaded = FileStorage(path)
        assert reloaded.names() == ("after", "committed")
        assert reloaded.torn_bytes_dropped == 0
        reloaded.close()

    def test_torn_tail_of_empty_log_is_dropped(self, tmp_path):
        path = str(tmp_path / "store.wal")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"op":"commit"')  # no newline: never committed
        storage = FileStorage(path)
        assert storage.names() == ()
        storage.close()

    def test_complete_record_with_bad_checksum_is_corruption(self, tmp_path):
        from repro.store.codec import frame_record

        path = str(tmp_path / "store.wal")
        line = frame_record({"op": "commit", "writes": {}})
        damaged = line.replace('"commit"', '"COMMIT"')
        assert damaged != line
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(damaged)
        with pytest.raises(StoreError):
            FileStorage(path, on_corruption="raise")

    def test_commit_record_without_writes_is_corruption(self, tmp_path):
        path = str(tmp_path / "store.wal")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"op": "commit"}) + "\n")
        with pytest.raises(StoreError):
            FileStorage(path, on_corruption="raise")

    def test_pre_wal_per_change_records_are_corruption(self, tmp_path, capsys):
        # An unchecksummed {"op": "delete", ...} line used to replay as a
        # valid commit; it is now what any other unframed line is.
        from repro.cli import main
        from repro.store.codec import encode_json, frame_record

        path = str(tmp_path / "store.jsonl")
        storage = FileStorage(path)
        storage.write("x", obj(1))
        storage.close()
        intact = os.path.getsize(path)
        legacy = (
            json.dumps({"op": "write", "name": "y", "data": encode_json(obj(2))})
            + "\n"
            + json.dumps({"op": "delete", "name": "x"})
            + "\n"
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(legacy)

        assert main(["store", "--db-path", path, "verify"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["records"] == report["commits"] == 1
        assert report["corrupt_records"][0]["line"] == 2
        assert "no checksum" in report["corrupt_records"][0]["error"]
        with pytest.raises(StoreError, match="line 2.*no checksum"):
            FileStorage(path, on_corruption="raise")
        assert os.path.getsize(path) == intact + len(legacy)  # nothing touched

        storage = FileStorage(path)  # the default policy: quarantine
        assert storage.names() == ("x",)
        assert storage.read("x") == obj(1)
        assert storage.quarantined_records == 2
        storage.close()
        assert os.path.getsize(path) == intact
        with open(storage.quarantine_path, encoding="utf-8") as sidecar:
            assert sidecar.read() == legacy

        # A checksum does not bring the shape back: only commits replay.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(frame_record({"op": "delete", "name": "x"}))
        with pytest.raises(StoreError, match="unknown op 'delete'"):
            FileStorage(path, on_corruption="raise")

    def test_non_utf8_log_is_corruption_not_a_crash(self, tmp_path):
        path = str(tmp_path / "store.wal")
        with open(path, "wb") as handle:
            handle.write(b'{"op":"commit","writes":{}}\xff\xfe\n')
        with pytest.raises(StoreError):
            FileStorage(path, on_corruption="raise")

    def test_delete_of_absent_name_appends_nothing(self, tmp_path):
        path = str(tmp_path / "store.wal")
        storage = FileStorage(path)
        storage.write("x", obj(1))
        size = os.path.getsize(path)
        storage.delete("missing")
        assert os.path.getsize(path) == size
        storage.close()

    def test_legacy_engine_subclasses_still_work(self):
        # An engine written against the original interface (write/delete
        # only) must keep working through the base apply_batch fallback.
        class LegacyEngine(StorageEngine):
            def __init__(self):
                self.data = {}

            def read(self, name):
                return self.data.get(name)

            def write(self, name, value):
                self.data[name] = value

            def delete(self, name):
                self.data.pop(name, None)

            def names(self):
                return tuple(sorted(self.data))

        engine = LegacyEngine()
        engine.apply_batch({"a": obj(1), "b": obj(2)})
        engine.apply_batch({"a": None, "c": obj(3)})
        assert engine.names() == ("b", "c")
        with pytest.raises(StoreError):
            engine.apply_batch({"bad": "not-an-object"})

    def test_memory_engine_batches_atomically(self):
        storage = MemoryStorage()
        storage.write("keep", obj(1))
        with pytest.raises(StoreError):
            storage.apply_batch({"keep": obj(2), "bad": "not-an-object"})
        # The invalid batch changed nothing.
        assert storage.read("keep") == obj(1)
        assert storage.read("bad") is None

    def test_file_engine_rejects_bad_batch_without_touching_the_log(self, tmp_path):
        path = str(tmp_path / "store.wal")
        storage = FileStorage(path)
        storage.write("keep", obj(1))
        size = os.path.getsize(path)
        with pytest.raises(StoreError):
            storage.apply_batch({"keep": obj(2), "bad": "not-an-object"})
        assert os.path.getsize(path) == size
        assert storage.read("keep") == obj(1)
        storage.close()


class TestQuarantineRecovery:
    """The default corruption policy: quarantine the damage, keep the prefix."""

    @staticmethod
    def _write_log_with_mid_corruption(path):
        """Three committed records with the middle one damaged in place.

        Returns the size of the intact prefix (the first record).
        """
        storage = FileStorage(path)
        storage.write("a", obj(1))
        prefix_size = os.path.getsize(path)
        storage.write("b", obj(2))
        storage.write("c", obj(3))
        storage.close()
        with open(path, "rb") as handle:
            raw = handle.read()
        lines = raw.split(b"\n")
        lines[1] = lines[1].replace(b'"commit"', b'"COMMIT"')
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        return prefix_size

    def test_mid_log_corruption_is_quarantined_by_default(self, tmp_path):
        path = str(tmp_path / "store.wal")
        prefix_size = self._write_log_with_mid_corruption(path)
        recovered = FileStorage(path)
        # Only the intact prefix survives: replaying past a gap would break
        # prefix consistency, so the damaged record AND its suffix move out.
        assert recovered.names() == ("a",)
        assert recovered.read("a") == obj(1)
        assert recovered.quarantined_records == 2
        assert recovered.quarantined_bytes > 0
        assert os.path.getsize(path) == prefix_size
        assert os.path.exists(recovered.quarantine_path)
        assert os.path.getsize(recovered.quarantine_path) == recovered.quarantined_bytes
        # The store stays writable after quarantine.
        recovered.write("after", obj(9))
        recovered.close()
        reloaded = FileStorage(path)
        assert reloaded.names() == ("a", "after")
        assert reloaded.quarantined_records == 0
        reloaded.close()

    def test_raise_mode_leaves_the_log_untouched(self, tmp_path):
        path = str(tmp_path / "store.wal")
        self._write_log_with_mid_corruption(path)
        size = os.path.getsize(path)
        with pytest.raises(StoreError):
            FileStorage(path, on_corruption="raise")
        assert os.path.getsize(path) == size
        assert not os.path.exists(path + ".quarantine")

    def test_clean_log_has_no_quarantine(self, tmp_path):
        path = str(tmp_path / "store.wal")
        storage = FileStorage(path)
        storage.write("x", obj(1))
        storage.close()
        reloaded = FileStorage(path)
        assert reloaded.quarantined_records == 0
        assert reloaded.quarantined_bytes == 0
        assert not os.path.exists(reloaded.quarantine_path)
        reloaded.close()
