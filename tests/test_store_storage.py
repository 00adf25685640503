"""Unit tests for the write-ahead log (repro.store.storage), through the store.

A :class:`FileStorage` holds no objects: every test opens an
:class:`ObjectDatabase` over it and reads the objects from the database, and
the log only for its recovery counters.
"""

import json
import os
import zlib

import pytest

import repro
from repro import parse_object
from repro.core.builder import obj
from repro.core.errors import StoreError
from repro.core.objects import Atom, TupleObject
from repro.store.codec import frame_record, parse_record
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage
from repro.store.verify import verify_wal


def _open(path):
    """The store over the log at ``path``, and the log itself."""
    log = FileStorage(path)
    return ObjectDatabase(log), log


def _reopened(path):
    database = ObjectDatabase(FileStorage(path))
    try:
        return database.snapshot()
    finally:
        database.close()


def _assert_detected(path, line, reason):
    """``verify_wal`` names the corrupt record without touching the log."""
    size = os.path.getsize(path)
    report = verify_wal(path)
    (corrupt,) = report["corrupt_records"]
    assert corrupt["line"] == line
    assert reason in corrupt["error"]
    assert os.path.getsize(path) == size


class TestFileStorage:
    def test_write_and_reload(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        database = ObjectDatabase(FileStorage(path))
        family = parse_object("[family: {[name: abraham]}]")
        database.put("family", family)
        database.put("numbers", obj([1, 2, 3]))
        database.close()

        reloaded = ObjectDatabase(FileStorage(path))
        assert reloaded.get("family") == family
        assert reloaded.get("numbers") == obj([1, 2, 3])
        assert reloaded.names() == ("family", "numbers")
        reloaded.close()

    def test_latest_version_wins_after_reload(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        database = ObjectDatabase(FileStorage(path))
        database.put("x", obj(1))
        database.put("x", obj(2))
        database.remove("x")
        database.put("x", obj(3))
        database.close()
        assert _reopened(path) == {"x": obj(3)}

    def test_delete_survives_reload(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        database = ObjectDatabase(FileStorage(path))
        database.put("x", obj(1))
        database.remove("x")
        database.close()
        assert _reopened(path) == {}

    def test_compact_shrinks_the_log(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        database = ObjectDatabase(FileStorage(path))
        for version in range(10):
            database.put("x", obj(version))
        size_before = os.path.getsize(path)
        database.compact()
        size_after = os.path.getsize(path)
        assert size_after < size_before
        assert database.get("x") == obj(9)
        database.close()
        assert _reopened(path) == {"x": obj(9)}

    def test_corrupt_log_reported(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json}\n")
        _assert_detected(path, 1, "malformed log record")
        database, log = _open(path)
        assert database.names() == ()
        assert log.quarantined_records == 1
        database.close()

    def test_unknown_record_op_reported(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(frame_record({"op": "truncate", "name": "x"}))
        _assert_detected(path, 1, "unknown op 'truncate'")
        database, log = _open(path)
        assert log.quarantined_records == 1
        database.close()

    def test_missing_name_reported(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"op": "write", "data": {"k": "B"}}) + "\n")
        _assert_detected(path, 1, "no checksum")
        database, log = _open(path)
        assert log.quarantined_records == 1
        database.close()

    def test_blank_lines_tolerated(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        database = ObjectDatabase(FileStorage(path))
        database.put("x", obj(1))
        database.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        assert _reopened(path) == {"x": obj(1)}

    def test_a_log_opens_in_one_database_only(self, tmp_path):
        log = FileStorage(str(tmp_path / "store.wal"))
        database = ObjectDatabase(log)
        with pytest.raises(StoreError, match="already open"):
            ObjectDatabase(log)
        database.close()


class TestWriteAheadLog:
    """Group commit, checksummed framing and torn-tail crash recovery."""

    def test_apply_batch_is_one_log_record(self, tmp_path):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.commit_batch({"a": obj(1), "b": obj(2), "c": obj(3)})
        database.close()
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 1
        assert sorted(_reopened(path)) == ["a", "b", "c"]

    def test_batch_mixes_writes_and_deletes(self, tmp_path):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("old", obj(1))
        database.commit_batch({"old": None, "new": obj(2)})
        database.close()
        assert _reopened(path) == {"new": obj(2)}

    def test_empty_batch_appends_nothing(self, tmp_path):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.commit_batch({})
        database.close()
        assert os.path.getsize(path) == 0

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("committed", obj(1))
        database.close()
        size_committed = os.path.getsize(path)
        # Simulate a crash mid-append: a partial record with no newline.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op":"commit","writes":{"in_flight":{"k"')
        recovered, log = _open(path)
        assert recovered.get("committed") == obj(1)
        assert recovered.get("in_flight") is None
        assert recovered.names() == ("committed",)
        assert log.torn_bytes_dropped > 0
        # The tail was physically truncated, so new appends start clean.
        assert os.path.getsize(path) == size_committed
        recovered.put("after", obj(2))
        recovered.close()
        reloaded, log = _open(path)
        assert reloaded.names() == ("after", "committed")
        assert log.torn_bytes_dropped == 0
        reloaded.close()

    def test_torn_tail_of_empty_log_is_dropped(self, tmp_path):
        path = str(tmp_path / "store.wal")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"op":"commit"')  # no newline: never committed
        assert _reopened(path) == {}

    def test_complete_record_with_bad_checksum_is_corruption(self, tmp_path):
        path = str(tmp_path / "store.wal")
        line = frame_record({"op": "commit", "writes": {}})
        damaged = line.replace('"commit"', '"COMMIT"')
        assert damaged != line
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(damaged)
        _assert_detected(path, 1, "failed its checksum")
        database, log = _open(path)
        assert (log.quarantined_records, log.quarantined_bytes) == (1, len(damaged))
        database.close()

    def test_commit_record_without_writes_is_corruption(self, tmp_path):
        path = str(tmp_path / "store.wal")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"op": "commit"}) + "\n")
        _assert_detected(path, 1, "no checksum")
        database, log = _open(path)
        assert log.quarantined_records == 1
        database.close()

    def test_pre_wal_per_change_records_are_corruption(self, tmp_path, capsys):
        # An unchecksummed {"op": "delete", ...} line used to replay as a
        # valid commit; it is now what any other unframed line is.
        from repro.cli import main
        from repro.store.codec import encode_json

        path = str(tmp_path / "store.jsonl")
        database = ObjectDatabase(FileStorage(path))
        database.put("x", obj(1))
        database.close()
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
        assert os.path.getsize(path) == intact + len(legacy)  # nothing touched

        database, log = _open(path)
        assert database.names() == ("x",)
        assert database.get("x") == obj(1)
        assert log.quarantined_records == 2
        database.close()
        assert os.path.getsize(path) == intact
        with open(log.quarantine_path, encoding="utf-8") as sidecar:
            assert sidecar.read() == legacy

        # A checksum does not bring the shape back: only commits replay.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(frame_record({"op": "delete", "name": "x"}))
        _assert_detected(path, 2, "unknown op 'delete'")

    def test_non_utf8_log_is_corruption_not_a_crash(self, tmp_path):
        path = str(tmp_path / "store.wal")
        with open(path, "wb") as handle:
            handle.write(b'{"op":"commit","writes":{}}\xff\xfe\n')
        _assert_detected(path, 1, "not valid UTF-8")
        database, log = _open(path)
        assert log.quarantined_records == 1
        database.close()

    def test_delete_of_absent_name_appends_nothing(self, tmp_path):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("x", obj(1))
        size = os.path.getsize(path)
        database.remove("missing")
        database.commit_batch({"missing": None, "also_missing": None})
        assert os.path.getsize(path) == size
        database.close()

    @pytest.mark.parametrize(
        "bad",
        [{"keep": obj(2), "bad": "not-an-object"}, {"keep": obj(2), 7: obj(1)}],
        ids=["value", "name"],
    )
    def test_file_engine_rejects_bad_batch_without_touching_the_log(self, tmp_path, bad):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("keep", obj(1))
        size, version = os.path.getsize(path), database.version
        with pytest.raises(StoreError):
            database.commit_batch(bad)
        assert os.path.getsize(path) == size
        assert (database.version, database.snapshot()) == (version, {"keep": obj(1)})
        database.close()


class TestQuarantineRecovery:
    """Corruption on open: quarantine the damage, keep the prefix."""

    @staticmethod
    def _write_log_with_mid_corruption(path):
        """Three committed records with the middle one damaged in place.

        Returns the size of the intact prefix (the first record).
        """
        database = ObjectDatabase(FileStorage(path))
        database.put("a", obj(1))
        prefix_size = os.path.getsize(path)
        database.put("b", obj(2))
        database.put("c", obj(3))
        database.close()
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
        _assert_detected(path, 2, "failed its checksum")
        recovered, log = _open(path)
        # Only the intact prefix survives: replaying past a gap would break
        # prefix consistency, so the damaged record AND its suffix move out.
        assert recovered.names() == ("a",)
        assert recovered.get("a") == obj(1)
        assert log.quarantined_records == 2
        assert log.quarantined_bytes > 0
        assert os.path.getsize(path) == prefix_size
        assert os.path.exists(log.quarantine_path)
        assert os.path.getsize(log.quarantine_path) == log.quarantined_bytes
        # The store stays writable after quarantine.
        recovered.put("after", obj(9))
        recovered.close()
        reloaded, log = _open(path)
        assert reloaded.names() == ("a", "after")
        assert log.quarantined_records == 0
        reloaded.close()

    def test_clean_log_has_no_quarantine(self, tmp_path):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("x", obj(1))
        database.close()
        reloaded, log = _open(path)
        assert log.quarantined_records == 0
        assert log.quarantined_bytes == 0
        assert not os.path.exists(log.quarantine_path)
        reloaded.close()


class TestAtomsTheirSortCannotHold:
    """A checksummed image whose atom its sort cannot hold is corruption, not a crash."""

    @pytest.mark.parametrize(
        "image",
        [
            {"k": "a", "srt": "int", "v": float("inf")},
            {"k": "a", "srt": "int", "v": float("nan")},
            {"k": "a", "srt": "float", "v": 10**400},
            {"k": "a", "srt": "int", "v": "many"},
            {"k": "t", "v": {"n": {"k": "a", "srt": "int", "v": None}}},
        ],
        ids=["int-infinity", "int-nan", "float-huge-int", "int-text", "nested-int-null"],
    )
    def test_both_doors_name_the_record_and_keep_the_prefix(self, tmp_path, image):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("x", obj(1))
        database.close()
        intact = os.path.getsize(path)
        line = frame_record({"op": "commit", "writes": {"y": image}})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line)
        _assert_detected(path, 2, "cannot hold")
        session = repro.connect(path)
        try:
            assert session.names() == ("x",)
            assert session.get("x") is obj(1)
        finally:
            session.shutdown()
        assert os.path.getsize(path) == intact
        assert os.path.getsize(path + ".quarantine") == len(line)


def _chain(depth):
    value = Atom(0)
    for _ in range(depth):
        value = TupleObject({"next": value})
    return value


class TestTooDeep:
    """A value nested past what the codec handles is a typed error both ways."""

    def test_a_too_deep_value_is_refused_and_changes_nothing(self, tmp_path):
        deep = _chain(1200)
        memory = ObjectDatabase()
        memory.put("deep", deep)
        assert memory.get("deep") is deep
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("ok", obj(1))
        size, version = os.path.getsize(path), database.version
        with pytest.raises(StoreError, match="'deep'.*nested too deeply"):
            database.put("deep", deep)
        assert os.path.getsize(path) == size
        assert (database.version, database.snapshot()) == (version, {"ok": obj(1)})
        database.put("after", obj(2))
        database.close()
        assert _reopened(path) == {"after": obj(2), "ok": obj(1)}

    def test_a_too_deep_log_line_is_quarantined_not_a_crash(self, tmp_path):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("x", obj(1))
        database.close()
        intact = os.path.getsize(path)
        deep = '{"crc":0,"op":"commit","writes":{"y":' + "[" * 100_000 + "]" * 100_000 + "}}\n"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(deep)
        _assert_detected(path, 2, "nested too deeply")
        database, log = _open(path)
        assert database.snapshot() == {"x": obj(1)}
        assert (log.quarantined_records, log.quarantined_bytes) == (1, len(deep))
        assert os.path.getsize(path) == intact
        database.close()

    def test_no_checksummed_image_at_the_parser_limit_escapes_the_report(self, tmp_path):
        # The line checks on the text read and parses; its objects are one
        # frame deeper to decode than its JSON was to parse.
        path = str(tmp_path / "store.wal")
        for depth in range(440, 520):
            body = (
                '{"op":"commit","writes":{"y":' + '{"k":"t","v":{"n":' * depth
                + '{"k":"a","srt":"int","v":1}' + "}}" * depth + "}}"
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{"crc":%d,%s\n' % (zlib.crc32(body.encode("utf-8")), body[1:]))
            report = verify_wal(path)
            assert report["records"] + len(report["corrupt_records"]) == 1

    def test_no_depth_at_the_parser_limit_escapes_the_typed_error(self):
        # Just inside the parser's limit, re-serialising the parsed record
        # for its checksum is what fails; wherever that window falls on this
        # stack, parse_record must answer with a StoreError.
        for depth in range(800, 1100):
            line = '{"crc":0,"op":"commit","writes":{"y":' + "[" * depth + "]" * depth + "}}"
            with pytest.raises(StoreError):
                parse_record(line)
