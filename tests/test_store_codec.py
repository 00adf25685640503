"""Unit tests for object serialization (repro.store.codec)."""

import pytest

from repro import parse_object
from repro.core.builder import obj
from repro.core.errors import StoreError
from repro.core.objects import BOTTOM, TOP
from repro.store.codec import (
    decode_json,
    dumps_object,
    encode_json,
    frame_record,
    from_json_text,
    loads_object,
    parse_record,
    to_json_text,
)


SAMPLES = [
    obj(1),
    obj(2.5),
    obj(True),
    obj("New York"),
    BOTTOM,
    TOP,
    obj({}),
    obj([]),
    obj({"name": "peter", "age": 25}),
    obj([1, "two", True, 2.0]),
    parse_object("[r1: {[name: peter, children: {max, susan}]}, r2: {}]"),
]


class TestJsonRoundTrip:
    @pytest.mark.parametrize("value", SAMPLES, ids=[v.to_text() for v in SAMPLES])
    def test_encode_decode(self, value):
        assert decode_json(encode_json(value)) == value

    @pytest.mark.parametrize("value", SAMPLES, ids=[v.to_text() for v in SAMPLES])
    def test_text_round_trip(self, value):
        assert from_json_text(to_json_text(value)) == value

    def test_atom_sorts_preserved(self):
        assert decode_json(encode_json(obj(1))).value == 1
        assert decode_json(encode_json(obj(1.0))).value == 1.0
        assert decode_json(encode_json(obj(True))).value is True

    def test_indented_output(self):
        rendered = to_json_text(obj({"a": [1, 2]}), indent=2)
        assert "\n" in rendered
        assert from_json_text(rendered) == obj({"a": [1, 2]})


class TestErrors:
    def test_malformed_payloads(self):
        with pytest.raises(StoreError):
            decode_json({"no": "kind"})
        with pytest.raises(StoreError):
            decode_json({"k": "unknown"})
        with pytest.raises(StoreError):
            decode_json({"k": "t", "v": [1, 2]})
        with pytest.raises(StoreError):
            decode_json({"k": "s", "v": {"oops": 1}})
        with pytest.raises(StoreError):
            decode_json({"k": "a", "srt": "decimal", "v": 1})

    def test_invalid_json_text(self):
        with pytest.raises(StoreError):
            from_json_text("{not json")

    def test_encode_rejects_non_objects(self):
        with pytest.raises(StoreError):
            encode_json("plain string")


class TestTextNotation:
    def test_dumps_loads_round_trip(self):
        value = parse_object("[r1: {[name: peter, age: 25]}]")
        assert loads_object(dumps_object(value)) == value


class TestRecordFraming:
    def test_round_trip(self):
        record = {"op": "commit", "writes": {"x": encode_json(obj(1)), "y": None}}
        line = frame_record(record)
        assert line.endswith("\n")
        assert "\n" not in line[:-1]
        assert parse_record(line) == record

    def test_checksum_detects_damage(self):
        line = frame_record({"op": "commit", "writes": {}})
        with pytest.raises(StoreError):
            parse_record(line.replace('"commit"', '"COMMIT"'))

    def test_records_without_checksum_are_rejected(self):
        # Every framed record carries a checksum; a line without one (the
        # pre-WAL per-change shape, or a commit whose ``crc`` key was
        # damaged) is corruption, whatever its ``op``.
        for line in (
            '{"op": "write", "name": "x"}',
            '{"op": "delete", "name": "x"}',
            '{"op": "commit", "writes": {}}',
        ):
            with pytest.raises(StoreError, match="no checksum"):
                parse_record(line)

    def test_malformed_lines_rejected(self):
        with pytest.raises(StoreError):
            parse_record("{not json}")
        with pytest.raises(StoreError):
            parse_record('["not", "an", "object"]')

    def test_refuses_to_frame_a_record_with_a_checksum(self):
        with pytest.raises(StoreError):
            frame_record({"op": "commit", "crc": 1})

    def test_the_line_is_the_canonical_form_of_the_framed_record(self):
        """One serialisation, the same bytes as dumping record-plus-``crc`` again."""
        import json
        import zlib

        def twice(record):
            body = json.dumps(record, sort_keys=True, separators=(",", ":"))
            framed = dict(record, crc=zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF)
            return json.dumps(framed, sort_keys=True, separators=(",", ":")) + "\n"

        for record in (
            {},
            {"op": "commit", "writes": {}},
            {"op": "commit", "writes": {"é\n": encode_json(obj({"a": [1, "x"]})), "y": None}},
            {"op": "commit", "writes": {}, "edits": {"x": [{"at": [], "add": [], "del": []}]}},
        ):
            assert frame_record(record) == twice(record)
            assert parse_record(frame_record(record)) == record
