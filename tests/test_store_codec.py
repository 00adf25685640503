"""Unit tests for object serialization (repro.store.codec)."""

import json
import zlib
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import parse_object
from repro.core import intern, objects
from repro.core.builder import obj
from repro.core.errors import StoreError
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject
from repro.store import codec
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
from tests.conftest import complex_objects


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


# -- decoding through the intern table -------------------------------------------------


def _miss(*_):
    return None


def _reducing_only():
    """The set constructor with its probe missing: every set is deduplicated and reduced."""
    return mock.patch.object(intern, "live_node", _miss)


def _outcome(payload):
    """What decoding ``payload`` answers: the object, or the type of the error it raises."""
    try:
        return decode_json(payload)
    except (StoreError, ValueError, TypeError) as error:
        return type(error)


def _assert_exact(payload, warm):
    """The set probe answers what reduction answers, by identity.

    Warm: reduction's answer is live while the probe decodes, so a probe that
    finds a wrong node is caught.  Cold: the probe decodes first.
    """
    if warm:
        with _reducing_only():
            expected = _outcome(payload)
        probed = _outcome(payload)
    else:
        probed = _outcome(payload)
        with _reducing_only():
            expected = _outcome(payload)
    assert probed is expected, (payload, probed, expected)


def _assert_probed(value):
    """A live canonical value decodes by lookups alone: no node is built, no set reduced."""
    data = encode_json(value)
    before = intern.intern_stats()["misses"]
    with mock.patch.object(objects, "_reduce_unique", side_effect=AssertionError("reduced")):
        decoded = decode_json(data)
    assert decoded is value
    assert intern.intern_stats()["misses"] == before, value


_SORTS = ("bool", "int", "float", "string")
_ATOM_PAYLOADS = st.builds(
    lambda sort, value: {"k": "a", "srt": sort, "v": value},
    st.sampled_from(_SORTS + ("decimal",)),
    st.one_of(
        st.booleans(),
        st.integers(-3, 3),
        st.sampled_from([1.5, 0.0, -0.0, 2.0, float("inf")]),
        st.sampled_from(["x", "y", "1", ""]),
        st.none(),
    ),
)
#: Encoded payloads of every shape, canonical or not: unsorted, duplicated or
#: dominated set elements, ⊥ / ⊤ children, atoms their sort does not describe.
_PAYLOADS = st.recursive(
    _ATOM_PAYLOADS | st.sampled_from([{"k": "B"}, {"k": "T"}]),
    lambda children: st.one_of(
        st.dictionaries(st.sampled_from(["a", "b", "c"]), children, max_size=3).map(
            lambda value: {"k": "t", "v": value}
        ),
        st.lists(children, max_size=4).map(lambda value: {"k": "s", "v": value}),
    ),
    max_leaves=10,
)

_ONE = {"k": "a", "srt": "int", "v": 1}
_PAIR = {"k": "t", "v": {"a": _ONE, "b": {"k": "a", "srt": "int", "v": 2}}}


class TestTheSetConstructorProbesTheInternTable:
    """``SetObject`` finds a live canonical set before it reduces; reduction is its oracle."""

    @settings(max_examples=150, deadline=None)
    @given(value=complex_objects(4))
    def test_a_live_value_decodes_to_itself_by_lookups_alone(self, value):
        _assert_probed(value)

    @settings(max_examples=300, deadline=None)
    @given(payload=_PAYLOADS, warm=st.booleans())
    @example(payload={"k": "s", "v": [{"k": "a", "srt": "int", "v": 2}, _ONE]}, warm=True)
    @example(payload={"k": "s", "v": [_ONE, _ONE]}, warm=True)
    @example(payload={"k": "s", "v": [_PAIR, {"k": "t", "v": {"a": _ONE}}]}, warm=True)
    @example(payload={"k": "s", "v": [_ONE, {"k": "B"}]}, warm=True)
    @example(payload={"k": "t", "v": {"a": _ONE, "b": {"k": "B"}}}, warm=True)
    @example(payload={"k": "s", "v": [_ONE, {"k": "T"}]}, warm=True)
    @example(payload={"k": "a", "srt": "int", "v": True}, warm=True)
    @example(payload={"k": "a", "srt": "float", "v": 1}, warm=True)
    @example(payload={"k": "a", "srt": "bool", "v": 0}, warm=True)
    @example(payload={"k": "a", "srt": "string", "v": 5}, warm=True)
    @example(payload={"k": "a", "srt": "int", "v": 1.5}, warm=True)
    @example(payload={"k": "a", "srt": "int", "v": [1]}, warm=True)
    def test_any_payload_decodes_as_reduction_decodes_it(self, payload, warm):
        _assert_exact(payload, warm)

    @settings(max_examples=200, deadline=None)
    @given(elements=st.lists(complex_objects(3), max_size=5), warm=st.booleans())
    def test_any_elements_build_the_set_reduction_builds(self, elements, warm):
        elements = elements + elements[:1]  # a duplicate, when there is an element
        if warm:
            with _reducing_only():
                expected = SetObject(elements)
            assert SetObject(reversed(elements)) is expected
        else:
            probed = SetObject(reversed(elements))
            with _reducing_only():
                assert SetObject(elements) is probed

    def test_each_intern_key_tells_apart_what_the_model_tells_apart(self):
        one, two = Atom(1), Atom(2)
        distinct = [
            one, Atom(1.0), Atom(True), Atom("1"),
            TupleObject({"a": one}), TupleObject({"b": one}), TupleObject({"a": one, "b": one}),
            SetObject([]), SetObject([one]), SetObject([two]), SetObject([one, two]),
        ]
        assert len({id(value) for value in distinct}) == len(distinct)
        for value in distinct:
            assert decode_json(encode_json(value)) is value

    @pytest.mark.parametrize("warm", [True, False])
    def test_a_generated_value_decodes_as_reduction_decodes_it(self, warm):
        for value in (parse_object("{[a: 1, b: {2, x}], [a: 1]}"), obj([2.5, "x", False])):
            _assert_exact(encode_json(value), warm)

    def test_a_value_that_is_not_live_is_built_once(self):
        rows = [{"k": "t", "v": {"a": {"k": "a", "srt": "string", "v": f"probe_cold_{i}"}}}
                for i in (1, 2)]
        data = {"k": "t", "v": {"fresh": {"k": "s", "v": rows}}}
        before = intern.intern_stats()["misses"]
        decoded = decode_json(data)
        assert intern.intern_stats()["misses"] - before == 6  # 2 atoms, 2 rows, the set, the root
        assert decoded is parse_object("[fresh: {[a: probe_cold_1], [a: probe_cold_2]}]")

    def test_a_probe_keyed_on_unsorted_ids_is_caught(self):
        def mutant(key):  # the key as the elements came, not sorted by intern id
            return intern._TABLE._table.get(("s", tuple(reversed(key[1]))))

        later, earlier = Atom("probe-order-z"), Atom("probe-order-a")
        value = SetObject([later, earlier])
        with mock.patch.object(intern, "live_node", mutant):
            with pytest.raises(AssertionError):
                _assert_probed(value)
        _assert_probed(value)

    def test_a_probe_that_hits_a_dominated_pair_is_caught(self):
        def mutant(key):  # any live one-element set of the elements: domination unchecked
            found = (intern._TABLE._table.get(("s", (iid,))) for iid in key[1])
            return next((hit for hit in found if hit is not None), None)

        small = TupleObject({"a": Atom("dominated-probe")})
        held = SetObject([small])  # noqa: F841 - live: what the mutant finds
        big = {"k": "t", "v": {**encode_json(small)["v"], "b": _ONE}}
        with mock.patch.object(intern, "live_node", mutant):
            with pytest.raises(AssertionError):
                _assert_exact({"k": "s", "v": [encode_json(small), big]}, warm=True)


class TestRecordChecksumOnTheLineRead:
    RECORD = {
        "op": "commit",
        "writes": {
            "doc": encode_json(parse_object(
                "[title: t1, n: -3, weight: 2.5, ok: true, tags: {x, y}, parts: {[a: 1], [b: 0.25]}]"
            )),
            "gone": None,
        },
    }

    def test_one_changed_character_anywhere_in_the_line_fails(self):
        line = frame_record(self.RECORD)
        replacements = [chr(code) for code in range(32, 127)] + ["é", " ", "\x00"]
        for at in range(len(line) - 1):  # the newline ends the record; it is not in it
            for replacement in replacements:
                if replacement == line[at]:
                    continue
                with pytest.raises(StoreError):
                    parse_record(line[:at] + replacement + line[at + 1 :])

    def test_a_line_json_refuses_is_refused_though_its_checksum_holds(self):
        line = frame_record(self.RECORD)
        head, _, tail = line.partition(",")
        digits = head[len('{"crc":') :]
        body = '{"crc":7,' + tail.rstrip("\n")  # a body that carries a crc member itself
        for damaged in (
            '{"crc":0' + digits + "," + tail,  # a leading zero: not a JSON number
            f'{{"crc":{zlib.crc32(body.encode())},{body[1:]}\n',
        ):
            with pytest.raises(StoreError):
                parse_record(damaged)

    @settings(max_examples=100, deadline=None)
    @given(value=complex_objects(3))
    def test_a_framed_record_parses_alike_through_both_checks(self, value):
        record = {"op": "commit", "writes": {"x": encode_json(value), "y": None}}
        line = frame_record(record)
        with mock.patch.object(codec, "_canonical", wraps=codec._canonical) as canonical:
            with mock.patch.object(codec.json, "loads", wraps=json.loads) as loads:
                assert parse_record(line) == record
                assert parse_record(line.rstrip("\n")) == record
        assert (canonical.call_count, loads.call_count) == (0, 2)
        # The same record, not laid out as framed: parsed whole, re-serialised, compared.
        spaced = json.dumps(json.loads(line))
        with mock.patch.object(codec, "_canonical", wraps=codec._canonical) as canonical:
            assert parse_record(spaced) == record
        assert canonical.call_count == 1
