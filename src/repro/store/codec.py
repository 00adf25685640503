"""Serialization of complex objects.

Two interchange forms are provided:

* a **JSON form** (:func:`encode_json` / :func:`decode_json`): a tagged,
  lossless mapping of the object constructors onto JSON values, suitable for
  files and wire protocols.  Tagging is required because JSON cannot natively
  distinguish a set from a list, a tuple object from a dictionary payload,
  ⊥/⊤ from null, or the integer ``1`` from ``1.0``/``True``;
* the **concrete text form** (:func:`dumps_object` / :func:`loads_object`):
  the paper's own notation, round-tripping through :mod:`repro.parser` —
  human-friendly and used by the examples.

Both round-trip exactly (property-tested in ``tests/test_store_codec.py``).

On top of the object forms, :func:`frame_record` / :func:`parse_record`
implement the write-ahead log's **record framing**: one JSON object per line,
canonically serialized, carrying a CRC-32 checksum of its own payload.  The
framing gives :class:`~repro.store.storage.FileStorage` two guarantees that
plain JSON lines cannot: a record is complete iff it is newline-terminated
(a crash mid-append leaves an unterminated torn tail, which recovery drops),
and a complete record whose bytes were damaged in place fails its checksum
instead of being silently replayed.
"""

from __future__ import annotations

import json
import zlib
from typing import Any

from repro.core.errors import StoreError
from repro.core.objects import (
    BOTTOM,
    TOP,
    Atom,
    Bottom,
    ComplexObject,
    SetObject,
    Top,
    TupleObject,
)

__all__ = [
    "encode_json",
    "decode_json",
    "to_json_text",
    "from_json_text",
    "dumps_object",
    "loads_object",
    "frame_record",
    "parse_record",
]

# Tag names of the JSON form.  Kept short because stored databases repeat them
# for every node.
_KIND = "k"
_VALUE = "v"
_ATOM = "a"
_TUPLE = "t"
_SET = "s"
_TOP = "T"
_BOTTOM = "B"
_SORT = "srt"


def encode_json(value: ComplexObject) -> Any:
    """Encode a complex object into JSON-compatible Python data."""
    if isinstance(value, Bottom):
        return {_KIND: _BOTTOM}
    if isinstance(value, Top):
        return {_KIND: _TOP}
    if isinstance(value, Atom):
        return {_KIND: _ATOM, _SORT: value.sort, _VALUE: value.value}
    if isinstance(value, TupleObject):
        return {
            _KIND: _TUPLE,
            _VALUE: {name: encode_json(item) for name, item in value.items()},
        }
    if isinstance(value, SetObject):
        return {_KIND: _SET, _VALUE: [encode_json(element) for element in value]}
    raise StoreError(f"cannot encode {type(value).__name__} as JSON")


_CONVERT = {"bool": bool, "int": int, "float": float, "string": str}


def decode_json(data: Any) -> ComplexObject:
    """Decode the JSON form back into a complex object."""
    if not isinstance(data, dict) or _KIND not in data:
        raise StoreError(f"malformed encoded object: {data!r}")
    kind = data[_KIND]
    if kind == _BOTTOM:
        return BOTTOM
    if kind == _TOP:
        return TOP
    if kind == _ATOM:
        try:
            convert = _CONVERT[data[_SORT]]
        except (KeyError, TypeError):  # TypeError: a sort that is not even hashable
            raise StoreError(f"unknown atom sort {data.get(_SORT)!r}") from None
        try:
            value = convert(data.get(_VALUE))
        except (ValueError, TypeError, OverflowError) as error:
            raise StoreError(f"atom sort {data[_SORT]!r} cannot hold the value: {error}") from None
        return Atom(value)
    if kind == _TUPLE:
        payload = data.get(_VALUE, {})
        if not isinstance(payload, dict):
            raise StoreError(f"malformed tuple payload: {payload!r}")
        return TupleObject({name: decode_json(item) for name, item in payload.items()})
    if kind == _SET:
        payload = data.get(_VALUE, [])
        if not isinstance(payload, list):
            raise StoreError(f"malformed set payload: {payload!r}")
        return SetObject([decode_json(item) for item in payload])
    raise StoreError(f"unknown kind tag {kind!r}")


def to_json_text(value: ComplexObject, indent: int = None) -> str:
    """Serialize a complex object to a JSON string."""
    return json.dumps(encode_json(value), sort_keys=True, indent=indent)


def from_json_text(text: str) -> ComplexObject:
    """Deserialize a complex object from its JSON string form."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise StoreError(f"invalid JSON: {error}") from error
    return decode_json(data)


# -- write-ahead-log record framing -------------------------------------------------

_CHECKSUM = "crc"
_FRAMED = f'{{"{_CHECKSUM}":'  # how frame_record begins a line


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def frame_record(record: dict) -> str:
    """Serialize a log record to one newline-terminated, checksummed line.

    The checksum is CRC-32 over the canonical JSON of the record *without*
    the checksum field, so :func:`parse_record` can recompute and compare it.
    The record is serialized once: ``"crc"`` sorts before every key a commit
    carries (``edits``, ``op``, ``writes``), so splicing it in front of the
    checksummed text *is* the canonical form of the framed record.
    """
    if _CHECKSUM in record:
        raise StoreError(f"record already carries a {_CHECKSUM!r} field: {record!r}")
    body = _canonical(record)
    checksum = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    tail = "," + body[1:] if record else "}"
    return f'{{"{_CHECKSUM}":{checksum}{tail}\n'


def parse_record(line: str) -> dict:
    """Parse one log line back into a record, verifying its checksum.

    Every record :func:`frame_record` writes carries a checksum, so a
    complete line without one — or with one that does not match — was not
    written by a commit, or was damaged after it: the log is corrupt rather
    than torn.  (This also covers in-place damage to the checksum field's
    *name*, which must not demote a commit to an unchecked record.)  A line
    nested too deeply to parse is malformed like any other.
    The checksum is verified on the line as read, less its ``"crc":N,``;
    only a line that fails that is parsed whole and re-serialised to compare.
    """
    head, _, tail = line.partition(",")
    stored = head[len(_FRAMED) :]
    try:
        # A JSON number: no sign, no leading zero, ASCII digits only.
        if head.startswith(_FRAMED) and stored.isdecimal() and stored == str(int(stored)):
            body = "{" + tail.rstrip("\n")
            if zlib.crc32(body.encode("utf-8")) == int(stored):
                record = json.loads(body)
                if _CHECKSUM not in record:  # a second crc member: as before
                    return record
        record = json.loads(line)
        if not isinstance(record, dict):
            raise StoreError(f"malformed log record (not an object): {record!r}")
        checksum = record.pop(_CHECKSUM, None)
        if checksum is None:
            raise StoreError(
                "log record carries no checksum (records are always framed with"
                " one; the line was not written by a commit, or was damaged in place)"
            )
        # Re-serialising recurses as deep as parsing did, and can fail where
        # parsing just did not.
        expected = zlib.crc32(_canonical(record).encode("utf-8")) & 0xFFFFFFFF
    except json.JSONDecodeError as error:
        raise StoreError(f"malformed log record: {error}") from error
    except RecursionError:
        raise StoreError("malformed log record: nested too deeply to parse") from None
    if checksum != expected:
        raise StoreError(
            f"log record failed its checksum (stored {checksum}, computed {expected})"
        )
    return record


def dumps_object(value: ComplexObject) -> str:
    """Serialize to the paper's concrete text notation."""
    return value.to_text()


def loads_object(text: str) -> ComplexObject:
    """Parse an object from the paper's concrete text notation."""
    from repro.parser import parse_object

    return parse_object(text)
