"""Unit tests for path indexes (repro.store.index)."""

from unittest import mock

import pytest

from repro import parse_object
from repro.core.builder import obj, set_of, tup
from repro.store import ObjectDatabase
from repro.store.index import PathIndex


class TestPathIndex:
    def test_add_and_lookup(self):
        index = PathIndex("name")
        index.add("peter", obj({"name": "peter", "age": 25}))
        index.add("john", obj({"name": "john", "age": 7}))
        assert index.lookup(obj("peter")) == {"peter"}
        assert index.lookup(obj("nobody")) == frozenset()
        assert index.covers("peter") and not index.covers("nobody")

    def test_values_inside_sets_are_indexed(self):
        index = PathIndex("family.name")
        index.add(
            "tree", parse_object("[family: {[name: abraham], [name: isaac]}]")
        )
        assert index.lookup(obj("abraham")) == {"tree"}
        assert index.lookup(obj("isaac")) == {"tree"}

    def test_missing_path_indexes_nothing(self):
        index = PathIndex("salary")
        index.add("x", obj({"name": "peter"}))
        assert len(index) == 0
        assert index.covers("x")

    def test_re_adding_replaces_old_entries(self):
        index = PathIndex("name")
        index.add("x", obj({"name": "old"}))
        index.add("x", obj({"name": "new"}))
        assert index.lookup(obj("old")) == frozenset()
        assert index.lookup(obj("new")) == {"x"}

    def test_remove(self):
        index = PathIndex("name")
        index.add("x", obj({"name": "peter"}))
        index.remove("x")
        assert index.lookup(obj("peter")) == frozenset()
        assert len(index) == 0
        index.remove("x")  # idempotent

    def test_rebuild(self):
        index = PathIndex("name")
        index.add("stale", obj({"name": "ghost"}))
        index.rebuild([("a", obj({"name": "peter"})), ("b", obj({"name": "john"}))])
        assert index.lookup(obj("ghost")) == frozenset()
        assert index.lookup(obj("peter")) == {"a"}
        assert set(index.keys()) == {obj("peter"), obj("john")}

    def test_shared_keys_collect_every_name(self):
        index = PathIndex("city")
        index.add("a", obj({"city": "austin"}))
        index.add("b", obj({"city": "austin"}))
        assert index.lookup(obj("austin")) == {"a", "b"}


class TestReverseMap:
    """Maintenance must be O(keys of the object), tracked via the reverse map."""

    def test_remove_only_visits_the_objects_own_keys(self):
        index = PathIndex("name")
        for position in range(100):
            index.add(f"obj{position}", obj({"name": f"n{position}"}))
        # Removing one name leaves every other entry untouched.
        index.remove("obj50")
        assert len(index) == 99
        assert index.lookup(obj("n50")) == frozenset()
        assert index.lookup(obj("n49")) == {"obj49"}

    def test_overwrite_with_multiple_set_keys(self):
        index = PathIndex("tags")
        index.add("x", obj({"tags": ["a", "b", "c"]}))
        index.add("x", obj({"tags": ["b", "d"]}))
        assert index.lookup(obj("a")) == frozenset()
        assert index.lookup(obj("b")) == {"x"}
        assert index.lookup(obj("d")) == {"x"}
        assert len(index) == 2

    def test_shared_key_survives_removing_one_contributor(self):
        index = PathIndex("city")
        index.add("a", obj({"city": "austin"}))
        index.add("b", obj({"city": "austin"}))
        index.remove("a")
        assert index.lookup(obj("austin")) == {"b"}
        index.remove("b")
        assert len(index) == 0


def _nested(depth, wrap):
    value = obj(1)
    for _ in range(depth):
        value = wrap(value)
    return value


class TestDeepCommits:
    """An index never changes which values a commit accepts, or what ``find`` answers."""

    def test_deep_put_keeps_find_equal_to_the_scan(self):
        old = parse_object("[a: 1]")
        deep_tuple = _nested(2500, lambda inner: tup(a=inner))
        deep_set = tup(a=_nested(3000, set_of))
        indexed, scanned = ObjectDatabase(), ObjectDatabase()
        indexed.create_index("a")
        for db in (indexed, scanned):
            db.put("q", old)
            db.put("q", deep_tuple)
            db.put("s", deep_set)
        for pattern in (old, deep_tuple, deep_set, parse_object("[a: 2]")):
            assert indexed.find(pattern) == scanned.find(pattern)
        assert indexed.find(deep_tuple) == ["q"]

    def test_a_failed_commit_leaves_every_index_as_it_was(self):
        db = ObjectDatabase()
        first, second = db.create_index("a"), db.create_index("b")
        db.put("q", parse_object("[a: 1, b: 1]"))
        with mock.patch.object(second, "keys_of", side_effect=RuntimeError("boom")):
            with pytest.raises(RuntimeError):
                db.put("q", parse_object("[a: 2, b: 2]"))
        assert db.get("q") == parse_object("[a: 1, b: 1]")
        assert first.lookup(obj(1)) == {"q"} and first.lookup(obj(2)) == frozenset()
