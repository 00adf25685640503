"""Unit tests for attribute paths (repro.core.paths)."""

import pytest

from repro import parse_object
from repro.core.builder import obj
from repro.core.objects import BOTTOM, TOP
from repro.core.paths import Path, get_path, has_path, navigate, new_set_elements


class TestPath:
    def test_parsing_from_text(self):
        assert Path("a.b.c").steps == ("a", "b", "c")
        assert Path("").steps == ()
        assert Path(("a", "b")).steps == ("a", "b")

    def test_equality_with_strings(self):
        assert Path("a.b") == "a.b"
        assert Path("a.b") == Path("a.b")
        assert Path("a.b") != Path("a.c")

    def test_child_parent_root(self):
        path = Path("a.b")
        assert path.child("c") == Path("a.b.c")
        assert path.parent() == Path("a")
        assert Path("").is_root
        assert str(path) == "a.b"

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            Path(("a", ""))


class TestGetPath:
    def test_navigates_tuples(self):
        value = obj({"a": {"b": {"c": 7}}})
        assert get_path(value, "a.b.c") == obj(7)

    def test_missing_path_is_bottom(self):
        assert get_path(obj({"a": 1}), "b") is BOTTOM
        assert get_path(obj({"a": 1}), "a.b") is BOTTOM

    def test_empty_path_is_identity(self):
        value = obj({"a": 1})
        assert get_path(value, "") == value

    def test_descends_through_sets(self):
        value = parse_object("[r1: {[name: peter], [name: john]}]")
        assert get_path(value, "r1.name") == obj(["peter", "john"])

    def test_set_descent_skips_missing_attributes(self):
        value = parse_object("[r1: {[name: peter], [age: 7]}]")
        assert get_path(value, "r1.name") == obj(["peter"])

    def test_atom_in_the_middle_is_bottom(self):
        assert get_path(obj({"a": 1}), "a.b") is BOTTOM


class TestHasPath:
    def test_present_and_absent(self):
        value = parse_object("[r1: {[name: peter]}]")
        assert has_path(value, "r1")
        assert has_path(value, "r1.name")
        assert not has_path(value, "r1.age")
        assert not has_path(value, "r2")

    def test_empty_set_result_counts_as_absent(self):
        assert not has_path(parse_object("[r1: {}]"), "r1.name")


class TestNavigate:
    DB = parse_object("[a: [b: {1, 2}], c: 5]")

    def test_tuple_steps(self):
        assert navigate(self.DB, Path("a.b")) == parse_object("{1, 2}")

    def test_missing_attribute_is_bottom(self):
        assert navigate(self.DB, Path("a.z")) is BOTTOM

    def test_step_through_non_tuple_is_bottom(self):
        assert navigate(self.DB, Path("c.z")) is BOTTOM

    def test_top_is_sticky(self):
        assert navigate(TOP, Path("a.b")) is TOP

    def test_does_not_descend_through_sets(self):
        # Unlike get_path, elements are not traversed.
        db = parse_object("[r: {[name: 1]}]")
        assert navigate(db, Path("r.name")) is BOTTOM


class TestNewSetElements:
    def test_growth(self):
        before = parse_object("[doa: {1, 2}]")
        after = parse_object("[doa: {1, 2, 3}]")
        assert new_set_elements(before, after, Path("doa")) == (parse_object("3"),)

    def test_no_growth(self):
        db = parse_object("[doa: {1, 2}]")
        assert new_set_elements(db, db, Path("doa")) == ()

    def test_previously_absent_set_is_all_new(self):
        before = parse_object("[other: {9}]")
        after = parse_object("[other: {9}, doa: {1, 2}]")
        fresh = new_set_elements(before, after, Path("doa"))
        assert set(fresh) == {parse_object("1"), parse_object("2")}

    def test_absorbed_elements_count_as_new(self):
        # {[a:1]} grows to {[a:1, b:2]}: reduction replaced the old element,
        # so the absorbing element is new.
        before = parse_object("[r: {[a: 1]}]")
        after = parse_object("[r: {[a: 1, b: 2]}]")
        assert new_set_elements(before, after, Path("r")) == (
            parse_object("[a: 1, b: 2]"),
        )

    def test_non_set_at_path_is_empty(self):
        db = parse_object("[r: 5]")
        assert new_set_elements(BOTTOM, db, Path("r")) == ()

    def test_top_is_unsound(self):
        assert new_set_elements(BOTTOM, TOP, Path("r")) is None
