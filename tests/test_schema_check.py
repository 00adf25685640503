"""Unit tests for schema conformance checking (repro.schema.check)."""

import pytest

from repro import parse_formula, parse_object, parse_rule
from repro.core.builder import obj
from repro.core.errors import SchemaError
from repro.core.objects import BOTTOM, TOP
from repro.schema.check import check_formula, check_object, check_rule, conforms
from repro.schema.types import (
    any_type,
    empty_type,
    integer,
    set_type,
    string,
    tuple_type,
    union_type,
)

PERSON = tuple_type({"name": string(), "age": integer()}, required=["name"])
RELATION = set_type(PERSON)
DATABASE = tuple_type({"r1": RELATION}, required=["r1"])


class TestCheckObject:
    def test_conforming_objects(self):
        assert conforms(obj({"name": "peter", "age": 25}), PERSON)
        assert conforms(obj({"name": "peter"}), PERSON)  # age optional
        assert conforms(parse_object("{[name: peter], [name: john, age: 7]}"), RELATION)
        assert conforms(BOTTOM, PERSON)  # ⊥ conforms to everything

    def test_any_and_empty(self):
        assert conforms(parse_object("{1, [a: 2]}"), any_type())
        assert conforms(BOTTOM, empty_type())
        assert not conforms(obj(1), empty_type())

    def test_top_conforms_to_nothing_but_any(self):
        assert conforms(TOP, any_type())
        assert not conforms(TOP, PERSON)

    def test_wrong_sort_reported_with_path(self):
        issues = check_object(obj({"name": 42}), PERSON)
        assert len(issues) == 1
        assert issues[0].path == "name"
        assert "string" in issues[0].message

    @pytest.mark.parametrize(
        "value, schema, message",
        [
            (obj(True), integer(), "expected an int atom, got bool true"),
            (obj(1), string(), "expected a string atom, got int 1"),
        ],
    )
    def test_wrong_sort_message_takes_the_sorts_article(self, value, schema, message):
        (issue,) = check_object(value, schema)
        assert issue.message == message

    def test_missing_required_attribute(self):
        issues = check_object(obj({"age": 3}), PERSON)
        assert any("missing required" in issue.message for issue in issues)

    def test_closed_tuple_rejects_extra_attributes(self):
        issues = check_object(obj({"name": "x", "extra": 1}), PERSON)
        assert any(issue.path == "extra" for issue in issues)

    def test_open_tuple_accepts_extra_attributes(self):
        open_person = tuple_type({"name": string()}, required=["name"], open=True)
        assert conforms(obj({"name": "x", "extra": 1}), open_person)

    def test_set_elements_located_by_index(self):
        issues = check_object(parse_object("{[name: peter], [name: 42]}"), RELATION)
        assert len(issues) == 1
        assert "[" in issues[0].path and "]" in issues[0].path

    def test_nested_paths(self):
        issues = check_object(parse_object("[r1: {[name: 42]}]"), DATABASE)
        assert issues[0].path.startswith("r1[")

    def test_union_types(self):
        flexible = union_type(integer(), string())
        assert conforms(obj(1), flexible)
        assert conforms(obj("x"), flexible)
        assert not conforms(obj(True), flexible)

    def test_strict_mode_raises(self):
        with pytest.raises(SchemaError):
            check_object(obj({"name": 42}), PERSON, strict=True)


class TestCheckFormula:
    def test_variables_always_conform(self):
        assert check_formula(parse_formula("X"), PERSON) == []
        assert check_formula(parse_formula("[r1: {[name: X]}]"), DATABASE) == []

    def test_constants_checked(self):
        issues = check_formula(parse_formula("[r1: {[name: 42]}]"), DATABASE)
        assert issues

    def test_undeclared_attribute_in_pattern(self):
        issues = check_formula(parse_formula("[r1: {[salary: X]}]"), DATABASE)
        assert any("not declared" in issue.message for issue in issues)

    def test_pattern_kind_mismatch(self):
        issues = check_formula(parse_formula("{X}"), DATABASE)
        assert issues
        issues = check_formula(parse_formula("[a: X]"), set_type(integer()))
        assert issues

    def test_any_accepts_every_pattern(self):
        assert check_formula(parse_formula("[weird: {[deep: X]}]"), any_type()) == []


class TestCheckRule:
    def test_body_checked_against_database_schema(self):
        rule = parse_rule("[out: {X}] :- [r1: {[name: X]}]")
        assert check_rule(rule, DATABASE) == []
        bad = parse_rule("[out: {X}] :- [r1: {[salary: X]}]")
        assert check_rule(bad, DATABASE)

    def test_head_checked_only_when_schema_given(self):
        rule = parse_rule("[out: {[salary: X]}] :- [r1: {[name: X]}]")
        assert check_rule(rule, DATABASE) == []
        head_schema = tuple_type({"out": set_type(PERSON)})
        assert check_rule(rule, DATABASE, head_schema)

    def test_fact_heads_ignored_without_head_schema(self):
        fact = parse_rule("[out: {[name: peter]}].")
        assert check_rule(fact, DATABASE) == []
