"""Unit tests for pretty printing (repro.parser.printer)."""

import pytest

from repro import ReproError, parse_object, parse_rule
from repro.core.builder import obj
from repro.core.errors import NestingError
from repro.parser.printer import pretty, to_source


class TestToSource:
    def test_objects(self):
        assert to_source(obj({"a": 1})) == "[a: 1]"

    def test_plain_python_values(self):
        assert to_source({"a": 1}) == "[a: 1]"
        assert to_source([1, 2]) == "{1, 2}"

    def test_rules(self):
        rule = parse_rule("[r: {X}] :- [r1: {X}]")
        assert to_source(rule) == "[r: {X}] :- [r1: {X}]."

    def test_round_trip(self):
        text = "[r1: {[age: 25, name: peter]}, r2: {}]"
        assert to_source(parse_object(text)) == text


class TestPretty:
    def test_small_objects_stay_compact(self):
        assert pretty(obj({"a": 1})) == "[a: 1]"

    def test_large_objects_are_indented(self):
        value = parse_object(
            "[r1: {[name: peter, age: 25], [name: john, age: 7], [name: mary, age: 13]}]"
        )
        rendered = pretty(value, max_width=40)
        assert "\n" in rendered
        assert rendered.count("[") == rendered.count("]")
        # The indented form still parses back to the same object.
        assert parse_object(rendered) == value

    def test_pretty_rules(self):
        rule = parse_rule(
            "[r: {[a1: X, a2: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]"
        )
        rendered = pretty(rule, max_width=30)
        assert rendered.endswith(".")
        assert ":-" in rendered

    def test_pretty_plain_values(self):
        assert pretty({"a": [1, 2]}) == "[a: {1, 2}]"

    def test_pretty_set_indentation_round_trip(self):
        value = parse_object("{[name: a, age: 1], [name: b, age: 2], [name: c, age: 3]}")
        rendered = pretty(value, max_width=20)
        assert parse_object(rendered) == value


def nested(levels):
    return parse_object("[a: " * levels + "1" + "]" * levels)


ENTRY_POINTS = [lambda value: value.to_text(), pretty, to_source]
ENTRY_POINT_IDS = ["to_text", "pretty", "to_source"]


class TestHostileNesting:
    """Printing an object that parsed but is too deep to render is a typed error."""

    @pytest.mark.parametrize("render", ENTRY_POINTS, ids=ENTRY_POINT_IDS)
    def test_too_deep_is_a_typed_error_naming_the_depth(self, render):
        with pytest.raises(NestingError, match="nested 400 levels deep") as info:
            render(nested(400))
        assert isinstance(info.value, ReproError)
        assert info.value.__cause__ is None and info.value.__suppress_context__

    @pytest.mark.parametrize("render", ENTRY_POINTS, ids=ENTRY_POINT_IDS)
    def test_a_300_deep_object_still_prints(self, render):
        assert parse_object(render(nested(300))) == nested(300)
