"""Unit tests for the Python-literal constructors (repro.core.builder)."""

import pytest

from repro.core.builder import atom, obj, python_value, set_of, tup
from repro.core.errors import NestingError, NotAnObjectError
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject


class TestObj:
    def test_atoms(self):
        assert obj(3) == Atom(3)
        assert obj("john") == Atom("john")
        assert obj(True) == Atom(True)
        assert obj(2.5) == Atom(2.5)

    def test_none_is_bottom(self):
        assert obj(None) is BOTTOM

    def test_dict_is_tuple(self):
        assert obj({"name": "peter", "age": 25}) == TupleObject(
            {"name": Atom("peter"), "age": Atom(25)}
        )

    def test_null_valued_attribute_is_absent(self):
        assert obj({"name": "peter", "age": None}) == obj({"name": "peter"})

    def test_collections_are_sets(self):
        expected = SetObject([Atom(1), Atom(2)])
        assert obj([1, 2]) == expected
        assert obj((1, 2)) == expected
        assert obj({1, 2}) == expected
        assert obj(frozenset({1, 2})) == expected

    def test_nested_structures(self):
        value = obj({"name": {"first": "john", "last": "doe"}, "children": ["mary", "sue"]})
        assert value.get("name").get("first") == Atom("john")
        assert Atom("sue") in value.get("children")

    def test_existing_objects_pass_through(self):
        value = Atom(5)
        assert obj(value) is value

    def test_rejects_non_string_keys(self):
        with pytest.raises(NotAnObjectError):
            obj({1: "x"})

    def test_rejects_unsupported_types(self):
        with pytest.raises(NotAnObjectError):
            obj(object())

    @pytest.mark.parametrize("wrap", [lambda v: {"a": v}, lambda v: [v]], ids=["dicts", "lists"])
    def test_a_value_too_deep_to_convert_names_its_depth(self, wrap):
        value = 1
        for _ in range(3000):
            value = wrap(value)
        message = "^value is nested 3000 levels deep, too deep to convert$"
        with pytest.raises(NestingError, match=message) as caught:
            obj(value)
        assert caught.value.__cause__ is None and caught.value.__suppress_context__

    def test_a_shared_value_is_counted_once_per_level(self):
        value = [1]
        for _ in range(3000):
            value = [value, {"a": value}]
        with pytest.raises(NestingError, match="^value is nested 6001 levels deep"):
            obj(value)

    @pytest.mark.parametrize("cycle", ["dict", "list"])
    def test_a_cyclic_value_is_named_cyclic(self, cycle):
        value = {"b": 1} if cycle == "dict" else [1]
        if cycle == "dict":
            value["a"] = [value]
        else:
            value.append({"a": value})
        with pytest.raises(NestingError, match="^value is cyclic"):
            obj(value)


class TestHelpers:
    def test_atom_helper(self):
        assert atom(7) == Atom(7)

    def test_tup_helper_with_kwargs(self):
        assert tup(name="peter", age=25) == obj({"name": "peter", "age": 25})

    def test_tup_helper_with_mapping(self):
        assert tup({"first name": "john"}) == TupleObject({"first name": Atom("john")})

    def test_set_of_helper(self):
        assert set_of("john", "mary") == obj(["john", "mary"])


class TestPythonValue:
    def test_round_trip_atoms_and_none(self):
        assert python_value(obj(3)) == 3
        assert python_value(BOTTOM) is None

    def test_round_trip_structures(self):
        original = {"name": "peter", "children": frozenset({"max", "susan"})}
        assert python_value(obj(original)) == original

    def test_set_of_tuples_becomes_list(self):
        value = obj([{"a": 1}, {"a": 2}])
        converted = python_value(value)
        assert isinstance(converted, list)
        assert {"a": 1} in converted and {"a": 2} in converted

    def test_top_has_no_python_form(self):
        with pytest.raises(NotAnObjectError):
            python_value(TOP)
