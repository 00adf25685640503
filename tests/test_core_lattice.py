"""Unit tests for union and intersection (Definitions 3.4–3.5, repro.core.lattice)."""

import pytest

from repro.core.builder import obj
from repro.core.lattice import (
    intersection,
    intersection_all,
    is_lattice_consistent,
    union,
    union_all,
)
from repro.core.objects import BOTTOM, TOP, SetObject
from repro.core.order import is_subobject


class TestUnionBasics:
    def test_bottom_is_neutral(self):
        assert union(BOTTOM, obj(5)) == obj(5)
        assert union(obj(5), BOTTOM) == obj(5)

    def test_top_is_absorbing(self):
        assert union(TOP, obj(5)) is TOP
        assert union(obj(5), TOP) is TOP

    def test_equal_atoms(self):
        assert union(obj(1), obj(1)) == obj(1)

    def test_distinct_atoms_give_top(self):
        assert union(obj(1), obj(2)) is TOP

    def test_mixed_kinds_give_top(self):
        assert union(obj({"a": 1, "b": 2}), obj([1, 2, 3])) is TOP
        assert union(obj(1), obj([1])) is TOP

    def test_tuples_union_attributewise(self):
        assert union(obj({"a": 1}), obj({"b": 2, "c": 3})) == obj({"a": 1, "b": 2, "c": 3})

    def test_conflicting_tuple_attribute_gives_top(self):
        assert union(obj({"a": 1, "b": 2}), obj({"b": 3, "c": 4})) is TOP

    def test_sets_union_and_reduce(self):
        assert union(obj([1, 2]), obj([2, 3])) == obj([1, 2, 3])
        assert union(obj([{"a": 1}]), obj([{"a": 1, "b": 2}])) == obj([{"a": 1, "b": 2}])

    def test_nested_union(self):
        left = obj({"a": 1, "b": [2, 3]})
        right = obj({"b": [3, 4], "c": 5})
        assert union(left, right) == obj({"a": 1, "b": [2, 3, 4], "c": 5})


class TestIntersectionBasics:
    def test_top_is_neutral(self):
        assert intersection(TOP, obj(5)) == obj(5)
        assert intersection(obj(5), TOP) == obj(5)

    def test_bottom_is_absorbing(self):
        assert intersection(BOTTOM, obj(5)) is BOTTOM

    def test_equal_atoms(self):
        assert intersection(obj(1), obj(1)) == obj(1)

    def test_distinct_atoms_give_bottom(self):
        assert intersection(obj(1), obj(2)) is BOTTOM

    def test_mixed_kinds_give_bottom(self):
        assert intersection(obj({"a": 1, "b": 2}), obj([1, 2, 3])) is BOTTOM

    def test_tuples_intersect_attributewise(self):
        assert intersection(obj({"a": 1, "b": 2}), obj({"b": 2, "c": 3})) == obj({"b": 2})
        assert intersection(obj({"a": 1}), obj({"b": 2, "c": 3})) == obj({})
        assert intersection(obj({"a": 1, "b": 2}), obj({"b": 3, "c": 4})) == obj({})

    def test_sets_intersect_pairwise(self):
        assert intersection(obj([1, 2]), obj([2, 3])) == obj([2])

    def test_set_intersection_includes_partial_matches(self):
        # The paper: if O1 and O2 are sets their intersection *includes* the
        # plain set intersection (here the partial tuple [a: 1] appears even
        # though it is an element of neither operand).
        left = obj([{"a": 1, "b": 2}])
        right = obj([{"a": 1, "c": 3}])
        assert intersection(left, right) == obj([{"a": 1}])

    def test_nested_intersection(self):
        left = obj({"a": 1, "b": [2, 3]})
        right = obj({"b": [3, 4], "c": 5})
        assert intersection(left, right) == obj({"b": [3]})


class TestFolds:
    def test_union_all_empty_is_bottom(self):
        assert union_all([]) is BOTTOM

    def test_intersection_all_empty_is_top(self):
        assert intersection_all([]) is TOP

    def test_union_all(self):
        assert union_all([obj([1]), obj([2]), obj([3])]) == obj([1, 2, 3])

    def test_intersection_all(self):
        assert intersection_all([obj([1, 2, 3]), obj([2, 3, 4]), obj([3, 5])]) == obj([3])

    def test_union_all_short_circuits_on_top(self):
        assert union_all([obj(1), obj(2), obj(3)]) is TOP

    def test_union_all_of_one_operand_is_that_operand(self):
        only = obj({"a": [1, 2]})
        assert union_all([only]) is only
        assert union_all(iter([BOTTOM, only, only, BOTTOM])) is only

    def test_union_all_consumes_a_generator_lazily_and_not_past_top(self):
        consumed = []

        def operands():
            for value in (obj([1]), obj([2]), TOP, obj([3])):
                consumed.append(value)
                yield value

        assert union_all(operands()) is TOP
        assert consumed == [obj([1]), obj([2]), TOP]

    @pytest.mark.parametrize("operands", [[1], [obj([1]), "x"], [obj([1]), obj([2]), None]])
    def test_union_all_rejects_a_non_object_operand(self, operands):
        with pytest.raises(TypeError):
            union_all(operands)

    def test_union_all_finds_a_conflict_between_operands_after_consuming_them(self):
        # Only a ⊤ *operand* ends the join early; the pairwise fold stopped at
        # the first ⊤ partial result (after two of these three).
        consumed = []

        def operands():
            for value in (obj({"a": 1}), obj({"a": 2}), obj({"a": 3})):
                consumed.append(value)
                yield value

        assert union_all(operands()) is TOP
        assert len(consumed) == 3

    def test_raw_set_union_absorbs_a_top_element_and_drops_bottom(self):
        # Raw sets may hold ⊤ and ⊥; their join treats them as a reduction does.
        assert union(obj([1]), SetObject.raw([obj(2), TOP])).elements == (TOP,)
        assert union(SetObject.raw([BOTTOM, obj(1)]), obj([])).elements == (obj(1),)


class TestLatticeLaws:
    def test_union_is_upper_bound(self):
        left, right = obj({"a": 1, "b": [1, 2]}), obj({"b": [2, 3], "c": 4})
        joined = union(left, right)
        assert is_subobject(left, joined)
        assert is_subobject(right, joined)

    def test_intersection_is_lower_bound(self):
        left, right = obj({"a": 1, "b": [1, 2]}), obj({"b": [2, 3], "c": 4})
        met = intersection(left, right)
        assert is_subobject(met, left)
        assert is_subobject(met, right)

    def test_consistency_helper(self):
        assert is_lattice_consistent(obj({"a": 1, "b": [1, 2]}), obj({"b": [2, 3], "c": 4}))
        assert is_lattice_consistent(obj(1), obj(2))

    def test_type_errors(self):
        with pytest.raises(TypeError):
            union(obj(1), 1)
        with pytest.raises(TypeError):
            intersection(1, obj(1))
