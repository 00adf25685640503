"""Property-based tests for the lattice structure (Theorems 3.4–3.6).

Union must be the least upper bound, intersection the greatest lower bound,
and together they must satisfy the standard lattice identities on the space of
reduced objects.
"""

from unittest import mock

from hypothesis import given, strategies as st

from tests.conftest import complex_objects

from repro.core import lattice
from repro.core.enumeration import all_subobjects
from repro.core.lattice import intersection, is_lattice_consistent, union
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject
from repro.core.order import is_subobject


class TestTheorem34Union:
    @given(complex_objects(), complex_objects())
    def test_union_is_an_upper_bound(self, left, right):
        joined = union(left, right)
        assert is_subobject(left, joined)
        assert is_subobject(right, joined)

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_union_is_least_among_upper_bounds(self, left, right, candidate):
        if is_subobject(left, candidate) and is_subobject(right, candidate):
            assert is_subobject(union(left, right), candidate)

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_union_is_least_against_enumerated_bounds(self, left, right):
        joined = union(left, right)
        if joined.is_top:
            return
        # Every enumerated sub-object of the union that dominates both
        # operands must be the union itself (there is nothing strictly
        # smaller in between).
        for candidate in all_subobjects(joined, limit=3000):
            if is_subobject(left, candidate) and is_subobject(right, candidate):
                assert candidate == joined


class TestTheorem35Intersection:
    @given(complex_objects(), complex_objects())
    def test_intersection_is_a_lower_bound(self, left, right):
        met = intersection(left, right)
        assert is_subobject(met, left)
        assert is_subobject(met, right)

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_intersection_is_greatest_among_lower_bounds(self, left, right, candidate):
        if is_subobject(candidate, left) and is_subobject(candidate, right):
            assert is_subobject(candidate, intersection(left, right))

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_intersection_is_greatest_against_enumerated_bounds(self, left, right):
        met = intersection(left, right)
        for candidate in all_subobjects(left, limit=3000):
            if is_subobject(candidate, right):
                assert is_subobject(candidate, met)


class TestTheorem36LatticeLaws:
    @given(complex_objects())
    def test_idempotence(self, value):
        assert union(value, value) == value
        assert intersection(value, value) == value

    @given(complex_objects(), complex_objects())
    def test_commutativity(self, left, right):
        assert union(left, right) == union(right, left)
        assert intersection(left, right) == intersection(right, left)

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_associativity(self, first, second, third):
        assert union(union(first, second), third) == union(first, union(second, third))
        assert intersection(intersection(first, second), third) == intersection(
            first, intersection(second, third)
        )

    @given(complex_objects(), complex_objects())
    def test_absorption(self, left, right):
        assert union(left, intersection(left, right)) == left
        assert intersection(left, union(left, right)) == left

    @given(complex_objects())
    def test_identity_elements(self, value):
        assert union(value, BOTTOM) == value
        assert intersection(value, TOP) == value
        assert union(value, TOP) is TOP
        assert intersection(value, BOTTOM) is BOTTOM

    @given(complex_objects(), complex_objects())
    def test_consistency_of_order_and_operations(self, left, right):
        # x ≤ y  iff  x ∪ y = y  iff  x ∩ y = x  (standard lattice fact).
        below = is_subobject(left, right)
        assert below == (union(left, right) == right)
        assert below == (intersection(left, right) == left)


class TestSetUnionPartition:
    """Set union skips the elements both operands hold; the reducing
    constructor of Definition 3.4(iv) is its oracle."""

    @given(
        st.lists(complex_objects(max_depth=2), min_size=2, max_size=8),
        st.lists(st.sampled_from(["left", "right", "both"]), min_size=8, max_size=8),
    )
    def test_union_of_overlapping_sets_is_the_reduced_concatenation(self, pool, sides):
        left = SetObject(e for e, side in zip(pool, sides) if side != "right")
        right = SetObject(e for e, side in zip(pool, sides) if side != "left")
        assert union(left, right) is SetObject(left.elements + right.elements)
        assert is_lattice_consistent(left, right)

    def test_two_versions_of_a_large_set_join_without_the_quadratic_scan(self):
        def row(number, *tags):
            return TupleObject(
                {"partition_row": Atom(number), "tags": SetObject(map(Atom, tags))}
            )

        rows = [row(number, "old") for number in range(500)]
        before = SetObject(rows)
        after = SetObject(rows[1:] + [row(0, "old", "new")])
        with mock.patch.object(
            lattice, "is_subobject", wraps=lattice.is_subobject
        ) as counted:
            joined = union(before, after)
        assert joined is after
        assert counted.call_count < 2_000
