"""Unit tests for the hash-consing subsystem (:mod:`repro.core.intern`).

The invariants pinned here are what the whole performance architecture rests
on: one canonical instance per distinct normalized structure, identity-fast
equality between interned objects, structural compatibility with raw objects,
and a clearable, id-keyed cache lifecycle that pins no objects.
"""

import gc
import threading

import pytest

from repro import parse_object
from repro.core import (
    BOTTOM,
    TOP,
    Atom,
    SetObject,
    TupleObject,
    clear_object_caches,
    compare,
    fingerprint,
    intern_id,
    intern_stats,
    is_interned,
    is_reduced,
    is_subobject,
    maximal_elements,
    minimal_elements,
    obj,
    reduce_object,
    union,
)
from repro.core.order import _SUBOBJECT_CACHE
from repro.store.database import ObjectDatabase


class TestUniqueness:
    def test_atoms_are_hash_consed(self):
        assert Atom(7) is Atom(7)
        assert Atom("john") is Atom("john")
        assert Atom(True) is Atom(True)
        # Distinct sorts stay distinct objects even for ==-equal payloads.
        assert Atom(1) is not Atom(True)
        assert Atom(1) is not Atom(1.0)

    def test_tuples_and_sets_are_hash_consed(self):
        left = obj({"name": "john", "kids": [{"name": "mary"}, {"name": "bob"}]})
        right = obj({"kids": [{"name": "bob"}, {"name": "mary"}], "name": "john"})
        assert left is right

    def test_parser_converges_on_the_same_instance(self):
        first = parse_object("{[a: 1, b: {2, 3}], [c: top_level]}".replace("top_level", "x"))
        second = parse_object("{[c: x], [b: {3, 2}, a: 1]}")
        assert first is second

    def test_normalization_conventions_converge(self):
        # ⊥-valued attributes are dropped, so both spell the same structure.
        assert TupleObject(a=Atom(1), b=BOTTOM) is TupleObject(a=Atom(1))
        assert SetObject([Atom(1), BOTTOM]) is SetObject([Atom(1)])
        # Reduction happens before interning: dominated elements vanish.
        small = TupleObject(a=Atom(1))
        big = TupleObject(a=Atom(1), b=Atom(2))
        assert SetObject([small, big]) is SetObject([big])

    def test_singletons_have_reserved_ids(self):
        assert intern_id(BOTTOM) == 0
        assert intern_id(TOP) == 1
        assert is_interned(BOTTOM) and is_interned(TOP)

    def test_derived_constructors_stay_interned(self):
        base = obj({"a": 1, "b": 2, "c": [1, 2]})
        assert is_interned(base.without("b"))
        assert base.without("b") is obj({"a": 1, "c": [1, 2]})
        grown = obj([1, 2]).add(Atom(3))
        assert grown is obj([1, 2, 3])
        assert obj([1, 2, 3]).discard(Atom(2)) is obj([1, 3])


class TestRawCompatibility:
    def test_raw_objects_are_not_interned(self):
        raw = TupleObject.raw({"a": Atom(1)})
        assert not is_interned(raw)
        assert intern_id(raw) is None
        assert fingerprint(raw) is None

    def test_raw_and_interned_twins_compare_and_hash_equal(self):
        interned = TupleObject(a=Atom(1), b=SetObject([Atom(2), Atom(3)]))
        raw = TupleObject.raw({"a": Atom(1), "b": SetObject.raw([Atom(2), Atom(3)])})
        assert raw is not interned
        assert raw == interned and interned == raw
        assert hash(raw) == hash(interned)
        assert len({raw, interned}) == 1

    def test_breadth_prune_spares_raw_tuples_with_bottom_attributes(self):
        # A raw tuple storing a ⊥ attribute is wider than its dominator yet
        # still dominated (⊥ attrs dominate trivially); the reduction scan
        # must not width-prune it into surviving.
        wide_raw = TupleObject.raw({"x": BOTTOM, "y": SetObject([Atom(1)])})
        narrow = TupleObject(y=SetObject([Atom(1), Atom(2)]))
        assert is_subobject(wide_raw, narrow)
        reduced = SetObject([wide_raw, narrow])
        assert len(reduced) == 1
        assert is_reduced(reduced)
        assert maximal_elements([wide_raw, narrow]) == [narrow]
        assert minimal_elements([wide_raw, narrow]) == [wide_raw]

    def test_union_of_raw_unreduced_sets_is_not_interned(self):
        # The union cross-filter of a raw non-reduced operand can keep
        # mutually dominating elements; such results must stay un-interned so
        # is_reduced / reduce_object / compare keep their seed semantics.
        small = SetObject([Atom(1)])
        big = SetObject([Atom(1), Atom(2)])
        result = union(
            SetObject.raw([small, big]), SetObject([SetObject([Atom(3)])])
        )
        assert not is_interned(result)
        assert not is_reduced(result)
        assert len(reduce_object(result)) == 2
        twin = SetObject.raw([big, SetObject([Atom(3)])])
        assert compare(result, twin) == 0  # mutual domination, not strict

    def test_raw_non_normalized_semantics_survive(self):
        # Definition 2.2 distinguishes the unreduced set from its reduction;
        # interning must not collapse the Example 3.2 counterexample.
        small = TupleObject(a=Atom(1))
        big = TupleObject(a=Atom(1), b=Atom(2))
        padded = SetObject.raw([big, small])
        plain = SetObject([big, small])
        assert len(padded) == 2 and len(plain) == 1
        assert padded != plain
        assert is_subobject(padded, plain) and is_subobject(plain, padded)


class TestFingerprints:
    def test_fingerprint_components(self):
        value = obj({"a": 1, "b": [{"c": 2}]})
        rank, breadth, depth_, size = fingerprint(value)
        assert rank == 2  # tuple rank
        assert breadth == 2  # two attributes
        assert depth_ == 4  # tuple -> set -> tuple -> atom
        assert size == 5  # five nodes

    def test_fingerprints_agree_with_depth_and_node_count(self):
        from repro.core.depth import depth, node_count

        for text in ("{}", "[]", "3", "{[a: 1], [b: {1, 2}]}", "[x: {1, {2, 3}}]"):
            value = parse_object(text)
            _, _, cached_depth, cached_size = fingerprint(value)
            assert cached_depth == depth(value)
            assert cached_size == node_count(value)


class TestOrderFastPaths:
    def test_compare_short_circuits_on_interned_equality(self):
        value = obj({"a": [1, 2]})
        assert compare(value, obj({"a": [2, 1]})) == 0

    def test_compare_matches_definition_on_interned_objects(self):
        small = obj({"a": 1})
        big = obj({"a": 1, "b": 2})
        assert compare(small, big) == -1
        assert compare(big, small) == 1
        assert compare(big, obj({"c": 3})) is None

    def test_compare_still_reports_mutual_domination_on_raw_pairs(self):
        small = TupleObject(a=Atom(1))
        big = TupleObject(a=Atom(1), b=Atom(2))
        padded = SetObject.raw([big, small])
        plain = SetObject([big])
        assert padded != plain
        assert compare(padded, plain) == 0

    def test_reduction_fast_paths(self):
        value = obj({"a": [{"x": 1}, {"y": 2}]})
        assert is_reduced(value)
        assert reduce_object(value) is value

    def test_extremal_elements_with_mixed_kinds(self):
        small = obj({"a": 1})
        big = obj({"a": 1, "b": 2})
        atom = Atom(5)
        nested = obj([[1], [1, 2]])  # {{1, 2}} after reduction
        items = [small, big, atom, nested, BOTTOM]
        assert maximal_elements(items) == [big, atom, nested]
        assert minimal_elements(items) == [BOTTOM]
        assert maximal_elements([TOP, small]) == [TOP]
        assert minimal_elements([TOP, small, atom]) == [small, atom]


class TestCacheLifecycle:
    def test_caches_key_on_ids_and_are_clearable(self):
        clear_object_caches()
        # Big enough to clear the small-pair gate that bypasses the memo.
        left = obj({"a": [{"x": i, "y": [i, i + 1]} for i in range(4)]})
        right = obj({"a": [{"x": i, "y": [i, i + 1]} for i in range(5)]})
        assert is_subobject(left, right)
        assert len(_SUBOBJECT_CACHE) > 0
        clear_object_caches()
        assert len(_SUBOBJECT_CACHE) == 0

    def test_store_teardown_clears_caches(self):
        database = ObjectDatabase()
        database.put("x", {"a": [{"x": 1}]})
        assert is_subobject(
            obj({"a": [{"x": i, "y": [i, i + 1]} for i in range(4)]}),
            obj({"a": [{"x": i, "y": [i, i + 1]} for i in range(5)]}),
        )
        assert len(_SUBOBJECT_CACHE) > 0
        database.close()
        assert len(_SUBOBJECT_CACHE) == 0

    def test_intern_table_is_weak(self):
        clear_object_caches()
        before = intern_stats()["interned_objects"]
        values = [TupleObject({"weak_probe": Atom(i)}) for i in range(100)]
        during = intern_stats()["interned_objects"]
        assert during >= before + 100
        del values
        gc.collect()
        after = intern_stats()["interned_objects"]
        assert after < during

    def test_results_stay_correct_across_clears(self):
        left = obj({"a": [1, 2]})
        right = obj({"a": [1, 2, 3]})
        warm = is_subobject(left, right)
        clear_object_caches()
        assert is_subobject(left, right) == warm


class TestThreadSafety:
    def test_concurrent_construction_converges(self):
        results = []
        barrier = threading.Barrier(8)

        def build():
            barrier.wait()
            results.append(
                obj({"name": "thread", "payload": [[1, 2], [3, {"deep": "x"}]]})
            )

        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        assert all(value is results[0] for value in results)


class TestInvariants:
    def test_interned_objects_never_store_bottom_or_top(self):
        # The constructors normalize before interning, so anything reachable
        # from an interned object is itself interned and normalized.
        value = obj({"a": [{"x": 1}, {"y": [True, "s"]}], "b": 2.5})

        def walk(node):
            assert is_interned(node)
            assert node is not BOTTOM or node is BOTTOM  # reachable ⊥ is only the root case
            if isinstance(node, TupleObject):
                for _, child in node.items():
                    assert child is not BOTTOM and child is not TOP
                    walk(child)
            elif isinstance(node, SetObject):
                for child in node:
                    assert child is not BOTTOM and child is not TOP
                    walk(child)

        walk(value)

    def test_set_equality_is_identity_for_interned(self):
        with_dupes = SetObject([Atom(1), Atom(1), Atom(2)])
        assert with_dupes is SetObject([Atom(2), Atom(1)])

    @pytest.mark.parametrize("text", ["{1, {2, 3}}", "[a: {}, b: []]", "{[x: {y}]}"])
    def test_text_round_trip_preserves_identity(self, text):
        value = parse_object(text)
        assert parse_object(value.to_text()) is value
