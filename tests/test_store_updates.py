"""Unit tests for the update primitives (repro.store.updates)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import atoms

from repro import parse_object
from repro.core.builder import obj
from repro.core.errors import StoreError
from repro.core.lattice import union
from repro.core.objects import BOTTOM, TOP, SetObject, TupleObject
from repro.core.order import is_subobject
from repro.store import updates
from repro.store.updates import (
    apply_edits,
    assign_path,
    diff_object,
    insert_element,
    merge_object,
    remove_element,
    remove_path,
)


class TestAssignPath:
    def test_assign_existing_attribute(self):
        value = obj({"a": 1, "b": 2})
        assert assign_path(value, "a", obj(9)) == obj({"a": 9, "b": 2})

    def test_assign_creates_intermediate_tuples(self):
        assert assign_path(obj({}), "a.b.c", obj(1)) == obj({"a": {"b": {"c": 1}}})

    def test_assign_at_root(self):
        assert assign_path(obj({"a": 1}), "", obj(5)) == obj(5)

    def test_original_object_is_not_mutated(self):
        value = obj({"a": 1})
        assign_path(value, "a", obj(2))
        assert value == obj({"a": 1})

    def test_cannot_descend_into_atoms_or_sets(self):
        with pytest.raises(StoreError):
            assign_path(obj({"a": 1}), "a.b", obj(2))
        with pytest.raises(StoreError):
            assign_path(obj({"a": [1]}), "a.b", obj(2))


class TestRemovePath:
    def test_remove_attribute(self):
        assert remove_path(obj({"a": 1, "b": 2}), "b") == obj({"a": 1})

    def test_remove_missing_attribute_is_noop(self):
        assert remove_path(obj({"a": 1}), "z") == obj({"a": 1})

    def test_remove_root_gives_bottom(self):
        assert remove_path(obj({"a": 1}), "") is BOTTOM

    def test_remove_nested(self):
        value = obj({"a": {"b": 1, "c": 2}})
        assert remove_path(value, "a.b") == obj({"a": {"c": 2}})


class TestSetElementUpdates:
    def test_insert_into_existing_set(self):
        value = parse_object("[r1: {1, 2}]")
        assert insert_element(value, "r1", obj(3)) == parse_object("[r1: {1, 2, 3}]")

    def test_insert_creates_the_set(self):
        assert insert_element(obj({}), "r1", obj(1)) == parse_object("[r1: {1}]")

    def test_insert_respects_reduction(self):
        value = parse_object("[r1: {[a: 1, b: 2]}]")
        unchanged = insert_element(value, "r1", obj({"a": 1}))
        assert unchanged == value

    def test_insert_into_non_set_rejected(self):
        with pytest.raises(StoreError):
            insert_element(obj({"r1": 5}), "r1", obj(1))

    def test_remove_element(self):
        value = parse_object("[r1: {1, 2}]")
        assert remove_element(value, "r1", obj(1)) == parse_object("[r1: {2}]")

    def test_remove_absent_element_is_noop(self):
        value = parse_object("[r1: {1}]")
        assert remove_element(value, "r1", obj(9)) == value
        assert remove_element(obj({}), "r1", obj(9)) == obj({})

    def test_remove_from_non_set_rejected(self):
        with pytest.raises(StoreError):
            remove_element(obj({"r1": 5}), "r1", obj(1))


class TestMerge:
    def test_merge_is_lattice_union(self):
        left = parse_object("[r1: {1}]")
        right = parse_object("[r1: {2}, r2: {3}]")
        merged = merge_object(left, right)
        assert merged == parse_object("[r1: {1, 2}, r2: {3}]")
        assert is_subobject(left, merged) and is_subobject(right, merged)


# -- diff_object / apply_edits ----------------------------------------------------------


def _objects(depth=3):
    """Interned objects with sets wide enough for an edit to beat the image."""
    if depth <= 1:
        return atoms()
    children = _objects(depth - 1)
    tuples = st.dictionaries(st.sampled_from("abcd"), children, max_size=3).map(TupleObject)
    return st.one_of(atoms(), tuples, st.lists(children, max_size=4).map(SetObject))


def _row(seed, index):
    tags = SetObject(obj(f"t{(seed + index * step) % 5}") for step in (1, 2))
    return TupleObject({"a": obj(index), "b": tags, "c": obj((seed * index) % 7)})


def _wide_sets():
    """A relation of 4–12 rows for two drawn integers: wide, and cheap to draw."""
    return st.builds(
        lambda seed, rows: SetObject(_row(seed, index) for index in range(rows)),
        st.integers(0, 30),
        st.integers(4, 12),
    )


def _stored():
    """What a store holds: a few large sets, at the root or below attributes."""
    inner = st.fixed_dictionaries({"a": _wide_sets(), "b": _objects(2)}).map(TupleObject)
    record = st.fixed_dictionaries(
        {"a": _wide_sets(), "b": _objects(2), "c": inner, "d": atoms()}
    ).map(TupleObject)
    return st.one_of(record, _wide_sets())


@st.composite
def _next_version(draw, value, depth=3):
    """``value`` after a small change somewhere along its spine — or a big one."""
    choice = draw(st.sampled_from(["edit"] * 6 + ["same", "replace"]))
    if choice == "same" or depth == 0:
        return value
    if choice == "replace":
        return draw(st.one_of(_objects(3), st.just(TOP)))  # the kind may change
    if isinstance(value, TupleObject):
        attributes = value.as_dict()
        for name in draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=2, unique=True)):
            if name in attributes and draw(st.booleans()):
                del attributes[name]  # the attribute vanishes: ⊥
            else:
                before = attributes.get(name, BOTTOM)
                attributes[name] = draw(
                    _next_version(before, depth - 1) if before is not BOTTOM else _objects(2)
                )
        return TupleObject(attributes)
    if isinstance(value, SetObject):
        elements = list(value)
        change = draw(st.sampled_from(["remove", "insert", "change", "dominate"]))
        if change == "remove" and elements:
            elements.pop(draw(st.integers(0, len(elements) - 1)))
        elif change == "insert":
            elements.extend(draw(st.lists(_objects(2), min_size=1, max_size=2)))
        elif change == "change" and elements:
            # One element changes in place: a del and an add.
            index = draw(st.integers(0, len(elements) - 1))
            elements[index] = draw(_next_version(elements[index], depth - 1))
        elif elements:
            # An added element that dominates one the set holds.
            held = draw(st.sampled_from(elements))
            extra = draw(_objects(2))
            elements.append(
                held.replace(z=extra) if isinstance(held, TupleObject) else union(held, extra)
            )
        return SetObject(elements)
    return value


@st.composite
def _versions(draw):
    old = draw(_stored())
    return old, draw(_next_version(old))


def _unrelated():
    return st.one_of(_stored(), _objects(4), st.just(TOP))


def _counted(edits):
    """Payload nodes, plus one per entry and one per path step."""
    cost = 0
    for edit in edits:
        payload = [edit["put"]] if "put" in edit else edit["add"] + edit["del"]
        cost += 1 + len(edit["at"]) + sum(item._size for item in payload)
    return cost


def _check_the_law(old, new):
    every = []
    updates._diff(old, new, (), every)
    edits = diff_object(old, new)
    if _counted(every) < new._size:
        assert edits == every
        assert apply_edits(old, edits) is new
    else:
        # "image" exactly when the counted edit is not the smaller one ...
        assert edits is None
        if not any(edit["at"] == () and "put" in edit for edit in every):
            # ... and the walk is right wherever it goes, not only where it is cheap.
            assert apply_edits(old, every) is new


class TestDiffAndApply:
    @settings(max_examples=300, deadline=None)
    @given(_versions())
    def test_apply_is_the_inverse_of_diff_by_identity(self, versions):
        _check_the_law(*versions)

    @settings(max_examples=100, deadline=None)
    @given(_unrelated(), _unrelated())
    def test_the_law_holds_between_unrelated_objects(self, old, new):
        _check_the_law(old, new)

    def test_identical_versions_are_the_empty_edit(self):
        value = obj({"docs": [{"title": "a"}, {"title": "b"}]})
        assert diff_object(value, value) == []
        assert apply_edits(value, []) is value

    def test_nothing_to_diff_against_is_an_image(self):
        value = obj({"docs": [1, 2, 3]})
        assert diff_object(None, value) is None
        assert diff_object(SetObject.raw([obj(1)]), obj([1, 2, 3, 4, 5])) is None
        assert diff_object(obj([1, 2, 3, 4, 5]), SetObject.raw([obj(1)])) is None

    def test_path_insert_is_one_add_at_the_set(self):
        old = obj({"docs": [{"title": "a"}, {"title": "b"}, {"title": "c"}], "owner": "mary"})
        new = insert_element(old, "docs", obj({"title": "d"}))
        assert diff_object(old, new) == [
            {"at": ("docs",), "add": [obj({"title": "d"})], "del": []}
        ]

    def test_a_dominating_element_lists_what_it_subsumes_under_del(self):
        old = obj([{"a": 1}, {"a": 2}, {"a": 3}, {"a": 4}, {"a": 5}])
        new = old.add(obj({"a": 1, "b": 2}))
        assert len(new) == len(old)
        assert diff_object(old, new) == [
            {"at": (), "add": [obj({"a": 1, "b": 2})], "del": [obj({"a": 1})]}
        ]

    def test_attributes_appear_and_vanish_as_puts(self):
        old = obj({"keep": [1, 2, 3, 4, 5, 6, 7, 8], "drop": 1, "deep": {"x": 1, "y": 2}})
        new = obj({"keep": [1, 2, 3, 4, 5, 6, 7, 8], "fresh": 2, "deep": {"x": 1, "y": 3}})
        assert sorted(diff_object(old, new), key=lambda edit: edit["at"]) == [
            {"at": ("deep", "y"), "put": obj(3)},
            {"at": ("drop",), "put": BOTTOM},
            {"at": ("fresh",), "put": obj(2)},
        ]
        assert apply_edits(old, diff_object(old, new)) is new

    def test_entries_and_path_steps_count_against_the_edit(self):
        """Seven one-node puts name fewer payload nodes than the image, not fewer nodes."""
        old = obj({name: index for index, name in enumerate("abcdefg")} | {"tags": ["x", "y"]})
        new = obj({name: index + 10 for index, name in enumerate("abcdefg")} | {"tags": ["x", "y"]})
        assert new._size == 11
        assert diff_object(old, new) is None

    def test_a_root_that_changes_kind_is_an_image(self):
        wide = obj(list(range(20)))
        assert diff_object(wide, obj({"a": 1})) is None
        assert diff_object(wide, TOP) is None
        assert diff_object(TOP, wide) is None

    @pytest.mark.parametrize(
        "edits, message",
        [
            ([{"at": ("docs",), "add": [], "del": [obj(9)]}], "does not hold"),
            ([{"at": ("docs",), "add": [obj(1)], "del": []}], "already holds"),
            ([{"at": ("docs",), "add": [obj(7), obj(7)], "del": []}], "already holds"),
            ([{"at": ("docs",), "add": [BOTTOM], "del": []}], "⊥"),
            ([{"at": ("owner",), "add": [obj(7)], "del": []}], "reaches no set"),
            ([{"at": ("docs", "x"), "add": [obj(7)], "del": []}], "cannot descend"),
            ([{"at": ("nowhere",), "add": [obj(7)], "del": []}], "reaches no set"),
            ([{"at": (), "put": obj(1)}], "put edit"),
            ([{"at": ("owner",), "put": TOP}], "put edit"),
            ([{"at": ("docs", "x"), "put": obj(1)}], "cannot descend"),
            (
                [{"at": ("docs",), "put": obj([5])}, {"at": ("docs",), "add": [obj(7)], "del": []}],
                "overlap",
            ),
            (
                [{"at": ("deep",), "put": obj(1)}, {"at": ("deep", "x"), "put": obj(1)}],
                "overlap",
            ),
            ([{"at": ("docs",), "add": [obj({"a": 1, "b": 2})], "del": []}], "reduced"),
        ],
    )
    def test_edits_that_do_not_describe_the_object_are_rejected(self, edits, message):
        value = obj({"docs": [1, 2, {"a": 1}], "owner": "mary", "deep": {"x": 0}})
        with pytest.raises(StoreError, match=message):
            apply_edits(value, edits)
