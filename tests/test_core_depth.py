"""Unit tests for the depth measure (Definition 3.2), node counting and too-deep sets."""

import math

import pytest

from repro.core.builder import obj
from repro.core.depth import depth, node_count
from repro.core.errors import NestingError
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject


class TestDepth:
    def test_bottom_and_atoms_have_depth_one(self):
        assert depth(BOTTOM) == 1
        assert depth(obj(5)) == 1
        assert depth(obj("x")) == 1

    def test_empty_containers_have_depth_two(self):
        assert depth(obj({})) == 2
        assert depth(obj([])) == 2

    def test_tuple_depth_is_max_child_plus_one(self):
        assert depth(obj({"a": 1, "b": 2})) == 2
        assert depth(obj({"a": {"b": {"c": 1}}})) == 4

    def test_set_depth_is_max_element_plus_one(self):
        assert depth(obj([1, 2, 3])) == 2
        assert depth(obj([[1], [[2]]])) == 4

    def test_top_is_infinite(self):
        assert depth(TOP) == math.inf

    def test_mixed_nesting(self):
        value = obj({"r1": [{"name": "peter", "children": ["max"]}]})
        # atom=1, children set=2, tuple=3, r1 set=4, database tuple=5
        assert depth(value) == 5

    def test_rejects_non_objects(self):
        with pytest.raises(TypeError):
            depth("not an object")


class TestNodeCount:
    def test_leaves_count_one(self):
        assert node_count(obj(1)) == 1
        assert node_count(BOTTOM) == 1
        assert node_count(TOP) == 1

    def test_containers_count_children(self):
        assert node_count(obj({})) == 1
        assert node_count(obj({"a": 1, "b": 2})) == 3
        assert node_count(obj([1, 2, 3])) == 4
        assert node_count(obj({"a": [1, 2]})) == 4


class TestTooDeepToOrder:
    """Building a set over an element too deep to key names the element's depth."""

    @staticmethod
    def _chain(levels):
        value = Atom(1)
        for _ in range(levels):
            value = TupleObject({"a": value})
        return value

    @pytest.mark.parametrize("levels", [400, 3000])
    @pytest.mark.parametrize(
        "build",
        [
            lambda deep: SetObject([deep]),
            lambda deep: SetObject([Atom(1)]).add(deep),
            lambda deep: obj({"xs": [deep]}),
            lambda deep: SetObject.raw([deep, Atom(2)]),
            lambda deep: SetObject([Atom(1)]).discard(deep),
        ],
        ids=["constructor", "add", "obj", "raw", "discard"],
    )
    def test_raises_a_nesting_error(self, build, levels):
        deep = self._chain(levels)
        with pytest.raises(NestingError, match=f"nested {levels} levels deep, too deep to order$"):
            build(deep)
        # The element itself stays usable: hashing never recurses.
        assert hash(deep) == hash(deep) and deep.get("a") is not None

    def test_a_shallow_chain_still_builds(self):
        shallow = self._chain(50)
        assert SetObject([Atom(1)]).add(shallow) is SetObject([Atom(1), shallow])
