"""Property-based tests for the lattice structure (Theorems 3.4–3.6).

Union must be the least upper bound, intersection the greatest lower bound,
and together they must satisfy the standard lattice identities on the space of
reduced objects.
"""

import functools
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from tests.conftest import atoms, complex_objects, flat_tuple_objects

import repro
from repro.calculus import substitution
from repro.calculus.fixpoint import close as oracle_close
from repro.core import order
from repro.core.depth import depth, node_count
from repro.core.enumeration import all_subobjects
from repro.core.errors import NormalizationError
from repro.core.intern import clear_object_caches, intern_stats
from repro.core.lattice import intersection, is_lattice_consistent, union, union_all
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject
from repro.core.order import is_subobject
from repro.core.paths import Path
from repro.workloads import make_document_collection, make_genealogy


def fold(operands):
    """The pairwise join ``union_all`` replaced: its oracle."""
    return functools.reduce(union, operands, BOTTOM)


def counted_subobject_tests():
    """Count every sub-object test, the recursive ones included."""
    return mock.patch.object(
        order, "_is_subobject_inner", wraps=order._is_subobject_inner
    )


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
        with counted_subobject_tests() as counted:
            joined = union(before, after)
        assert joined is after
        assert counted.call_count < 2_000


def comparable_elements():
    """Atoms, rows and sets over so few values that many pairs are comparable."""
    small = st.integers(min_value=0, max_value=2).map(Atom)
    rows = st.dictionaries(st.sampled_from(("a", "b", "c")), small, max_size=3).map(TupleObject)
    return st.one_of(small, rows, st.lists(small, max_size=3).map(SetObject))


def set_operands():
    """Sets of atoms, rows and nested sets, overlapping and dominating each other."""
    sets = st.lists(comparable_elements(), max_size=4).map(SetObject)
    relations = st.lists(flat_tuple_objects(), max_size=4).map(SetObject)
    return st.one_of(st.lists(sets, max_size=8), st.lists(relations, max_size=8))


def tuple_operands():
    """Tuples that share attributes and join, and ones an attribute collapses to ⊤."""
    sets = st.lists(comparable_elements(), max_size=4).map(SetObject)
    set_valued = st.dictionaries(st.sampled_from(("a", "b")), sets, max_size=2)
    any_valued = st.dictionaries(
        st.sampled_from(("a", "b", "c")), complex_objects(max_depth=2), max_size=3
    )
    return st.one_of(
        st.lists(set_valued.map(TupleObject), max_size=8),
        st.lists(any_valued.map(TupleObject), max_size=8),
    )


def operand_lists():
    """0–8 interned operands: one kind, distinct atoms, or mixed kinds."""
    return st.one_of(
        set_operands(),
        tuple_operands(),
        st.lists(atoms(), max_size=8),
        st.lists(complex_objects(), max_size=8),
    )


def _weakened(element):
    """A strict sub-object of ``element`` where it has one, else ``element``."""
    if isinstance(element, TupleObject) and len(element):
        return element.without(element.attributes[0])
    if isinstance(element, SetObject) and len(element):
        return element.discard(element.elements[0])
    return element


def raw_twin(value):
    """An un-interned rebuild of ``value``; a set gains sub-objects of its own
    elements, which makes it non-reduced (Example 3.2)."""
    if isinstance(value, SetObject):
        return SetObject.raw(value.elements + tuple(map(_weakened, value.elements)))
    if isinstance(value, TupleObject):
        return TupleObject.raw({**value.as_dict(), "padding": BOTTOM})
    return value


def raw_element_lists():
    """Elements for a raw set, ⊤ and ⊥ among them (no constructor admits those)."""
    return st.lists(
        st.one_of(comparable_elements(), st.sampled_from((TOP, BOTTOM))), max_size=4
    )


class TestUnionAllIsTheFold:
    """``union_all`` is one n-ary Definition 3.4; the pairwise fold is its oracle."""

    @pytest.mark.parametrize("family", [set_operands, tuple_operands, operand_lists])
    def test_interned_operands_join_to_the_instance_the_fold_returns(self, family):
        @given(family(), st.randoms(use_true_random=False))
        def check(operands, rng):
            joined = union_all(operands)
            assert joined is fold(operands)
            # Invariant under permutation and duplication, one-shot iterators included.
            shuffled = operands + rng.choices(operands, k=3) if operands else []
            rng.shuffle(shuffled)
            assert union_all(iter(shuffled)) is joined

        check()

    @given(operand_lists(), complex_objects(max_depth=2))
    def test_the_join_is_the_least_upper_bound(self, operands, candidate):
        joined = union_all(operands)
        assert all(is_subobject(operand, joined) for operand in operands)
        if all(is_subobject(operand, candidate) for operand in operands):
            assert is_subobject(joined, candidate)

    @given(
        st.one_of(set_operands(), tuple_operands()),
        st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_raw_and_mixed_operands_keep_the_fold(self, operands, as_raw):
        mixed = [raw_twin(operand) if raw else operand for operand, raw in zip(operands, as_raw)]
        assert union_all(mixed) == fold(mixed)

    @given(raw_element_lists(), raw_element_lists())
    def test_raw_top_and_bottom_elements_join_as_a_reduction_treats_them(self, left, right):
        # ⊤ absorbs the set and ⊥ beside another element goes, as in a reduction.
        raw_left, raw_right = SetObject.raw(left), SetObject.raw(right)
        assume(raw_left != raw_right)  # equal operands are returned as they are
        joined = union(raw_left, raw_right)
        if TOP in left + right:
            assert joined.elements == (TOP,)
        elif all(element is BOTTOM for element in left + right):
            assert joined.elements == (BOTTOM,)
        else:
            proper = [[e for e in side if e is not BOTTOM] for side in (left, right)]
            assert joined == union(*map(SetObject.raw, proper))


class TestJoinsStayLinear:
    """Call-count ceilings: the quadratic paths must not come back."""

    def test_singleton_heads_join_without_testing_distinct_atoms(self):
        heads = [TupleObject({"doa": SetObject([Atom(f"p{i}")])}) for i in range(500)]
        clear_object_caches()
        misses = intern_stats()["misses"]
        with counted_subobject_tests() as counted:
            joined = union_all(heads)
        assert len(joined.get("doa")) == 500
        assert counted.call_count <= 100  # the fold: 249 500
        assert intern_stats()["misses"] - misses <= 10  # the fold: 998

    def test_a_large_operand_is_not_reduced_again(self):
        def pair(tag, number):
            return SetObject([Atom(f"{tag}{number}"), Atom(f"{tag}'{number}")])

        large = SetObject([pair("a", number) for number in range(1000)])
        small = [SetObject([pair(tag, 0)]) for tag in "xyz"]
        clear_object_caches()
        with counted_subobject_tests() as counted:
            expected = fold([large] + small)
        ceiling = 2 * counted.call_count
        clear_object_caches()
        with counted_subobject_tests() as counted:
            assert union_all([large] + small) is expected
        assert counted.call_count <= ceiling

    def test_disjoint_relations_join_through_the_row_buckets(self):
        relations = [
            SetObject(
                [TupleObject({"key": Atom(1000 * r + i), "value": Atom(i)}) for i in range(250)]
            )
            for r in range(4)
        ]
        clear_object_caches()
        with counted_subobject_tests() as counted:
            expected = fold(relations)
        ceiling = counted.call_count
        clear_object_caches()
        with counted_subobject_tests() as counted:
            assert union_all(relations) is expected
        assert len(expected) == 1000
        assert counted.call_count <= ceiling <= 1_000  # pairwise scans: 750 000

    def test_a_cold_genealogy_closure_joins_its_heads_in_one_reduction(self):
        tree, rules = _genealogy_descendants()
        clear_object_caches()
        with counted_subobject_tests() as counted, repro.connect() as session:
            session.put("family", tree.family_object.get("family"))
            session.register(rules)
            result = session.close()
        assert counted.call_count < 5_000  # the fold: 132 132
        assert result.value is oracle_close(tree.family_object, repro.parse_program(rules)).value
        # The same facts derived, joined differently: the counters of the fold.
        # One match attempt per (scan leaf, candidate witness).
        stats = result.stats
        assert (stats.iterations, stats.match_attempts, stats.subobjects_derived) == (
            5,
            728,
            363,
        )

    def test_a_cold_genealogy_closure_projects_its_heads_without_instantiating(self):
        """Each rule's head joins column-wise over its match rows: a set and a
        tuple interned per rule and round, and not one per-row instantiation."""
        tree, rules = _genealogy_descendants()
        clear_object_caches()
        with repro.connect() as session:
            session.put("family", tree.family_object.get("family"))
            session.register(rules)
            before = intern_stats()
            with mock.patch.object(
                substitution, "instantiate", wraps=substitution.instantiate
            ) as instantiated:
                session.close()
            after = intern_stats()
        lookups = after["hits"] + after["misses"] - before["hits"] - before["misses"]
        assert lookups <= 40  # one head instantiated and interned per row: 748
        assert instantiated.call_count == 0  # 1 090


def _genealogy_descendants():
    """Example 4.5 over ``make_genealogy(5, 3)``: the tree and its program text."""
    tree = make_genealogy(5, 3)
    rules = (
        "[doa: {%s}]. [doa: {X}] :- "
        "[family: {[name: Y, children: {[name: X]}]}, doa: {Y}]." % tree.root
    )
    return tree, rules


def small_sets():
    """Sets of up to three of the atoms 0, 1, 2: the empty set included."""
    return st.lists(st.integers(min_value=0, max_value=2).map(Atom), max_size=3).map(SetObject)


def keyed_rows():
    """Rows keyed by one of two atoms: same-key rows join, set-valued attributes and all."""
    return st.fixed_dictionaries(
        {"k": st.integers(min_value=0, max_value=1).map(Atom)},
        optional={"s": small_sets(), "t": small_sets()},
    ).map(TupleObject)


def chain_elements():
    """Keyed rows, rows whose key is absent, an atom or a set, atoms, nested sets."""
    rows = st.dictionaries(
        st.sampled_from(("k", "a", "s")),
        st.one_of(st.integers(min_value=0, max_value=2).map(Atom), small_sets()),
        max_size=3,
    ).map(TupleObject)
    return st.one_of(
        keyed_rows(),
        rows,
        comparable_elements(),
        small_sets().map(lambda s: SetObject([s])),
        complex_objects(2),
    )


def start_sets():
    """Interned sets: relations, nested sets, atoms, mixed kinds, the empty set."""
    families = (chain_elements(), keyed_rows(), small_sets(), flat_tuple_objects())
    return st.one_of(*(st.lists(family, max_size=12).map(SetObject) for family in families))


def _cover(first, held):
    """The join of the held elements of ``first``'s kind and key, which
    dominates each of them; ``first`` itself where that join is ⊤."""
    key = first.get("k") if isinstance(first, TupleObject) else None
    joined = union_all(
        e for e in held if type(e) is type(first) and (key is None or e.get("k") is key)
    )
    return first if joined is TOP else joined


def _weakened_keeping_key(element):
    """A strict sub-object of a row that keeps its first attribute (its bucket)."""
    if isinstance(element, TupleObject) and len(element) > 1:
        return element.without(element.attributes[-1])
    return _weakened(element)


def operand_for(held):
    """A fresh element, a held one, one a held one dominates, or one dominating held ones."""
    options = [chain_elements()]
    if held:
        pick = st.sampled_from(held)
        options += [
            pick,
            pick.map(_weakened),
            pick.map(_weakened_keeping_key),
            pick.map(lambda first: _cover(first, held)),
        ]
    return st.one_of(options)


def assert_fingerprint_and_membership(result, probes):
    twin = SetObject.raw(result.elements)
    assert (result._depth, result._size) == (depth(twin), node_count(twin))
    for probe in probes:
        assert (probe in result) == any(probe == member for member in result)


class TestIncrementalAddDiscard:
    """``add`` / ``discard`` on interned operands derive the child from the
    parent's domination index; the reducing constructor is their oracle."""

    @settings(max_examples=100)
    @given(start_sets(), st.data())
    def test_chains_are_the_constructor(self, current, data):
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            element = data.draw(operand_for(current.elements))
            if data.draw(st.booleans()):
                result = current.add(element)
                assert result is SetObject(current.elements + (element,))
            else:
                result = current.discard(element)
                assert result is SetObject([x for x in current if x is not element])
            if not isinstance(result, SetObject):  # an added ⊤
                return
            assert_fingerprint_and_membership(result, [element, data.draw(chain_elements())])
            current = result

    @given(start_sets())
    def test_top_bottom_raw_and_foreign_operands_keep_their_answers(self, value):
        assert value.add(BOTTOM) is value and value.discard(BOTTOM) is value
        assert value.add(TOP) is TOP and value.discard(TOP) is value
        assert BOTTOM not in value and TOP not in value and 3 not in value
        with pytest.raises(NormalizationError):
            value.add(3)
        assert value.discard(3) is value
        for held in value.elements:
            if isinstance(held, TupleObject):
                twin = TupleObject.raw(held.as_dict())  # a structurally equal raw element
                assert twin in value
                assert value.add(twin) is value
                assert value.discard(twin) is SetObject([x for x in value if x is not held])
        raw = SetObject.raw(value.elements)
        for element in value.elements[:2]:
            assert raw.add(element) == SetObject(value.elements)
            assert element in raw and raw.discard(element) == value.discard(element)


def incomparable_rows(n):
    """``[g: i mod 20, s: {i}]``: pairwise incomparable, in buckets of n/20 per ``g``."""
    return [TupleObject({"g": Atom(i % 20), "s": SetObject([Atom(i)])}) for i in range(n)]


def counted_survivor_scans():
    return mock.patch.object(order, "_survivors", wraps=order._survivors)


class TestSetsGrowInTheirBucket:
    """Exact counters: one insert tests its own bucket, not the whole set."""

    @pytest.mark.parametrize("n", [200, 2000])
    def test_one_insert_tests_one_bucket(self, n):
        rows = incomparable_rows(n)
        held = SetObject(rows)
        new = TupleObject({"g": Atom(0), "s": SetObject([Atom(n)])})
        with counted_subobject_tests() as tests, counted_survivor_scans() as scans:
            grown = held.add(new)
        # Two scans of the n/20-row bucket (dominators, then dominated), four
        # calls per pair; the from-scratch constructor makes 7 360 / 793 600.
        assert tests.call_count == 8 * (n // 20)
        assert scans.call_count == 0
        assert len(grown) == n + 1 and new in grown
        assert grown is SetObject._from_reduced(rows + [new])

    def test_a_unique_title_document_insert_scans_nothing(self):
        library = make_document_collection(200, 2, 3, rng=5).get("docs")
        library.add(TupleObject({"title": Atom("warm")}))  # builds the index
        document = TupleObject(
            {"title": Atom("fresh"), "author": Atom("mary"), "sections": SetObject()}
        )
        with counted_subobject_tests() as tests, counted_survivor_scans() as scans:
            grown = library.add(document)
        assert (tests.call_count, scans.call_count) == (0, 0)
        assert grown is SetObject(library.elements + (document,))

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_an_insert_removes_exactly_what_it_dominates(self, k):
        rows = incomparable_rows(200)
        held = SetObject(rows)
        covered = [rows[20 * j] for j in range(k)]  # k rows of the g = 0 bucket
        extra = Atom(-1)  # so that no held row equals the newcomer
        new = TupleObject(
            {"g": Atom(0), "s": SetObject([extra, *(row.get("s").elements[0] for row in covered)])}
        )
        grown = held.add(new)
        assert set(held.elements) - set(grown.elements) == set(covered)
        assert len(grown) == 200 - k + 1
        assert grown is SetObject(held.elements + (new,))
        assert grown.add(covered[0]) is grown  # dominated now: nothing changes
        assert grown.discard(new) is SetObject(x for x in grown if x is not new)


# -- a derived set carries what a fresh build gives ------------------------------------------

#: The root key path and two attribute key paths, one through a tuple at the key.
KEY_PATHS = (Path(()), Path("k"), Path("k.a"))


def key_values():
    """What a row holds at its key attribute ``k``: an atom, a tuple or a set."""
    atom = st.integers(min_value=0, max_value=2).map(Atom)
    rows = st.dictionaries(st.sampled_from(("a", "b")), atom, min_size=1, max_size=2)
    return st.one_of(atom, atom, rows.map(TupleObject), small_sets())


def _row(key, rest):
    return TupleObject({**rest, **({} if key is None else {"k": key})})


def table_elements():
    """Rows with ⊥ (absent), an atom, a tuple or a set at ``k``; atoms; nested sets."""
    rest = st.dictionaries(
        st.sampled_from(("a", "s")),
        st.one_of(st.integers(min_value=0, max_value=2).map(Atom), small_sets()),
        max_size=2,
    )
    rows = st.builds(_row, st.one_of(st.none(), key_values()), rest)
    return st.one_of(
        rows,
        rows,
        st.integers(min_value=0, max_value=3).map(Atom),
        small_sets(),
        small_sets().map(lambda inner: SetObject([inner])),
    )


def table_operand(held):
    """A fresh element, a held one, one a held one dominates, or one dominating held ones."""
    options = [table_elements()]
    if held:
        pick = st.sampled_from(held)
        options += [
            pick,
            pick.map(_weakened),
            pick.map(_weakened_keeping_key),
            pick.map(lambda first: _cover(first, held)),
        ]
    return st.one_of(options)


def carrying(value):
    """``value`` with a domination index and a table at every key path, built from scratch."""
    order._set_index(value)
    for key_path in KEY_PATHS:
        if order._carried(value, key_path) is None:
            order._tabled(value, key_path)
    return value


def rebuilt_index(value, disc):
    """The index ``_set_index`` builds for ``value`` when it picks ``disc``."""
    tuples = [e for e in value.elements if isinstance(e, TupleObject)]
    key = disc and Path((disc,))
    return order._SetIndex(
        disc,
        key,
        {} if disc is None else order._bucket(value, key),
        [t for t in tuples if not isinstance(t.get(disc), Atom)],
        [e for e in value.elements if isinstance(e, SetObject)],
        tuple(sorted(e._iid for e in value.elements)),
    )


def assert_carries_a_fresh_build(result):
    """Every table ``result`` carries is ``_bucket``'s, bucket order included, and its
    index is ``_set_index``'s from scratch — for the discriminator a derived index
    keeps from its parent, which a fresh pick may not choose."""
    tables, index = result._tables, getattr(result, "_index", None)
    assert set(KEY_PATHS) <= set(tables)
    for key_path, table in tables.items():
        assert table == order._bucket(result, key_path)
    clear_object_caches()
    assert (result._tables, result._index) == (None, None)
    fresh = order._set_index(result)
    if index is not None:
        assert index == (fresh if fresh.disc == index.disc else rebuilt_index(result, index.disc))


class TestDerivedTablesAreAFreshBuild:
    """``add``, ``discard``, ``union`` and ``union_all`` derive the result's bucket
    tables and domination index from an operand's; a from-scratch build is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(table_elements(), max_size=10).map(SetObject), st.data())
    def test_chains_carry_the_tables_and_index_a_fresh_build_gives(self, current, data):
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            carrying(current)
            operation = data.draw(st.sampled_from(("add", "discard", "union", "union_all")))
            if operation == "add":
                element = data.draw(table_operand(current.elements))
                result, expected = current.add(element), SetObject(current.elements + (element,))
            elif operation == "discard":
                element = data.draw(table_operand(current.elements))
                result = current.discard(element)
                expected = SetObject([x for x in current if x is not element])
            else:
                others = data.draw(
                    st.lists(
                        st.lists(table_operand(current.elements), max_size=5).map(SetObject),
                        min_size=1,
                        max_size=1 if operation == "union" else 3,
                    )
                )
                operands = [current, *map(carrying, others)]
                result = union(*operands) if operation == "union" else union_all(operands)
                expected = SetObject([e for operand in operands for e in operand.elements])
                raw = SetObject.raw(current.elements + tuple(map(_weakened, current.elements)))
                joined = union(raw, others[0])
                # Raw operands may be non-reduced (Example 3.2): the join stays
                # un-interned, the one scan of the two sides.
                right = list(others[0].elements)
                left = [e for e in dict.fromkeys(raw.elements) if e not in right]
                assert joined._iid is None and getattr(joined, "_tables", None) is None
                if joined is not raw:
                    assert set(joined.elements) == set(order.maximal_cross(right, left))
            assert result is expected
            if not isinstance(result, SetObject):  # an added ⊤
                return
            assert_carries_a_fresh_build(result)
            current = result
