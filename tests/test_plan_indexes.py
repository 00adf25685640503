"""Unit tests for match indexes (repro.plan.indexes)."""

from unittest import mock

from repro import parse_formula, parse_object, parse_rule
from repro.calculus.terms import Constant, formula, var
from repro.core.intern import clear_object_caches
from repro.core.objects import Atom, TOP, SetObject, TupleObject
from repro.core import order
from repro.plan.indexes import TargetIndexes, element_keys
from repro.core.paths import Path


class TestElementKeys:
    def test_static_key_from_atom_constant(self):
        element = formula({"name": Atom("abraham"), "age": var("A")})
        static, _, _ = element_keys(element)
        assert static == ((Path("name"), Atom("abraham")),)

    def test_dynamic_key_from_variable(self):
        element = formula({"name": var("Y")})
        assert element_keys(element) == ((), ((Path("name"), "Y"),), ())

    def test_static_keys_come_first(self):
        element = formula({"a": var("X"), "b": Atom(1)})
        assert element_keys(element) == (((Path("b"), Atom(1)),), ((Path("a"), "X"),), ())

    def test_parameter_slots_key_apart(self):
        element = parse_formula("[name: $who, age: A, tag: t]")
        assert element_keys(element) == (
            ((Path("tag"), Atom("t")),),
            ((Path("age"), "A"),),
            ((Path("name"), "who"),),
        )

    def test_root_keys_for_atomic_elements(self):
        root = Path(())
        assert element_keys(Constant(Atom("abraham"))) == (((root, Atom("abraham")),), (), ())
        assert element_keys(var("Y")) == ((), ((root, "Y"),), ())
        assert element_keys(parse_formula("$who")) == ((), (), ((root, "who"),))

    def test_nothing_below_nested_sets(self):
        element = parse_rule(
            "[out: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"
        ).body.get("family").elements[0]
        assert element_keys(element) == ((), ((Path("name"), "Y"),), ())
        slotted = parse_formula("[name: Y, children: {[name: $who]}]")
        assert element_keys(slotted) == ((), ((Path("name"), "Y"),), ())

    def test_non_atom_constant_yields_no_key(self):
        element = formula({"name": parse_object("{1}")})
        assert element_keys(element) == ((), (), ())


def bucketed():
    """Patch the one function that buckets a set; its calls are the builds."""
    return mock.patch.object(order, "_bucket", wraps=order._bucket)


class TestTargetIndexes:
    """Tables live on the interned sets: a set nothing derived is bucketed by
    its first reader, an unchanged set keeps its tables in every later store,
    and ``add`` / ``discard`` derive the grown set's tables from its parent's."""

    TARGET = parse_object(
        "[people: {[name: ann, age: 1], [name: bob, age: 2], [name: ann, city: paris],"
        " [name: {odd}, age: 3]}, tags: {red, blue}, title: thesis]"
    )

    def _store(self):
        clear_object_caches()  # a table outlives the store that built it
        builds = []

        class Recorded:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def on_build(set_path, key_path, elements):
            builds.append((str(set_path), str(key_path), elements))
            return Recorded()

        return TargetIndexes(self.TARGET, on_build), builds

    def test_the_first_probe_builds_one_bucket_and_later_probes_reuse_it(self):
        store, builds = self._store()
        assert builds == []
        found = store.candidates(Path("people"), Path("name"), Atom("ann"))
        assert set(found) == {
            parse_object("[name: ann, age: 1]"), parse_object("[name: ann, city: paris]")
        }
        assert builds == [("people", "name", 4)]
        assert store.candidates(Path("people"), Path("name"), Atom("ann")) is found
        assert store.candidates(Path("people"), Path("name"), Atom("zoe")) == ()
        assert builds == [("people", "name", 4)]

    def test_each_key_path_is_its_own_bucket(self):
        store, builds = self._store()
        store.candidates(Path("people"), Path("name"), Atom("bob"))
        assert list(store.candidates(Path("people"), Path("age"), Atom(2))) == [
            parse_object("[name: bob, age: 2]")
        ]
        assert list(store.candidates(Path("tags"), Path(()), Atom("red"))) == [Atom("red")]
        assert [build[:2] for build in builds] == [
            ("people", "name"), ("people", "age"), ("tags", "")
        ]

    def test_a_non_atom_key_cannot_answer_and_builds_nothing(self):
        store, builds = self._store()
        assert store.candidates(Path("people"), Path("name"), parse_object("{odd}")) is None
        assert store.candidates(Path("people"), Path("name"), parse_object("[a: 1]")) is None
        assert builds == []

    def test_a_path_that_holds_no_set_cannot_answer(self):
        store, builds = self._store()
        assert store.candidates(Path("title"), Path(()), Atom("thesis")) is None
        assert store.candidates(Path("nowhere"), Path("name"), Atom("ann")) is None
        assert store.candidates(Path("people.name"), Path(()), Atom("ann")) is None
        assert builds == []

    def test_a_raw_set_is_scanned_not_indexed(self):
        # ⊤ below an element matches every atom, and no bucket would list it.
        raw = TupleObject.raw(
            {"r": SetObject.raw([TupleObject.raw({"name": TOP}), parse_object("[name: ann]")])}
        )
        with bucketed() as build:
            assert TargetIndexes(raw).candidates(Path("r"), Path("name"), Atom("ann")) is None
        assert build.call_count == 0

    def test_without_a_hook_builds_are_silent(self):
        clear_object_caches()
        with bucketed() as build:
            store = TargetIndexes(self.TARGET)
            assert len(store.candidates(Path("people"), Path("name"), Atom("ann"))) == 2
        assert build.call_count == 1

    def test_a_later_store_reuses_an_unchanged_sets_table_and_add_derives_it(self):
        clear_object_caches()
        store = TargetIndexes(self.TARGET)
        people = store.candidates(Path("people"), Path("name"), Atom("ann"))
        store.candidates(Path("tags"), Path(()), Atom("red"))
        grown = self.TARGET.replace(tags=self.TARGET.get("tags").add(Atom("green")))
        assert grown.get("people") is self.TARGET.get("people")
        with bucketed() as build:
            following = TargetIndexes(grown)
            # The unchanged set keeps its table: the very same bucket.
            assert following.candidates(Path("people"), Path("name"), Atom("ann")) is people
            # The grown set carries the table add derived from the old one's.
            for colour in ("green", "red", "blue"):
                assert list(following.candidates(Path("tags"), Path(()), Atom(colour))) == [
                    Atom(colour)
                ]
        assert build.call_count == 0
        # The store it came from still answers for its own target.
        assert store.candidates(Path("tags"), Path(()), Atom("green")) == ()

    def test_the_root_path_buckets_only_atomic_elements(self):
        mixed = parse_object("[r: {plain, other, [name: plain]}]")
        with bucketed() as build:
            store = TargetIndexes(mixed)
            assert list(store.candidates(Path("r"), Path(()), Atom("plain"))) == [
                Atom("plain")
            ]
            assert store.candidates(Path("r"), Path(()), Atom("absent")) == ()
        assert build.call_count == 1

    def test_a_bucket_lists_its_elements_in_set_order(self):
        store = TargetIndexes(self.TARGET)
        people = self.TARGET.get("people")
        expected = [e for e in people.elements if e.get("name") == Atom("ann")]
        assert list(store.candidates(Path("people"), Path("name"), Atom("ann"))) == expected

    def test_a_nested_key_path_reads_through_tuples_only(self):
        target = parse_object(
            "[r: {[who: [name: ann], n: 1], [who: [name: ann], n: 2],"
            " [who: {[name: ann]}, n: 3], [who: ann, n: 4]}]"
        )
        found = TargetIndexes(target).candidates(Path("r"), Path("who.name"), Atom("ann"))
        assert sorted(element.get("n").value for element in found) == [1, 2]

    def test_a_set_below_a_tuple_is_addressed_by_its_full_path(self):
        target = parse_object("[a: [b: {[k: 1], [k: 2]}], c: {[k: 1]}]")
        store = TargetIndexes(target)
        assert list(store.candidates(Path("a.b"), Path("k"), Atom(2))) == [
            parse_object("[k: 2]")
        ]
        assert store.candidates(Path("a"), Path("k"), Atom(2)) is None

    def test_a_derived_table_keeps_no_stale_element_of_a_changed_set(self):
        # The absorbed version of a grown element is gone from its bucket.
        clear_object_caches()
        family = parse_object("{[name: abraham, children: {}], [name: sarah, children: {}]}")
        first = TargetIndexes(TupleObject({"family": family}))
        assert len(first.table(Path("family"), Path("name"))) == 2
        for child in ("a", "b", "c"):
            (old,) = [e for e in family.elements if e.get("name") == Atom("abraham")]
            grown = old.replace(children=old.get("children").add(parse_object(f"[name: {child}]")))
            with bucketed() as build:
                family = family.add(grown)  # grown absorbs old
                store = TargetIndexes(TupleObject({"family": family}))
                found = store.candidates(Path("family"), Path("name"), Atom("abraham"))
                table = store.table(Path("family"), Path("name"))
            assert build.call_count == 0
            assert list(found) == [grown]
            assert table == order._bucket(family, Path("name"))

    def test_an_unchanged_set_keeps_its_table_through_several_versions(self):
        clear_object_caches()
        store = TargetIndexes(self.TARGET)
        people = store.candidates(Path("people"), Path("name"), Atom("bob"))
        target = self.TARGET
        with bucketed() as build:
            for colour in ("green", "amber", "grey"):
                target = target.replace(tags=target.get("tags").add(Atom(colour)))
                store = TargetIndexes(target)
                assert store.candidates(Path("people"), Path("name"), Atom("bob")) is people
        assert build.call_count == 0

    def test_a_later_store_looks_again_at_a_path_that_held_no_set(self):
        store, builds = self._store()
        assert store.candidates(Path("title"), Path(()), Atom("thesis")) is None
        retitled = self.TARGET.replace(title=parse_object("{thesis, draft}"))
        following = TargetIndexes(retitled, store._on_build)
        assert list(following.candidates(Path("title"), Path(()), Atom("thesis"))) == [
            Atom("thesis")
        ]
        assert [build[:2] for build in builds] == [("title", "")]

    def test_a_path_that_no_longer_holds_a_set_cannot_answer(self):
        store = TargetIndexes(self.TARGET)
        assert list(store.candidates(Path("tags"), Path(()), Atom("red"))) == [Atom("red")]
        with bucketed() as build:
            following = TargetIndexes(self.TARGET.replace(tags=Atom("red")))
            assert following.candidates(Path("tags"), Path(()), Atom("red")) is None
        assert build.call_count == 0
