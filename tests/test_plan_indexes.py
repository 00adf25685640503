"""Unit tests for match indexes (repro.plan.indexes)."""

from repro import parse_object, parse_rule
from repro.calculus.terms import Constant, formula, var
from repro.core.objects import Atom, BOTTOM, TOP, SetObject, TupleObject
from repro.plan.indexes import IndexStore, MatchIndex, TargetIndexes, element_keys
from repro.core.paths import Path


class TestElementKeys:
    def test_static_key_from_atom_constant(self):
        element = formula({"name": Atom("abraham"), "age": var("A")})
        keys = element_keys(element)
        assert keys[0] == (Path("name"), Atom("abraham"))

    def test_dynamic_key_from_variable(self):
        element = formula({"name": var("Y")})
        assert element_keys(element) == ((Path("name"), "Y"),)

    def test_static_keys_come_first(self):
        element = formula({"a": var("X"), "b": Atom(1)})
        keys = element_keys(element)
        assert keys[0] == (Path("b"), Atom(1))
        assert (Path("a"), "X") in keys

    def test_root_keys_for_atomic_elements(self):
        assert element_keys(Constant(Atom("abraham"))) == ((Path(()), Atom("abraham")),)
        assert element_keys(var("Y")) == ((Path(()), "Y"),)

    def test_nothing_below_nested_sets(self):
        element = parse_rule(
            "[out: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"
        ).body.get("family").elements[0]
        assert element_keys(element) == ((Path("name"), "Y"),)

    def test_non_atom_constant_yields_no_key(self):
        element = formula({"name": parse_object("{1}")})
        assert element_keys(element) == ()


class TestMatchIndex:
    ELEMENTS = (
        parse_object("[name: ann, age: 1]"),
        parse_object("[name: bob, age: 2]"),
        parse_object("[name: ann, city: paris]"),
        parse_object("[name: {odd}, age: 3]"),  # non-atom key value: unbucketed
        parse_object("plain"),  # atoms index under the root path
    )

    def _index(self):
        index = MatchIndex(Path("r"), [Path("name"), Path(())])
        index.extend(self.ELEMENTS)
        return index

    def test_lookup_by_key(self):
        index = self._index()
        found = index.candidates(Path("name"), Atom("ann"))
        assert set(found) == {self.ELEMENTS[0], self.ELEMENTS[2]}

    def test_missing_key_is_definitively_empty(self):
        assert self._index().candidates(Path("name"), Atom("zoe")) == ()

    def test_root_path_buckets_atomic_elements(self):
        assert list(self._index().candidates(Path(()), Atom("plain"))) == [self.ELEMENTS[4]]

    def test_a_hit_is_the_stored_bucket_not_a_copy(self):
        index = self._index()
        first = index.candidates(Path("name"), Atom("ann"))
        assert index.candidates(Path("name"), Atom("ann")) is first

    def test_unregistered_path_cannot_answer(self):
        assert self._index().candidates(Path("age"), Atom(1)) is None

    def test_non_atom_key_cannot_answer(self):
        assert self._index().candidates(Path("name"), parse_object("{1}")) is None

    def test_add_is_idempotent(self):
        index = self._index()
        index.add(self.ELEMENTS[0])
        assert len(index.candidates(Path("name"), Atom("ann"))) == 2

    def test_clear(self):
        index = self._index()
        index.clear()
        assert index.candidates(Path("name"), Atom("ann")) == ()
        assert len(index) == 0


class TestIndexStore:
    BODY = parse_rule(
        "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"
    ).body

    def test_register_body_and_refresh(self):
        store = IndexStore()
        store.register_body(self.BODY)
        db = parse_object(
            "[family: {[name: abraham, children: {[name: isaac]}]}, doa: {abraham}]"
        )
        store.refresh(BOTTOM, db)
        family = store.candidates(Path("family"), Path("name"), Atom("abraham"))
        assert list(family) == [parse_object("[name: abraham, children: {[name: isaac]}]")]
        # The doa set indexes its atomic elements under the root path.
        assert list(store.candidates(Path("doa"), Path(()), Atom("abraham"))) == [
            Atom("abraham")
        ]

    def test_incremental_refresh_adds_only_new_elements(self):
        store = IndexStore()
        store.register_body(self.BODY)
        before = parse_object("[doa: {abraham}, family: {}]")
        after = parse_object("[doa: {abraham, isaac}, family: {}]")
        store.refresh(BOTTOM, before)
        store.refresh(before, after)
        assert list(store.candidates(Path("doa"), Path(()), Atom("isaac"))) == [Atom("isaac")]

    def test_absorbed_elements_stay_until_they_outnumber_the_live_set(self):
        store = IndexStore()
        store.register_body(self.BODY)

        def family(*children):
            names = ", ".join(f"[name: {child}]" for child in children)
            return parse_object(f"[family: {{[name: abraham, children: {{{names}}}]}}]")

        def indexed():
            return len(store.candidates(Path("family"), Path("name"), Atom("abraham")))

        versions = [family("a"), family("a", "b"), family("a", "b", "c")]
        store.refresh(BOTTOM, versions[0])
        store.refresh(versions[0], versions[1])
        assert indexed() == 2  # the absorbed tuple is stale, by design
        store.refresh(versions[1], versions[2])
        assert indexed() == 1  # three for one live element: rebuilt

    def test_a_body_registered_late_is_indexed_from_the_whole_database(self):
        store = IndexStore()
        before = parse_object("[doa: {abraham}]")
        after = parse_object("[doa: {abraham, isaac}]")
        store.refresh(BOTTOM, before)
        store.register_body(self.BODY)
        store.refresh(before, after)
        assert list(store.candidates(Path("doa"), Path(()), Atom("abraham"))) == [
            Atom("abraham")
        ]

    def test_unknown_set_path_cannot_answer(self):
        store = IndexStore()
        store.register_body(self.BODY)
        assert store.candidates(Path("nowhere"), Path(()), Atom(1)) is None


class TestTargetIndexes:
    """The build-at-first-probe policy over one immutable target."""

    TARGET = parse_object(
        "[people: {[name: ann, age: 1], [name: bob, age: 2], [name: ann, city: paris],"
        " [name: {odd}, age: 3]}, tags: {red, blue}, title: thesis]"
    )

    def _store(self):
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
        assert store.entries == 0 and builds == []
        found = store.candidates(Path("people"), Path("name"), Atom("ann"))
        assert set(found) == {
            parse_object("[name: ann, age: 1]"), parse_object("[name: ann, city: paris]")
        }
        assert builds == [("people", "name", 4)] and store.entries == 1
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
        assert store.entries == 3

    def test_a_non_atom_key_cannot_answer_and_builds_nothing(self):
        store, builds = self._store()
        assert store.candidates(Path("people"), Path("name"), parse_object("{odd}")) is None
        assert store.candidates(Path("people"), Path("name"), parse_object("[a: 1]")) is None
        assert builds == [] and store.entries == 0

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
        store = TargetIndexes(raw)
        assert store.candidates(Path("r"), Path("name"), Atom("ann")) is None
        assert store.entries == 0

    def test_without_a_hook_builds_are_silent(self):
        store = TargetIndexes(self.TARGET)
        assert len(store.candidates(Path("people"), Path("name"), Atom("ann"))) == 2
        assert store.entries == 1
