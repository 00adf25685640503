"""Unit tests for match indexes (repro.engine.indexes)."""

from repro import parse_object, parse_rule
from repro.calculus.terms import Constant, formula, var
from repro.core.objects import Atom, BOTTOM
from repro.engine.indexes import IndexStore, MatchIndex, element_keys
from repro.store.paths import Path


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
        assert self._index().candidates(Path(()), Atom("plain")) == (self.ELEMENTS[4],)

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
        assert family == (parse_object("[name: abraham, children: {[name: isaac]}]"),)
        # The doa set indexes its atomic elements under the root path.
        assert store.candidates(Path("doa"), Path(()), Atom("abraham")) == (
            Atom("abraham"),
        )

    def test_incremental_refresh_adds_only_new_elements(self):
        store = IndexStore()
        store.register_body(self.BODY)
        before = parse_object("[doa: {abraham}, family: {}]")
        after = parse_object("[doa: {abraham, isaac}, family: {}]")
        store.refresh(BOTTOM, before)
        store.refresh(before, after)
        assert store.candidates(Path("doa"), Path(()), Atom("isaac")) == (Atom("isaac"),)

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
        assert store.candidates(Path("doa"), Path(()), Atom("abraham")) == (
            Atom("abraham"),
        )

    def test_unknown_set_path_cannot_answer(self):
        store = IndexStore()
        store.register_body(self.BODY)
        assert store.candidates(Path("nowhere"), Path(()), Atom(1)) is None
