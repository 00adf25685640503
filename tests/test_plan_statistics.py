"""Statistics read the executor's bucket tables: one per-set summary.

``DatabaseStatistics.collect`` walks the tuple spine for cardinalities only;
the optimizer's distinct-atom count ``V(R, a)`` is the size of the bucket
table the executor probes (``repro.core.order._bucket``, the one function
that buckets a set's elements by key atom from scratch), built by its first
reader and kept on the interned set.  The oracle is a from-scratch, uncapped
count of the atoms at each key path; the exact-counter tests pin that
planner and executor share each table, and that a set a write or a closure
round grows derives its tables from its parent's instead of bucketing again.
"""

from collections import Counter
from typing import Dict, Set, Tuple
from unittest import mock

import pytest

from repro import Session, parse_formula, parse_program
from repro.core.builder import obj
from repro.core.intern import clear_object_caches
from repro.core.objects import BOTTOM, TOP, Atom, ComplexObject, SetObject, TupleObject
from repro.core.paths import Path
from repro.engine import SemiNaiveEngine
from repro.core import order
from repro.plan import compile_body, optimize_body
from repro.plan.indexes import TargetIndexes
from repro.plan.statistics import DatabaseStatistics
from repro.store.updates import insert_element
from repro.workloads import make_document_collection, make_genealogy

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_ROOT = Path(())


def spine(database: ComplexObject) -> Dict[Path, SetObject]:
    """Every set reachable through tuple attributes, by path."""
    found: Dict[Path, SetObject] = {}

    def walk(value, path):
        if isinstance(value, TupleObject):
            for name, item in value.items():
                walk(item, path.child(name))
        elif isinstance(value, SetObject):
            found[path] = value

    walk(database, _ROOT)
    return found


def atoms_by_key(members: SetObject) -> Dict[Path, Set[Atom]]:
    """The atoms at each key path (tuple steps only) inside ``members``' elements, uncapped."""
    found: Dict[Path, Set[Atom]] = {}

    def walk(value, key_path):
        if isinstance(value, Atom):
            found.setdefault(key_path, set()).add(value)
        elif isinstance(value, TupleObject):
            for name, item in value.items():
                walk(item, key_path.child(name))

    for element in members.elements:
        walk(element, _ROOT)
    return found


class CountedStatistics(DatabaseStatistics):
    """The estimator over a from-scratch count of every spine set, no index store."""

    def __init__(self, database: ComplexObject):
        sets = spine(database)
        super().__init__({path: len(members) for path, members in sets.items()})
        self.counts: Dict[Tuple[Path, Path], int] = {
            (path, key): len(atoms)
            for path, members in sets.items()
            for key, atoms in atoms_by_key(members).items()
        }

    def distinct(self, set_path, key_path, shapes=None):
        known = self.counts.get((set_path, key_path))
        if known:
            return float(known)
        return max(1.0, self.cardinality(set_path, shapes) ** 0.5)


# -- distinct() is the uncapped count, with the √cardinality fallback ----------------------

#: More distinct atoms than the old per-key cap tracked (4 096).
PAST_THE_CAP = SetObject(Atom(i) for i in range(4096 + 9))
PAST_THE_CAP_IN_TUPLES = SetObject(
    TupleObject({"k": Atom(i), "g": Atom(i % 3)}) for i in range(4096 + 5)
)

_ATOMS = st.one_of(st.integers(0, 5), st.sampled_from(["x", "y", "z"])).map(Atom)
_SPECIAL = st.sampled_from([BOTTOM, TOP])
_NAMES = st.sampled_from(["a", "b", "c"])
#: Elements: atoms, tuples (raw ones with ⊥ / ⊤ inside) and sets nested inside.
_ELEMENTS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.dictionaries(_NAMES, inner, max_size=3).map(TupleObject),
        st.dictionaries(_NAMES, st.one_of(inner, _SPECIAL), max_size=2).map(TupleObject.raw),
        st.lists(inner, max_size=3).map(SetObject),
    ),
    max_leaves=10,
)
_INTERNED_SETS = st.one_of(
    st.lists(_ELEMENTS, max_size=8).map(SetObject),
    st.just(PAST_THE_CAP),
    st.just(PAST_THE_CAP_IN_TUPLES),
)
_SETS = st.one_of(
    _INTERNED_SETS,
    st.lists(st.one_of(_ELEMENTS, _SPECIAL), max_size=6).map(SetObject.raw),
    st.just(SetObject.raw(PAST_THE_CAP.elements + (BOTTOM,))),
)
#: Databases: tuples of sets, tuples nested along the spine, ⊥ / ⊤ and atoms.
_DATABASES = st.recursive(
    st.one_of(_SETS, _SPECIAL, _ATOMS),
    lambda inner: st.one_of(
        st.dictionaries(st.sampled_from(["r", "s", "t"]), inner, max_size=3).map(TupleObject),
        st.dictionaries(st.sampled_from(["r", "s"]), inner, max_size=2).map(TupleObject.raw),
    ),
    max_leaves=6,
)
#: Paths no drawn database holds, beside the ones the oracle finds.
_ABSENT = (Path(("zz",)), Path(("r", "zz")))


@settings(max_examples=250, deadline=None)
@given(_DATABASES)
def test_distinct_is_the_uncapped_count_of_atoms_at_the_key(database):
    stats = DatabaseStatistics.collect(database)
    sets = spine(database)
    assert stats.set_cardinalities == {path: len(members) for path, members in sets.items()}
    for set_path in (*sets, *_ABSENT):
        members = sets.get(set_path)
        counts = {}
        if members is not None and members._iid is not None:  # a raw set has no table
            counts = {key: len(atoms) for key, atoms in atoms_by_key(members).items()}
        fallback = max(1.0, stats.cardinality(set_path) ** 0.5)
        for key_path in (*counts, _ROOT, *_ABSENT):
            assert stats.distinct(set_path, key_path) == (counts.get(key_path) or fallback)


def test_counts_past_the_old_cap_are_exact():
    database = TupleObject({"r": PAST_THE_CAP, "s": PAST_THE_CAP_IN_TUPLES})
    stats = DatabaseStatistics.collect(database)
    assert stats.distinct(Path(("r",)), _ROOT) == 4096 + 9
    assert stats.distinct(Path(("s",)), Path(("k",))) == 4096 + 5
    assert stats.distinct(Path(("s",)), Path(("g",))) == 3


def test_a_spine_of_any_depth_is_walked():
    database = obj([1, 2, 3])
    for _ in range(3000):
        database = TupleObject({"a": database})
    stats = DatabaseStatistics.collect(database)
    assert stats.set_cardinalities == {Path(("a",) * 3000): 3}


def test_collect_reads_the_store_it_is_given():
    database = obj({"r": [{"a": 1}, {"a": 2}]})
    store = TargetIndexes(database)
    first = DatabaseStatistics.collect(database, store)
    assert first.indexes is store
    second = DatabaseStatistics.collect(database)
    assert second.indexes is not store and second.set_cardinalities == {Path(("r",)): 2}
    # The estimate built the table the executor's probe then reads.
    assert first.distinct(Path(("r",)), Path(("a",))) == 2
    assert store.candidates(Path(("r",)), Path(("a",)), Atom(1)) == [obj({"a": 1})]
    assert DatabaseStatistics().distinct(Path(("r",)), Path(("a",))) == 32.0 ** 0.5


# -- the estimator is unchanged: only the source of its numbers moved ---------------------

_KEYS = st.sampled_from(["a", "b", "c"])
_VARIABLES = st.sampled_from(["X", "Y", "Z"])
_TERMS = st.one_of(_VARIABLES, st.integers(0, 3).map(str))
#: Element formulae: a term at the root, or a tuple of terms and nested sets.
_ELEMENT_FORMULAE = st.one_of(
    _TERMS,
    st.dictionaries(
        _KEYS,
        st.one_of(_TERMS, _TERMS.map(lambda term: "{[a: %s]}" % term)),
        min_size=1,
        max_size=3,
    ).map(lambda items: "[" + ", ".join(f"{k}: {v}" for k, v in items.items()) + "]"),
)
_BODIES = st.dictionaries(
    st.sampled_from(["r", "s", "t"]), _ELEMENT_FORMULAE, min_size=1, max_size=3
).map(lambda items: "[" + ", ".join(f"{k}: {{{v}}}" for k, v in items.items()) + "]")

_VALUES = st.one_of(st.integers(0, 3).map(Atom), st.just(BOTTOM))
#: Flat-ish elements: atoms at the root, tuples missing key attributes, nested sets.
_ROWS = st.one_of(
    st.integers(0, 40).map(Atom),
    st.dictionaries(
        _KEYS,
        st.one_of(_VALUES, st.integers(0, 40).map(Atom), st.lists(_VALUES, max_size=2).map(
            lambda values: SetObject(TupleObject({"a": value}) for value in values)
        )),
        max_size=3,
    ).map(TupleObject),
)
_RELATIONS = st.one_of(st.lists(_ROWS, max_size=30).map(SetObject), st.just(BOTTOM))
_FLAT_DATABASES = st.dictionaries(
    st.sampled_from(["r", "s", "t"]), _RELATIONS, max_size=3
).map(TupleObject)


@settings(max_examples=200, deadline=None)
@given(_BODIES, _FLAT_DATABASES)
def test_optimize_body_orders_and_estimates_as_over_a_from_scratch_count(body, database):
    plan = compile_body(parse_formula(body))
    over_tables = optimize_body(plan, DatabaseStatistics.collect(database))
    over_counts = optimize_body(plan, CountedStatistics(database))
    assert over_tables.leaves == over_counts.leaves
    assert over_tables.estimates == over_counts.estimates


# -- planner and executor share each table: exact build counts ---------------------------


def _builds():
    """Wrap the one function that buckets a set; its calls are ``(set, key path)``."""
    return mock.patch.object(order, "_bucket", wraps=order._bucket)


def _library(count, tag):
    return obj(
        [
            {"title": f"{tag}{i}", "author": f"author{i % 4}", "year": 1900 + i % 7}
            for i in range(count)
        ]
    )


def test_a_from_scratch_run_builds_each_table_of_the_seed_once():
    tree = make_genealogy(3, 3)
    family = tree.family_object.get("family")
    seed = TupleObject({"family": family, "doa": SetObject([Atom(tree.root)])})
    rules = parse_program(
        "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]."
    )
    engine = SemiNaiveEngine(rules)
    clear_object_caches()
    with _builds() as planned:
        engine.plan(seed)
    # Planning reads V(family, name): it builds that table, once.
    assert [(call.args[0], call.args[1]) for call in planned.call_args_list] == [
        (family, Path(("name",)))
    ]
    with _builds() as built:
        result = engine.run(seed)
    # The table outlived the store that built it: the run's planning and
    # every round find it on the family set, which no round changes.
    assert built.call_args_list == []
    assert result.value.get("doa") == SetObject(Atom(p) for p in tree.expected_descendants)
    # Dropped with the object caches: a cold run builds it once again.
    clear_object_caches()
    with _builds() as built:
        assert engine.run(seed).value is result.value
    assert [(call.args[0], call.args[1]) for call in built.call_args_list] == [
        (family, Path(("name",)))
    ]


def test_forty_ad_hoc_queries_build_each_probed_table_once():
    clear_object_caches()
    session = Session()
    session.put("library", _library(30, "t"))
    with _builds() as built:
        for index in range(20):
            session.execute(f"[library: {{[title: t{index}, year: Y]}}]").all()
            session.execute(f"[library: {{[author: author{index % 4}, year: Y{index}]}}]").all()
    assert session.cache_info()["plan_misses"] == 40
    library = session.get("library")
    keys = Counter((call.args[0] is library, str(call.args[1])) for call in built.call_args_list)
    assert keys == {(True, "title"): 1, (True, "author"): 1}
    assert session.cache_info()["indexes_cached"] == 2


def test_a_prepared_read_after_a_write_builds_its_table_while_planning():
    clear_object_caches()
    session = Session()
    session.put("library", _library(30, "t"))
    read = session.prepare("[library: {[title: $t, year: Y]}]")
    assert read.execute(t="t3").all() != BOTTOM
    session.put("library", _library(31, "t"))
    with _builds() as built:
        cursor = read.execute(t="t30")  # resolves and plans; nothing consumed yet
        assert [str(call.args[1]) for call in built.call_args_list] == ["title"]
        assert built.call_args_list[0].args[0] is session.get("library")
        assert cursor.all() != BOTTOM
        assert read.execute(t="t7").all() != BOTTOM
    assert built.call_count == 1
    assert session.stats()["query"].index_hits == 1


# -- a write derives the tables of the sets it grows: exact counters ---------------------


def _atoms_read():
    """Wrap the one reader of the atom at a key path inside an element."""
    return mock.patch.object(order, "_atom_at", wraps=order._atom_at)


@pytest.mark.parametrize("generations", [4, 5])
def test_a_one_leaf_write_re_closed_and_read_builds_no_table(generations):
    """Example 4.5 at 121 and 364 people: a leaf added, the closure resumed and
    ``[doa: {$who}]`` asked of it.  The family set and the doa set each derive
    their tables from the version they grew from: nothing is bucketed again,
    and the atom reader runs per changed element, not per family member."""
    tree = make_genealogy(generations, 3)
    family = tree.family_object.get("family")
    person = {element.get("name").value: element for element in family.elements}
    clear_object_caches()
    session = Session()
    session.put("family", family)
    session.register(
        "[doa: {%s}]. [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]."
        % tree.root
    )
    member = session.prepare("[doa: {$who}]", on_closure=True)
    parents = sorted(person)

    def new_leaf(parent, child):
        old = person[parent]
        grown = old.replace(children=old.get("children").add(TupleObject({"name": Atom(child)})))
        leaf = TupleObject({"name": Atom(child), "children": SetObject()})
        person[parent], person[child] = grown, leaf
        return child, old, grown, leaf

    def write_close_and_read(child, old, grown, leaf):
        session.transact(
            lambda txn: txn.put("family", txn.get("family").discard(old).add(grown).add(leaf))
        )
        session.close()
        return member.execute(who=child).all()

    write_close_and_read(*new_leaf(parents[0], "warm"))  # the first read builds doa's table
    for step in range(3):
        inputs = new_leaf(parents[step + 1], f"n{step}")
        with _builds() as built, _atoms_read() as read:
            answer = write_close_and_read(*inputs)
        assert answer == TupleObject({"doa": SetObject([Atom(f"n{step}")])})
        assert session.cache_info()["closure_maintained"] == step + 1
        assert built.call_args_list == []  # the parent commit rebuilt 2
        # One read per element a table gains or loses: three in the family's
        # name table (old out, grown and leaf in), one in doa's root table.
        # Within 2·|Δ| + 10 for |Δ| = 4; the parent commit read one per person.
        assert read.call_count == 4
    assert session.cache_info()["indexes_cached"] == 0


READ = "[docs: {[title: $t, author: A, sections: {[heading: H, length: L]}]}]"


@pytest.mark.parametrize("documents", [40, 120])
def test_an_insert_element_write_and_the_read_after_it_build_no_table(documents):
    library = make_document_collection(documents, 4, 5, rng=3)
    clear_object_caches()
    session = Session()
    session.put("library", library)
    read = session.prepare(READ, against="library")

    def insert_and_read(title):
        document = TupleObject(
            {
                "title": Atom(title),
                "author": Atom("mary"),
                "sections": SetObject([TupleObject({"heading": Atom("h"), "length": Atom(1)})]),
            }
        )
        session.transact(
            lambda txn: txn.put("library", insert_element(txn.get("library"), "docs", document))
        )
        return read.execute(t=title).all()

    assert insert_and_read("warm") != BOTTOM  # plans and builds the title table
    with _builds() as built, _atoms_read() as read_atoms:
        answer = insert_and_read("fresh")
    assert built.call_args_list == []  # the parent commit rebuilt 1
    assert read_atoms.call_count == 1  # the new document's title: within 2·|Δ| + 10
    assert answer.get("docs").elements[0].get("title") == Atom("fresh")
    assert session.stats()["query"].index_hits == 1
