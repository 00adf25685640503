"""Statistics as a fold over interned sets: each spine set is summarised once.

``DatabaseStatistics.collect`` walks the tuple spine and takes each spine
set's summary (cardinality, distinct atoms per key path) from a memo keyed on
the set's intern id.  The oracle is the from-scratch walk below — the whole
collection the optimizer used before summaries were memoised — and the
exact-counter tests pin that a session summarises a set once per interned
value, not once per plan miss.
"""

from typing import Dict, Set, Tuple

import pytest

import repro
from repro import Session
from repro.core.builder import obj
from repro.core.objects import BOTTOM, TOP, Atom, ComplexObject, SetObject, TupleObject
from repro.core.paths import Path
from repro.plan import statistics
from repro.plan.statistics import DatabaseStatistics

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_ROOT = Path(())


def oracle(database: ComplexObject) -> dict:
    """Every spine set walked from scratch, nothing memoised."""
    cardinalities: Dict[Path, int] = {}
    distinct: Dict[Tuple[Path, Path], Set[Atom]] = {}

    def walk_spine(value, path):
        if isinstance(value, TupleObject):
            for name, item in value.items():
                walk_spine(item, path.child(name))
        elif isinstance(value, SetObject):
            cardinalities[path] = len(value.elements)
            for element in value.elements:
                walk_element(element, path, _ROOT)

    def walk_element(value, set_path, key_path):
        if isinstance(value, Atom):
            bucket = distinct.setdefault((set_path, key_path), set())
            if len(bucket) < statistics._MAX_DISTINCT_TRACKED:
                bucket.add(value)
        elif isinstance(value, TupleObject):
            for name, item in value.items():
                walk_element(item, set_path, key_path.child(name))

    walk_spine(database, _ROOT)
    expected = DatabaseStatistics(
        set_cardinalities=cardinalities,
        distinct_atoms={key: len(atoms) for key, atoms in distinct.items()},
    )
    return expected.as_dict()


# -- the memoised collection equals the oracle ------------------------------------------

#: More distinct atoms than the per-key cap tracks (4 096).
PAST_THE_CAP = SetObject(Atom(i) for i in range(statistics._MAX_DISTINCT_TRACKED + 9))
PAST_THE_CAP_IN_TUPLES = SetObject(
    TupleObject({"k": Atom(i), "g": Atom(i % 3)})
    for i in range(statistics._MAX_DISTINCT_TRACKED + 5)
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


@st.composite
def _edited_sets(draw):
    """A chain of ``add`` / ``discard`` from an interned set."""
    value = draw(_INTERNED_SETS)
    for grow, element, at in draw(
        st.lists(st.tuples(st.booleans(), _ELEMENTS, st.integers(0, 1 << 16)), max_size=4)
    ):
        if not isinstance(value, SetObject):
            break
        if grow:
            value = value.add(element)
        elif len(value):
            value = value.discard(value.elements[at % len(value)])
    return value


_SETS = st.one_of(
    _INTERNED_SETS,
    _edited_sets(),
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


@settings(max_examples=250, deadline=None)
@given(_DATABASES)
def test_collect_equals_the_from_scratch_walk(database):
    expected = oracle(database)
    # The first call may summarise; the second reads every interned set's memo.
    assert DatabaseStatistics.collect(database).as_dict() == expected
    assert DatabaseStatistics.collect(database).as_dict() == expected


def test_distinct_counts_saturate_at_the_cap():
    cap = statistics._MAX_DISTINCT_TRACKED
    database = TupleObject({"r": PAST_THE_CAP, "s": PAST_THE_CAP_IN_TUPLES})
    for _ in range(2):
        stats = DatabaseStatistics.collect(database)
        assert stats.distinct_atoms[(Path(("r",)), _ROOT)] == cap
        assert stats.distinct_atoms[(Path(("s",)), Path(("k",)))] == cap
        assert stats.distinct_atoms[(Path(("s",)), Path(("g",)))] == 3
        assert stats.as_dict() == oracle(database)


def test_a_raw_set_is_summarised_afresh_whenever_its_id_comes_back():
    # Raw sets carry no intern id; CPython hands a freed set's id() to the next
    # one, so a memo keyed on id() would answer for the wrong contents.
    seen = set()
    for size in range(1, 60):
        database = TupleObject.raw({"r": SetObject.raw([Atom(i) for i in range(size)])})
        seen.add(id(database.get("r")))
        assert DatabaseStatistics.collect(database).as_dict() == oracle(database)
        del database
    assert len(seen) < 59  # ids were reused, so the check above had teeth


def test_collect_returns_a_fresh_object():
    database = obj({"r": [1, 2]})
    first = DatabaseStatistics.collect(database)
    first.shapes = object()
    first.set_cardinalities.clear()
    second = DatabaseStatistics.collect(database)
    assert second.shapes is None and second.set_cardinalities == {Path(("r",)): 2}


# -- one summary per interned spine set, not one per plan miss ---------------------------


def _library(count, tag):
    return obj(
        [
            {"title": f"{tag}{i}", "author": f"author{i % 4}", "year": 1900 + i % 7}
            for i in range(count)
        ]
    )


def _summarised():
    return statistics._SUMMARIES.misses


def test_a_session_summarises_each_spine_set_once_per_value():
    repro.clear_object_caches()
    session = Session()
    session.put("library", _library(30, "summary-probe-"))
    before = _summarised()
    for index in range(40):
        session.execute(f"[library: {{[title: T{index}, author: A{index}]}}]").all()
    assert session.cache_info()["plan_misses"] == 40
    assert _summarised() - before == 1

    # Two stored objects, two spine sets; replacing one rebuilds only it.
    session.put("shelf", _library(5, "shelf-"))
    session.execute("[shelf: {[title: T]}]").all()
    assert _summarised() - before == 2
    hits = statistics._SUMMARIES.hits
    session.put("shelf", _library(6, "shelf-"))
    session.execute("[shelf: {[title: T]}, library: {[title: T]}]").all()
    assert _summarised() - before == 3
    assert statistics._SUMMARIES.hits == hits + 1  # the library set's summary

    entries = len(statistics._SUMMARIES)
    assert entries >= 3
    assert repro.obs.snapshot()["gauges"]["core.memo.set_summary_entries"] == entries
    repro.clear_object_caches()
    assert len(statistics._SUMMARIES) == 0
    assert repro.obs.snapshot()["gauges"]["core.memo.set_summary_entries"] == 0
