"""Session cursors probe: the index store behind ``Session._resolve``.

There is no knob to A/B session-side probing against, so the oracle is
Definition 4.2 itself (``repro.interpret`` / ``match_all`` on the bound
formula); the exact-counter tests pin that the probes really happen.
"""

import cProfile
import time
from unittest import mock

import pytest

import repro
from repro import BOTTOM, TOP, Session, parse_formula, parse_object
from repro.api import Cursor
from repro.calculus.matching import match_all
from repro.calculus.terms import bind_parameters
from repro.core.builder import obj
from repro.core.errors import QueryTimeout
from repro.core.objects import Atom, SetObject, TupleObject
from repro.core.paths import Path
from repro.core import order
from repro.workloads import make_document_collection, make_part_hierarchy

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

POINT = "[component: {[assembly_id: $a, part_id: P]}, part: {[part_id: P, kind: K, weight: W]}]"
READ = "[docs: {[title: $t, author: A, sections: {[heading: H, length: L]}]}]"


def _relation(rows) -> SetObject:
    return SetObject(
        TupleObject({name: Atom(value) for name, value in row.items()}) for row in rows
    )


def _bom_session(levels: int = 4) -> "tuple[Session, object]":
    # A bucket table lives on its interned set, past the session that built
    # it: every bom session starts with none.
    repro.clear_object_caches()
    hierarchy = make_part_hierarchy(levels, 3, rng=7)
    flat = hierarchy.flat_database
    session = Session()
    for name in ("part", "component"):
        session.put(name, _relation(flat[name].to_dicts()))
    return session, hierarchy


# -- (a) the answer is Definition 4.2's, whatever probes or scans ---------------------------

_KEYS = st.integers(min_value=0, max_value=3).map(Atom)
#: Join and parameter values that are *not* atoms: a probe answers ``None``
#: for them and the executor must fall back to the scan.
_NON_ATOMS = st.sampled_from([parse_object("{1, 2}"), parse_object("[x: 1]")])
_VALUES = st.one_of(_KEYS, _KEYS, _NON_ATOMS)

FLAT_QUERIES = [
    "[r1: {[a: $p, b: Y]}, r2: {[c: Y, d: Z]}]",
    "[r1: {[a: X, b: Y]}, r2: {[c: Y, d: $p]}]",
    "[r1: {[a: $p, b: Y], [a: Y, b: X]}]",
    "[r1: {[a: X, b: $p]}, r2: {[c: X, d: X]}]",
]

DOCUMENT_QUERIES = [
    "[docs: {[title: $p, author: A, sections: {[heading: H, length: L]}]}]",
    "[docs: {[title: T, author: $p]}, authors: {[name: $p, born: B]}]",
    "[docs: {[title: T, author: A]}, authors: {[name: A, born: $p]}]",
]


@st.composite
def _flat_databases(draw):
    r1 = st.fixed_dictionaries({"a": _VALUES, "b": _VALUES}).map(TupleObject)
    r2 = st.fixed_dictionaries({"c": _VALUES, "d": _VALUES}).map(TupleObject)
    return {
        "r1": SetObject(draw(st.lists(r1, max_size=6))),
        "r2": SetObject(draw(st.lists(r2, max_size=6))),
    }


@st.composite
def _libraries(draw):
    section = st.fixed_dictionaries({"heading": _KEYS, "length": _KEYS}).map(TupleObject)
    document = st.fixed_dictionaries(
        {"title": _VALUES, "author": _KEYS},
        optional={"sections": st.lists(section, max_size=3).map(SetObject)},
    ).map(TupleObject)
    author = st.fixed_dictionaries({"name": _KEYS, "born": _VALUES}).map(TupleObject)
    return {
        "docs": SetObject(draw(st.lists(document, max_size=6))),
        "authors": SetObject(draw(st.lists(author, max_size=4))),
    }


def _assert_session_answers_the_oracle(stored, query, value, allow_bottom, top_stored):
    session = Session()
    for name, relation in stored.items():
        session.put(name, relation)
    if top_stored:
        session.put("everything", TOP)  # the snapshot path: the database is ⊤
    prepared = session.prepare(query, lint="off", allow_bottom=allow_bottom)
    bound = bind_parameters(parse_formula(query), {"p": obj(value)})
    database = session.database.as_object()
    expected = repro.interpret(bound, database, allow_bottom=allow_bottom)
    substitutions = set(match_all(bound, database, allow_bottom=allow_bottom))
    for _ in range(2):  # cold (the probe builds its bucket), then warm
        assert prepared.execute(p=value).all() == expected
        assert set(prepared.execute(p=value).bindings()) == substitutions
        cursor = prepared.execute(p=value)
        streamed = list(cursor)
        assert len(streamed) == len(set(streamed))
        assert repro.union_all(streamed) == expected == cursor.all()
        if allow_bottom:  # no narrowing at all: planning may build, nothing probes
            assert session.stats()["query"].index_hits == 0


@settings(max_examples=120, deadline=None)
@given(
    _flat_databases(), st.sampled_from(FLAT_QUERIES), _VALUES, st.booleans(), st.booleans()
)
def test_flat_relations_answer_definition_4_2(stored, query, value, allow_bottom, top_stored):
    _assert_session_answers_the_oracle(stored, query, value, allow_bottom, top_stored)


@settings(max_examples=120, deadline=None)
@given(
    _libraries(), st.sampled_from(DOCUMENT_QUERIES), _VALUES, st.booleans(), st.booleans()
)
def test_nested_documents_answer_definition_4_2(stored, query, value, allow_bottom, top_stored):
    _assert_session_answers_the_oracle(stored, query, value, allow_bottom, top_stored)


@settings(max_examples=60, deadline=None)
@given(_libraries(), _VALUES, st.booleans())
def test_against_one_stored_object_and_on_a_seeded_session(stored, value, allow_bottom):
    library = TupleObject(stored)
    query = DOCUMENT_QUERIES[0]
    bound = bind_parameters(parse_formula(query), {"p": obj(value)})
    expected = repro.interpret(bound, library, allow_bottom=allow_bottom)
    session = Session()
    session.put("library", library)
    against = session.prepare(query, lint="off", against="library", allow_bottom=allow_bottom)
    seeded = Session.over_object(library).prepare(query, lint="off", allow_bottom=allow_bottom)
    for prepared in (against, seeded):
        assert prepared.execute(p=value).all() == expected
        assert prepared.execute(p=value).all() == expected


# -- (b) staleness: an index store lives exactly as long as its version ----------------------


class TestStaleness:
    QUERY = "[r1: {[name: $who, age: A]}]"

    def test_a_commit_between_two_executions_is_seen_by_the_second(self):
        session = Session()
        session.put("r1", parse_object("{[name: ann, age: 1], [name: bob, age: 2]}"))
        ages = session.prepare(self.QUERY)
        assert ages.execute(who="ann").all() == parse_object("[r1: {[name: ann, age: 1]}]")
        assert session.cache_info()["indexes_cached"] == 1
        session.put("r1", parse_object("{[name: ann, age: 1], [name: ann, age: 9]}"))
        assert ages.execute(who="ann").all() == parse_object(
            "[r1: {[name: ann, age: 1], [name: ann, age: 9]}]"
        )
        assert ages.execute(who="bob").all() is BOTTOM
        # The old version's bucket went where its stale plan went.
        assert session.cache_info()["indexes_cached"] == 1

    def test_a_half_consumed_cursor_drained_after_a_commit_answers_its_own_target(self):
        session = Session()
        session.put("r1", parse_object("{[name: ann, age: 1], [name: ann, age: 2]}"))
        cursor = session.execute(self.QUERY, {"who": "ann"})
        first = next(cursor)
        session.put("r1", parse_object("{[name: ann, age: 7]}"))
        # A later resolve drops the session's reference; the cursor has its own.
        assert session.query(self.QUERY, {"who": "ann"}) == parse_object(
            "[r1: {[name: ann, age: 7]}]"
        )
        rest = list(cursor)
        assert repro.union_all([first, *rest]) == cursor.all() == parse_object(
            "[r1: {[name: ann, age: 1], [name: ann, age: 2]}]"
        )
        assert "probed name → 2 candidates" in cursor.explain()

    def test_seed_and_rule_edits_are_versions_too(self):
        session = Session.over_object(parse_object("[r1: {[name: ann, age: 1]}]"))
        assert session.query(self.QUERY, {"who": "ann"}) != BOTTOM
        assert session.cache_info()["indexes_cached"] == 1
        session.seed_object(parse_object("[r1: {[name: ann, age: 2]}]"))
        assert session.query(self.QUERY, {"who": "ann"}) == parse_object(
            "[r1: {[name: ann, age: 1], [name: ann, age: 2]}]"
        )

    def test_two_targets_of_one_version_each_get_a_store(self):
        repro.clear_object_caches()
        session = Session()
        session.put("r1", parse_object("{[name: ann, age: 1]}"))
        session.put("r2", parse_object("{[name: ann, age: 5]}"))
        for name in ("r1", "r2", "r1"):
            session.query("{[name: $who, age: A]}", {"who": "ann"}, against=name)
        assert session.cache_info()["indexes_cached"] == 2
        session.shutdown()
        assert session.cache_info()["indexes_cached"] == 0


# -- (c) exact counters ----------------------------------------------------------------------


class TestExactCounters:
    def test_the_bom_point_join_probes_instead_of_scanning(self):
        """Three component rows probed, three parts probed: 6 attempts, 4 hits.

        Without session-side probing the same query scans both relations
        (``len(component) + len(part)`` attempts, no hit) for the same rows.
        """
        session, hierarchy = _bom_session()
        point = session.prepare(POINT)
        for _ in range(2):  # the build is not an attempt: cold and warm agree
            answer = point.execute(a=hierarchy.root_id).all()
            stats = session.stats()["query"]
            assert (stats.match_attempts, stats.index_hits, stats.index_misses) == (6, 4, 0)
            assert stats.substitutions == 3
        assert len(answer.get("part").elements) == 3
        assert session.cache_info()["indexes_cached"] == 2
        streamed = point.execute(a=hierarchy.root_id)
        assert len(list(streamed.bindings())) == 3
        stats = session.stats()["query"]
        assert (stats.match_attempts, stats.index_hits) == (6, 4)

    def test_a_leaf_assembly_examines_nothing(self):
        session, hierarchy = _bom_session()
        leaf = max(row["part_id"] for row in hierarchy.flat_database["part"].to_dicts())
        assert session.prepare(POINT).execute(a=leaf).all() is BOTTOM
        stats = session.stats()["query"]
        assert (stats.match_attempts, stats.index_hits) == (0, 1)

    def test_an_absent_title_examines_no_document(self):
        library = make_document_collection(40, 4, 5, rng=3)
        session = Session()
        session.put("library", library)
        read = session.prepare(READ, against="library")
        assert read.execute(t="no such title").all() is BOTTOM
        stats = session.stats()["query"]
        assert (stats.match_attempts, stats.index_hits) == (0, 1)
        document = library.get("docs").elements[0]
        assert read.execute(t=document.get("title")).all() != BOTTOM
        # One candidate document, nothing else: the sections inside it are
        # matched within that one attempt.
        stats = session.stats()["query"]
        assert stats.match_attempts == 1
        assert stats.index_hits == 1




class TestPreparedExecutionBuildsNothing:
    """A plan hit runs the prepared plan with its values in slots: nothing is rebuilt."""

    def test_a_new_value_binds_interns_compiles_and_reduces_nothing(self):
        from repro.api import cursor as cursor_module
        from repro.calculus import terms
        from repro.core import intern
        from repro.plan import ir
        from repro.plan.compile import compile_body, compile_element_matcher

        session, hierarchy = _bom_session()
        by_assembly = {}
        for row in hierarchy.flat_database["component"].to_dicts():
            by_assembly.setdefault(row["assembly_id"], set()).add(row["part_id"])
        first, second = sorted(
            assembly for assembly, parts in by_assembly.items() if len(parts) > 1
        )[:2]
        point = session.prepare(POINT)
        assert point.execute(a=first).all() is not BOTTOM

        built = []

        def counting(cls):
            original = cls.__init__

            def init(self, *args, **kwargs):
                built.append(cls.__name__)
                original(self, *args, **kwargs)

            return mock.patch.object(cls, "__init__", init)

        projections = []
        compile_projection = cursor_module.compile_projection

        def spy(formula, names):
            projections.append(names)
            return compile_projection(formula, names)

        memos = (compile_body.cache, compile_element_matcher.cache)
        misses = [memo.misses for memo in memos]
        terms_before = len(intern._TERMS)
        hits = session.cache_info()["plan_hits"]
        profile = cProfile.Profile()
        with counting(ir.ScanLeaf), counting(ir.ConstLeaf), \
                mock.patch.object(cursor_module, "compile_projection", spy):
            profile.enable()
            answer = point.execute(a=second).all()
            profile.disable()
        calls = {entry.code: entry.callcount for entry in profile.getstats()}
        assert session.cache_info()["plan_hits"] == hits + 1
        assert {row.get("part_id").value for row in answer.get("component").elements} == (
            by_assembly[second]
        )
        # Both answer sets differ at one atom attribute (part_id): no reduction.
        assert len(answer.get("part").elements) == len(by_assembly[second]) > 1
        assert calls.get(terms.bind_parameters.__code__, 0) == 0
        assert len(intern._TERMS) == terms_before
        assert built == []
        assert [memo.misses for memo in memos] == misses
        assert projections == []
        assert calls.get(order._survivors.__code__, 0) == 0
        # The oracle: the query with its value spliced in as a constant.
        bound = terms.bind_parameters(parse_formula(POINT), {"a": Atom(second)})
        assert answer == repro.interpret(bound, session.database.as_object())

    def test_elements_that_share_their_atoms_are_still_reduced(self):
        """``[r: {[a: $p, b: B]}]`` gathers ``[a: 1, b: 2]`` and ``[a: 1]``: reduced."""
        session = Session()
        session.put("r", parse_object("{[a: 1, b: 2], [a: 1, c: 3]}"))
        prepared = session.prepare("[r: {[a: $p, b: B]}]", allow_bottom=True)
        with mock.patch.object(order, "_survivors", wraps=order._survivors) as survivors:
            answer = prepared.execute(p=1).all()
        assert answer == parse_object("[r: {[a: 1, b: 2]}]")
        assert survivors.call_count == 1


# -- (d) deadlines ---------------------------------------------------------------------------


def test_a_spent_deadline_is_noticed_before_any_match_attempt():
    repro.clear_object_caches()
    session = Session()
    session.put("big", SetObject(TupleObject({"k": Atom(i), "v": Atom(-i)}) for i in range(3000)))
    with mock.patch.object(order, "_bucket", wraps=order._bucket) as bucket:
        lookup = session.prepare("{[k: $k, v: V]}", against="big")
        for terminal in (Cursor.all, next):
            cursor = session.execute(lookup, {"k": 5}, timeout_ms=0.001)
            time.sleep(0.002)
            with pytest.raises(QueryTimeout) as caught:
                terminal(cursor)
            # Stopped in front of the one leaf: no witness was tried.
            assert "leaf 1 of 1, 1 partial substitutions" in caught.value.partial_explain
        assert lookup.execute(k=5).all() == parse_object("{[k: 5, v: -5]}")
    # The planner built the probed table; no cursor, cut short or not, built it again.
    assert [call.args[1] for call in bucket.call_args_list] == [Path(("k",))]
    assert session.cache_info()["indexes_cached"] == 1


# -- observability ---------------------------------------------------------------------------


class TestObservability:
    def test_builds_probes_and_entries_are_metrics(self):
        session, hierarchy = _bom_session()
        point = session.prepare(POINT)
        before = repro.obs.snapshot()["counters"]
        point.execute(a=hierarchy.root_id).all()
        point.execute(a=hierarchy.root_id).all()
        after = repro.obs.snapshot()
        counters = after["counters"]
        assert counters["session.index.builds"] - before["session.index.builds"] == 2
        assert counters["session.index.probes"] - before["session.index.probes"] == 8
        assert after["gauges"]["session.index.entries"] == 2
        session.put("unrelated", parse_object("{1}"))
        point.execute(a=hierarchy.root_id).one()
        # A new version: its store finds both tables on the sets the commit
        # left alone, so a cursor that stopped at its first row built nothing.
        after = repro.obs.snapshot()
        assert after["counters"]["session.index.builds"] - before["session.index.builds"] == 2
        assert after["gauges"]["session.index.entries"] == 0
        assert session.cache_info()["indexes_cached"] == 0

    def test_the_first_probe_after_a_commit_is_a_span(self):
        session, hierarchy = _bom_session()
        point = session.prepare(POINT)
        tracer = repro.obs.enable_tracing()
        try:
            tracer.clear()
            with repro.obs.span("test.op"):
                point.execute(a=hierarchy.root_id).all()
                point.execute(a=hierarchy.root_id).all()
            (root,) = tracer.traces()
        finally:
            repro.obs.disable_tracing()
        # The tables are built by their first reader, the planner's estimates
        # inside the first execute; the second execute and both cursors build
        # nothing.
        planning, _ = [span for span in root.children if span.name == "session.execute"]
        builds = [span for span in planning.children if span.name == "session.index.build"]
        assert [
            (span.attrs["set_path"], span.attrs["key_path"], span.attrs["elements"])
            for span in builds
        ] == [("component", "assembly_id", 120), ("part", "part_id", 121)]
        assert all(span.duration_ns is not None for span in builds)

        def names(span):
            return [span.name] + [name for child in span.children for name in names(child)]

        assert names(root).count("session.index.build") == 2


# -- Cursor.bindings() keeps rows, projects on demand ---------------------------------------


class TestLazyBindings:
    QUERY = "[r1: {[name: X, age: A]}]"
    PEOPLE = "{[name: ann, age: 1], [name: bob, age: 2], [name: cy, age: 3]}"

    def _session(self):
        session = Session()
        session.put("r1", parse_object(self.PEOPLE))
        return session

    def test_bindings_instantiate_nothing(self, monkeypatch):
        """No projection during ``bindings()``; ``all()`` compiles and runs one."""
        from repro.api import cursor as cursor_module

        compiled, projected = [], []
        original = cursor_module.compile_projection

        def spy(formula, names):
            compiled.append(names)
            project = original(formula, names)
            return lambda rows, params: projected.append(len(rows)) or project(rows, params)

        monkeypatch.setattr(cursor_module, "compile_projection", spy)
        cursor = self._session().execute(self.QUERY)
        assert len(list(cursor.bindings())) == 3
        assert compiled == [] and projected == []
        assert cursor.all() == parse_object(f"[r1: {self.PEOPLE}]")
        assert compiled == [("A", "X")] and projected == [3]

    def test_all_after_partial_bindings_is_the_complete_answer(self):
        session = self._session()
        cursor = session.execute(self.QUERY)
        stream = cursor.bindings()
        first = next(stream)
        assert first["X"] in {Atom("ann"), Atom("bob"), Atom("cy")}
        assert cursor.all() == session.query(self.QUERY)

    def test_iteration_after_bindings_does_not_repeat_what_bindings_consumed(self):
        cursor = self._session().execute(self.QUERY)
        stream = cursor.bindings()
        consumed = next(stream).apply(parse_formula(self.QUERY))
        rest = list(cursor)
        assert len(rest) == 2 and consumed not in rest
        assert cursor.all() == repro.union_all([consumed, *rest])

    def test_the_finish_callback_counts_streamed_bindings(self):
        session = Session(slow_query_ms=0)
        session.put("r1", parse_object("{[name: ann, age: 1], [name: bob, age: 2]}"))
        list(session.execute(self.QUERY).bindings())
        assert session.slow_queries()[-1]["rows"] == 2

    def test_the_slow_query_rows_are_the_executor_rows_on_every_path(self):
        """``[r: {X, Y}]`` over ``{1, 2}``: four rows, three distinct matches."""
        session = Session(slow_query_ms=0)
        session.put("r", parse_object("{1, 2}"))
        query = "[r: {X, Y}]"
        assert len(list(session.execute(query))) == 3

        def one_then_all(cursor):
            cursor.one()
            cursor.all()

        for consume in (Cursor.all, lambda cursor: list(cursor.bindings()), list, one_then_all):
            logged = len(session.slow_queries())
            consume(session.execute(query))
            assert len(session.slow_queries()) == logged + 1
            assert session.slow_queries()[-1]["rows"] == 4
