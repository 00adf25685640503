"""Store-backed queries read one whole-database target; ``find`` is a scan."""

import pytest

from repro import Session, is_subobject, parse_formula, parse_object
# The oracle must stay independent of the session pipeline under test, so
# it is the calculus baseline interpret.
from repro.calculus.interpretation import interpret
from repro.core.objects import BOTTOM
from repro.obs.metrics import REGISTRY
from repro.store.database import ObjectDatabase


def ask(database, formula, **options):
    """The answer of a fresh session over ``database`` (no cached plan)."""
    return Session(database=database).query(formula, **options)


@pytest.fixture
def populated():
    database = ObjectDatabase()
    for position in range(20):
        database.put(
            f"obj{position}",
            parse_object(f"[tag: {{t{position % 4}}}, num: {position}]"),
        )
    database.put(
        "family",
        parse_object(
            "[family: {[name: abraham, kids: {isaac}], [name: sarah, kids: {isaac}]}]"
        ),
    )
    return database


def moved(database, before):
    """The ``access_stats`` counters that moved since ``before``, and by how much."""
    after = database.access_stats
    return {key: after[key] - before[key] for key in after if after[key] != before[key]}


class TestWholeDatabaseTarget:
    def test_each_execute_counts_one_scan_and_explain_none(self, populated):
        session = Session(database=populated)
        query = "[family: [family: {[name: X]}]]"
        for _ in range(2):
            before = populated.access_stats
            session.query(query)
            assert moved(populated, before) == {"query_scans": 1}
        before = populated.access_stats
        session.explain(query)
        assert moved(populated, before) == {}

    def test_answer_equals_interpretation_of_the_database_object(self, populated):
        for source in (
            "[family: [family: {[name: X]}]]",
            "[obj3: [tag: {T}]]",
            "[missing: {X}]",
            "[obj1: [num: N], obj2: [num: M]]",
        ):
            query = parse_formula(source)
            assert ask(populated, query) == interpret(query, populated.as_object())

    def test_non_tuple_query_reads_the_same_target(self, populated):
        before = populated.access_stats
        query = parse_formula("X")
        assert ask(populated, query) == interpret(query, populated.as_object())
        assert moved(populated, before) == {"query_scans": 1}

    def test_allow_bottom_agrees(self, populated):
        query = parse_formula("[family: [family: {[name: X, kids: {K}]}]]")
        assert ask(populated, query, allow_bottom=True) == interpret(
            query, populated.as_object(), allow_bottom=True
        )

    def test_top_valued_object_collapses_the_target(self, populated):
        # A stored ⊤ collapses as_object() to ⊤ even for names the formula
        # never mentions.
        populated.put("anything", parse_object("top"))
        query = parse_formula("[family: [family: {[name: X]}]]")
        assert ask(populated, query) == interpret(query, populated.as_object())
        assert ask(populated, query).is_top
        populated.remove("anything")
        before = populated.access_stats
        assert ask(populated, query) == interpret(query, populated.as_object())
        assert not ask(populated, query).is_top
        assert moved(populated, before) == {"query_scans": 2}

    def test_against_still_targets_one_object(self, populated):
        query = parse_formula("[family: {[name: X]}]")
        assert ask(populated, query, against="family") == interpret(
            query, populated["family"]
        )

    def test_against_counts_no_whole_database_scan(self, populated):
        before = populated.access_stats
        ask(populated, "[family: {[name: X]}]", against="family")
        assert moved(populated, before) == {}

    def test_a_commit_is_seen_by_the_next_query_on_a_cached_plan(self, populated):
        session = Session(database=populated)
        query = "[family: [family: {[name: X]}]]"
        session.query(query)
        populated.put(
            "family", parse_object("[family: {[name: abraham], [name: hagar]}]")
        )
        assert session.query(query) == parse_object(
            "[family: [family: {[name: abraham], [name: hagar]}]]"
        )
        assert session.query(query) == interpret(
            parse_formula(query), populated.as_object()
        )

    def test_a_cursor_reads_the_version_it_was_opened_on(self, populated):
        session = Session(database=populated)
        query = parse_formula("[family: [family: {[name: X]}]]")
        held = populated.as_object()
        cursor = session.execute(query)
        populated.put("family", parse_object("[family: {[name: hagar]}]"))
        assert cursor.all() == interpret(query, held)
        assert session.query(query) == parse_object("[family: [family: {[name: hagar]}]]")

    def test_prepared_query_counts_one_scan_per_execute(self, populated):
        prepared = Session(database=populated).prepare(
            "[family: [family: {[name: $who, kids: K]}]]"
        )
        for who in ("abraham", "sarah", "nobody"):
            before = populated.access_stats
            answer = prepared.execute(who=who).all()
            assert moved(populated, before) == {"query_scans": 1}
            query = parse_formula(f"[family: [family: {{[name: {who}, kids: K]}}]]")
            assert answer == interpret(query, populated.as_object())

    def test_an_empty_database_is_the_empty_tuple(self):
        database = ObjectDatabase()
        query = parse_formula("[missing: X]")
        assert database.as_object() == parse_object("[]")
        assert ask(database, query) == interpret(query, parse_object("[]"))
        assert database.access_stats["query_scans"] == 1

    def test_the_retired_counters_stay_at_zero(self, populated):
        session = Session(database=populated)
        session.query("[obj3: [tag: {T}]]")
        session.query("[family: [family: {[name: nobody]}]]")
        session.explain("[obj1: [num: N]]")
        stats = populated.access_stats
        assert stats["query_root_pushdowns"] == 0
        assert stats["query_index_shortcircuits"] == 0
        assert stats["query_scans"] == 2


class TestAbsentAtoms:
    def test_absent_atom_answers_bottom(self, populated):
        before = populated.access_stats
        result = ask(populated, "[family: [family: {[name: nobody, kids: K]}]]")
        assert result is BOTTOM
        assert moved(populated, before) == {"query_scans": 1}

    def test_present_atom_answers(self, populated):
        result = ask(populated, "[family: [family: {[name: abraham, kids: K]}]]")
        assert not result.is_bottom

    def test_absent_atom_agrees_with_interpretation(self, populated):
        query = parse_formula("[family: [family: {[name: nobody]}]]")
        assert ask(populated, query) == interpret(query, populated.as_object())

    def test_top_at_a_path_dominates_any_atom(self, populated):
        populated.put("weird", parse_object("[family: {[name: top, kids: {x}]}]"))
        query = parse_formula("[weird: [family: {[name: anyname]}]]")
        # ⊤ dominates any name, so the query has an answer.
        assert ask(populated, query) == interpret(query, populated.as_object())
        assert not ask(populated, query).is_bottom


class TestFind:
    def test_find_counts_one_scan_and_agrees_with_the_sub_object_order(self, populated):
        pattern = parse_object("[tag: {t3}]")
        before = populated.access_stats
        names = populated.find(pattern)
        assert moved(populated, before) == {"find_scans": 1}
        assert names == [
            name for name in populated.names() if is_subobject(pattern, populated[name])
        ]
        assert names == [f"obj{position}" for position in (11, 15, 19, 3, 7)]

    def test_pattern_without_a_set_is_found(self, populated):
        assert populated.find(parse_object("[num: 7]")) == ["obj7"]

    def test_pattern_pinning_two_attributes(self, populated):
        assert populated.find(parse_object("[tag: {t3}, num: 7]")) == ["obj7"]

    def test_top_valued_attribute_matches_any_pattern(self, populated):
        populated.put("anything", parse_object("[tag: top]"))
        names = populated.find(parse_object("[tag: {t2}]"))
        assert "anything" in names

    def test_find_on_an_empty_database(self):
        database = ObjectDatabase()
        assert database.find(parse_object("[tag: {t1}]")) == []
        assert database.access_stats["find_scans"] == 1

    def test_find_sees_an_element_inserted_in_place(self, populated):
        pattern = parse_object("[tag: {t9}]")
        assert populated.find(pattern) == []
        populated.insert("obj7", "tag", "t9")
        assert populated.find(pattern) == ["obj7"]

    def test_bottom_pattern_matches_every_name(self, populated):
        assert populated.find(BOTTOM) == list(populated.names())

    def test_top_pattern_matches_only_top_objects(self, populated):
        populated.put("anything", parse_object("top"))
        assert populated.find(parse_object("top")) == ["anything"]

    def test_each_find_moves_the_scan_metric_by_one(self, populated):
        counter = REGISTRY.counter("store.index.find_scans")
        before = counter.value
        populated.find(parse_object("[num: 1]"))
        populated.find(parse_object("[num: 2]"))
        assert counter.value == before + 2

    def test_find_equals_the_scan(self, populated):
        names = populated.find(parse_object("[tag: {t1}]"))
        scan = [
            name
            for name in populated.names()
            if is_subobject(parse_object("[tag: {t1}]"), populated[name])
        ]
        assert names == scan


class TestClosingAStoredObject:
    """The store evaluates no rules; ``Session.close`` closes what it stores."""

    RULES = "[doa: {abraham}]. [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]."

    def make_db(self):
        from repro.workloads import make_genealogy

        database = ObjectDatabase()
        database.put("family_tree", make_genealogy(3, 2).family_object)
        return database

    def session(self):
        database = self.make_db()
        return Session(seed=database["family_tree"], rules=self.RULES), database

    def test_engine_and_oracle_agree(self):
        from repro import parse_program
        from repro.calculus.fixpoint import close

        session, database = self.session()
        result = session.close()
        assert result.converged
        assert result.value == close(database["family_tree"], parse_program(self.RULES)).value

    def test_oracle_only_keywords_are_not_sniffed(self):
        with pytest.raises(TypeError, match="inflationary"):
            self.session()[0].close(inflationary=True)
        with pytest.raises(TypeError, match="engine"):
            self.session()[0].close(engine=None)
