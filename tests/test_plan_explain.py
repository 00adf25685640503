"""EXPLAIN coverage: Program.explain, the CLI flags and Session/Cursor.explain."""

import io

import pytest

from repro import (
    BOTTOM,
    TOP,
    Program,
    SemiNaiveEngine,
    Session,
    interpret,
    parse_formula,
    parse_object,
)
from repro.cli import main
from repro.plan.explain import execution_record, render_body_plan, render_program_plan
from repro.store.database import ObjectDatabase
from repro.workloads import make_genealogy

DESCENDANTS = """
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
[names: {Y}] :- [family: {[name: Y]}].
"""

ANCESTORS = """
[parent: {[of: a, is: b], [of: b, is: c]}].
[anc: {[of: X, is: Y]}] :- [parent: {[of: X, is: Y]}].
[anc: {[of: X, is: Z]}] :- [anc: {[of: X, is: Y]}, parent: {[of: Y, is: Z]}].
"""


class TestProgramExplain:
    def test_explain_renders_strata_estimates_and_actuals(self):
        tree = make_genealogy(3, 2)
        program = Program.from_source(DESCENDANTS, database=tree.family_object)
        text = program.explain()
        assert "program plan:" in text
        assert "fixpoint" in text and "apply once" in text
        assert "est " in text and "actual " in text
        assert "substitutions (actual)" in text
        # The optimizer's access paths are visible.
        assert "index name=$Y" in text

    def test_explain_without_analyze_shows_estimates_only(self):
        tree = make_genealogy(2, 2)
        program = Program.from_source(DESCENDANTS, database=tree.family_object)
        text = program.explain(analyze=False)
        assert "est " in text
        assert "actual " not in text

    def test_explain_with_query_appends_the_query_plan(self):
        tree = make_genealogy(2, 2)
        program = Program.from_source(DESCENDANTS, database=tree.family_object)
        text = program.explain(parse_formula("[doa: X]"))
        assert "query plan:" in text
        assert "[doa: X]" in text

    def test_rule_section_renders_the_engines_own_plans(self):
        # Example 4.5 over a generated family tree.
        program = Program.from_source(DESCENDANTS, database=make_genealogy(3, 2).family_object)
        engine = SemiNaiveEngine(program.rules)
        expected = render_program_plan(engine.graph.strata(), engine.plan(program.seed()))
        assert program.explain(analyze=False) == expected

    def test_query_source_text_is_parsed(self):
        program = Program.from_source(ANCESTORS)
        text = program.explain("[anc: {[of: a, is: W]}]", analyze=False)
        assert text == program.explain(parse_formula("[anc: {[of: a, is: W]}]"), analyze=False)
        assert "query plan: [anc: {[is: W, of: a]}]" in text
        assert "pruned" not in text
        # Planned and run against the closure, where the query has its 2 rows.
        assert text.endswith("=> 2 substitutions (actual)")

    def test_query_section_is_the_sessions_explain_on_the_closure(self):
        program = Program.from_source(ANCESTORS)
        text = program.explain("[anc: {[of: a, is: W]}]", analyze=False)
        session_text = Session.over_program(program).explain(
            "[anc: {[of: a, is: W]}]", on_closure=True
        )
        assert text.endswith("\n" + session_text)

    def test_explain_forwards_guards(self):
        import pytest
        from repro.core.errors import DivergenceError

        tree = make_genealogy(2, 2)
        program = Program.from_source(DESCENDANTS, database=tree.family_object)
        assert "program plan:" in program.explain(max_iterations=50)
        with pytest.raises(DivergenceError):
            program.explain(max_iterations=1)

    def test_query_routes_through_plans_and_agrees_with_interpret(self):
        from repro.calculus.interpretation import interpret

        tree = make_genealogy(3, 2)
        program = Program.from_source(DESCENDANTS, database=tree.family_object)
        answer = Session.over_program(program).query(
            parse_formula("[doa: X]"), on_closure=True
        )
        closure = program.evaluate()
        assert answer == interpret(parse_formula("[doa: X]"), closure.value)


class TestCliExplain:
    def run_cli(self, *argv):
        stream = io.StringIO()
        code = main(list(argv), output=stream)
        return code, stream.getvalue()

    def test_query_explain(self):
        code, text = self.run_cli(
            "query",
            "--database",
            "[r1: {[a: 1, b: x]}, r2: {[c: x, d: 9]}]",
            "[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]",
            "--explain",
        )
        assert code == 0
        assert "query plan:" in text
        assert "cost-ordered" in text
        assert "actual" in text

    def test_run_explain(self, tmp_path):
        program_file = tmp_path / "prog.co"
        program_file.write_text(DESCENDANTS)
        code, text = self.run_cli(
            "run",
            f"@{program_file}",
            "--database",
            "[family: {[name: abraham, children: {[name: isaac]}]}]",
            "--explain",
        )
        assert code == 0
        assert "program plan:" in text
        assert "fixpoint" in text
        # EXPLAIN replaces the closure output.
        assert "closure reached" not in text

    def test_store_query_explain(self, tmp_path):
        db_path = str(tmp_path / "store.wal")
        code, _ = self.run_cli(
            "store", "--db-path", db_path, "put", "family",
            "[family: {[name: abraham]}]",
        )
        assert code == 0
        code, text = self.run_cli(
            "store", "--db-path", db_path, "query",
            "[family: [family: {[name: X]}]]", "--explain",
        )
        assert code == 0
        assert "target: whole database (1 stored objects)" in text.splitlines()
        assert "query plan:" in text


class TestStoreExplain:
    """The store-backed session's EXPLAIN: one target line, then the plan."""

    def test_explain_prints_one_target_line(self):
        database = ObjectDatabase()
        database.put("family", parse_object("[family: {[name: abraham]}]"))
        database.put("other", parse_object("[x: 1]"))
        lines = Session(database=database).explain("[family: [family: {[name: X]}]]").splitlines()
        assert lines[0] == "target: whole database (2 stored objects)"
        assert lines[1].startswith("query plan:")

    def test_explain_of_an_absent_atom_runs_the_plan(self):
        database = ObjectDatabase()
        database.put("family", parse_object("[family: {[name: abraham]}]"))
        text = Session(database=database).explain(
            "[family: [family: {[name: nobody, kids: K]}]]"
        )
        assert text.splitlines()[0] == "target: whole database (1 stored objects)"
        assert "=> 0 substitutions (actual)" in text

    def test_the_target_line_counts_the_committed_objects(self):
        database = ObjectDatabase()
        session = Session(database=database)
        query = "[family: [family: {[name: X]}]]"
        assert session.explain(query).splitlines()[0] == (
            "target: whole database (0 stored objects)"
        )
        database.put("family", parse_object("[family: {[name: abraham]}]"))
        database.put("other", parse_object("[x: 1]"))
        database.remove("other")
        assert session.explain(query).splitlines()[0] == (
            "target: whole database (1 stored objects)"
        )

    def test_explain_analyze_prints_the_same_target_line(self):
        database = ObjectDatabase()
        database.put("family", parse_object("[family: {[name: abraham]}]"))
        session = Session(database=database)
        query = "[family: [family: {[name: X]}]]"
        analyzed = session.explain(query, analyze=True).splitlines()
        assert analyzed[0] == session.explain(query).splitlines()[0]
        assert analyzed[1].startswith("query plan:")
        assert database.access_stats["query_scans"] == 0

    def test_explain_against_one_object(self):
        database = ObjectDatabase()
        database.put("family", parse_object("[family: {[name: abraham]}]"))
        text = Session(database=database).explain(
            "[family: {[name: X]}]", against="family"
        )
        assert "stored object 'family'" in text


def _plan_section(text):
    """An EXPLAIN rendering without its access-path notes."""
    lines = text.splitlines()
    return "\n".join(lines[next(i for i, l in enumerate(lines) if l.startswith("query plan:")):])


def _store_session():
    session = Session()
    session.put("r1", parse_object("{[name: peter, age: 25], [name: mary, age: 2]}"))
    session.put("r2", parse_object("{[who: peter, town: paris]}"))
    return session


def _top_session():
    session = _store_session()
    session.put("everything", TOP)
    return session


def _closure_session():
    return Session.over_program(
        Program.from_source(DESCENDANTS, database=make_genealogy(2, 2).family_object)
    )


def _seeded_session():
    return Session.over_object(
        parse_object("[r1: {[name: peter, age: 25], [name: mary, age: 2]}]")
    )


#: The target line of the store sessions' EXPLAIN (``_top_session`` stores one more).
_WHOLE = "target: whole database (2 stored objects)"

#: One query per resolution mode: (session factory, query, params, options,
#: the target note EXPLAIN must print, or None when the mode has none).
MODES = {
    "db": (_store_session, "[r1: {[name: X, age: 2]}]", {}, {}, _WHOLE),
    "db-param": (_store_session, "[r1: {[name: $who, age: A]}]", {"who": "mary"}, {}, _WHOLE),
    "db-join": (
        _store_session, "[r1: {[name: X, age: A]}, r2: {[who: X, town: T]}]", {}, {}, _WHOLE,
    ),
    "db-top": (
        _top_session, "[r1: {[name: X]}]", {}, {}, "target: whole database (3 stored objects)",
    ),
    "db-shape": (_store_session, "X", {}, {}, _WHOLE),
    "db-absent": (_store_session, "[r1: {[name: nobody, age: A]}]", {}, {}, _WHOLE),
    "db-absent-param": (
        _store_session, "[r1: {[name: $who, age: A]}]", {"who": "nobody"}, {}, _WHOLE,
    ),
    "against": (
        _store_session, "{[name: X, age: A]}", {}, {"against": "r1"}, "stored object 'r1'",
    ),
    "against-param": (
        _store_session, "{[name: $who, age: A]}", {"who": "peter"}, {"against": "r1"},
        "stored object 'r1'",
    ),
    "closure": (_closure_session, "[doa: {X}]", {}, {"on_closure": True}, None),
    "closure-param": (
        _closure_session, "[doa: {$who}]", {"who": "abraham"}, {"on_closure": True}, None,
    ),
    "seeded": (_seeded_session, "[r1: {[name: X, age: 2]}]", {}, {}, None),
    "seeded-param": (_seeded_session, "[r1: {[name: $who]}]", {"who": "mary"}, {}, None),
    "seeded-pruned": (_seeded_session, "[r1: {[town: T]}]", {}, {}, None),
    "seeded-literal": (
        _seeded_session, "[r1: {[town: T]}]", {}, {"allow_bottom": True}, None,
    ),
}


@pytest.mark.parametrize("mode", sorted(MODES))
class TestExplainRendersThePlanThatRuns:
    """Execute and EXPLAIN share one resolve-and-plan step (and its cache)."""

    def test_explain_is_the_rendering_of_the_cursors_plan(self, mode):
        make, query, params, options, note = MODES[mode]
        session = make()
        cursor = session.execute(query, params, **options)
        misses = session.cache_info()["plan_misses"]
        text = session.explain(query, params, **options)
        assert session.cache_info()["plan_misses"] == misses
        record = execution_record(
            cursor._plan,
            cursor._target,
            indexes=cursor._indexes,
            allow_bottom=options.get("allow_bottom", False),
        )
        assert _plan_section(text) == render_body_plan(
            cursor._plan,
            record=record,
            header=f"query plan: {cursor._plan.body.to_text()}",
        )
        if note is None:
            assert text == _plan_section(text)
        else:
            assert note in text.splitlines()[0]
        assert cursor.explain() == text
        # ... and the plan EXPLAIN describes computes the oracle's answer.
        assert cursor.all() == interpret(
            cursor._plan.body, cursor._target, allow_bottom=options.get("allow_bottom", False)
        )

    def test_explain_first_then_execute_hits_the_plan_it_cached(self, mode):
        make, query, params, options, _ = MODES[mode]
        session = make()
        text = session.explain(query, params, **options)
        misses = session.cache_info()["plan_misses"]
        cursor = session.execute(query, params, **options)
        assert session.cache_info()["plan_misses"] == misses
        assert cursor.explain() == text


class TestSetElementSpellings:
    """``{X, Y}`` and ``{Y, X}`` are two formulae: neither borrows the other's plan or matcher."""

    def test_a_reordered_set_formula_gets_its_own_plan_and_matcher(self):
        from repro.plan.compile import compile_element_matcher

        session = Session(seed=parse_object("[r: {1, 2}]"))
        session.query("[r: {X, Y}]")
        misses = session.cache_info()["plan_misses"]
        text = session.explain("[r: {Y, X}]")
        assert text.splitlines()[0] == "query plan: [r: {Y, X}]"
        assert session.cache_info()["plan_misses"] == misses + 1
        assert compile_element_matcher(parse_formula("{X, Y}"))[0] == ("X", "Y")
        assert compile_element_matcher(parse_formula("{Y, X}"))[0] == ("Y", "X")


class TestExplainShowsTheActualAccess:
    """Each scan leaf prints what the run examined beside the estimate."""

    QUERY = "[r1: {[name: $who, age: A]}]"

    def test_a_bound_parameter_is_probed_and_an_unkeyed_leaf_scanned(self):
        session = _store_session()
        text = session.explain(self.QUERY, {"who": "mary"})
        assert "via index name=$who (param), actual 1, probed name → 1 candidates" in text
        assert "scanned" not in text
        assert "scanned 2" in session.explain("[r1: {[name: X, age: A]}]")

    def test_a_join_variable_is_probed_once_per_distinct_key(self):
        session = _store_session()
        session.put("r2", parse_object("{[who: peter, town: paris], [who: mary, town: rome]}"))
        text = session.explain("[r1: {[name: X, age: A]}, r2: {[who: X, town: T]}]")
        assert "probed who → 2 candidates in 2 probes" in text

    def test_a_non_atom_parameter_and_the_literal_semantics_scan(self):
        session = _store_session()
        assert "scanned 2" in session.explain(self.QUERY, {"who": [1, 2]})
        literal = session.explain(self.QUERY, {"who": "mary"}, allow_bottom=True)
        assert "scanned 2" in literal and "probed" not in literal
        # Planning may build a table for its estimates; nothing probes it.
        session.execute(self.QUERY, {"who": "mary"}, allow_bottom=True).all()
        assert session.stats()["query"].index_hits == 0

    def test_explain_runs_what_the_cursor_runs(self):
        session = _store_session()
        cursor = session.execute(self.QUERY, {"who": "mary"})
        assert "probed name → 1 candidates" in cursor.explain()
        cursor.all()
        stats = session.stats()["query"]
        assert (stats.match_attempts, stats.index_hits) == (1, 1)


class TestCursorExplainIsStable:
    def test_cursor_explain_survives_a_commit_that_changes_the_answer(self):
        session = _store_session()
        query = "[r1: {[name: X, age: A]}]"
        cursor = session.execute(query)
        before = cursor.explain()
        assert "=> 2 substitutions (actual)" in before
        session.put("r1", parse_object("{[name: peter, age: 25]}"))
        assert cursor.explain() == before
        # The cursor also still streams the answer it was resolved to ...
        assert len(list(cursor)) == 2
        # ... while a fresh EXPLAIN describes the store as it is now.
        assert "=> 1 substitutions (actual)" in session.explain(query)

    def test_empty_cursor_explain_survives_a_commit_that_fills_it(self):
        session = _store_session()
        cursor = session.execute("[r1: {[name: nobody, age: A]}]")
        before = cursor.explain()
        session.put("r1", parse_object("{[name: nobody, age: 1]}"))
        assert cursor.explain() == before
        assert cursor.all() is BOTTOM


class TestAccessStatsCountExecutions:
    @pytest.mark.parametrize(
        "mode", ["db", "db-param", "db-top", "db-shape", "db-absent", "db-absent-param"]
    )
    def test_explain_counts_nothing_and_execute_counts_one(self, mode):
        make, query, params, options, _ = MODES[mode]
        session = make()
        start = session.database.access_stats
        session.explain(query, params, **options)
        session.explain(query, params, analyze=True, **options)
        assert session.database.access_stats == start
        cursor = session.execute(query, params, **options)
        cursor.explain()
        cursor.all()
        moved = session.database.access_stats
        assert moved["query_scans"] == start["query_scans"] + 1
        assert sum(moved.values()) == sum(start.values()) + 1

    def test_targets_outside_the_store_decision_count_nothing(self):
        session = _store_session()
        start = session.database.access_stats
        session.query("{[name: X]}", against="r1")
        assert session.database.access_stats == start
