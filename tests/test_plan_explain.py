"""EXPLAIN coverage: Program.explain, the CLI flags and the store's explain."""

import io

from repro import Program, Session, parse_formula, parse_object
from repro.cli import main
from repro.store.database import ObjectDatabase
from repro.workloads import make_genealogy

DESCENDANTS = """
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
[names: {Y}] :- [family: {[name: Y]}].
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
        assert "root-attribute pushdown" in text
        assert "query plan:" in text


class TestStoreExplain:
    def test_explain_query_notes_the_access_path(self):
        database = ObjectDatabase()
        database.put("family", parse_object("[family: {[name: abraham]}]"))
        database.put("other", parse_object("[x: 1]"))
        text = database.explain_query(parse_formula("[family: [family: {[name: X]}]]"))
        assert "reads 1 of 2 stored objects" in text
        assert "query plan:" in text

    def test_explain_query_reports_index_shortcircuit(self):
        database = ObjectDatabase()
        database.put("family", parse_object("[family: {[name: abraham]}]"))
        database.create_index("family.name")
        text = database.explain_query(
            parse_formula("[family: [family: {[name: nobody, kids: K]}]]")
        )
        assert "index short-circuit" in text

    def test_explain_query_against_one_object(self):
        database = ObjectDatabase()
        database.put("family", parse_object("[family: {[name: abraham]}]"))
        text = database.explain_query(
            parse_formula("[family: {[name: X]}]"), against="family"
        )
        assert "stored object 'family'" in text
