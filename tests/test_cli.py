"""Unit tests for the command-line interface (repro.cli)."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    """Run the CLI capturing output; return (exit_code, output_text)."""
    buffer = io.StringIO()
    code = main(list(argv), output=buffer)
    return code, buffer.getvalue()


class TestParseCommand:
    def test_parse_compact(self):
        code, output = run_cli("parse", "[b: 2, a: 1]", "--compact")
        assert code == 0
        assert output.strip() == "[a: 1, b: 2]"

    def test_parse_pretty_round_trips(self):
        source = "{[name: peter, age: 25], [name: john, age: 7], [name: mary, age: 13]}"
        code, output = run_cli("parse", source)
        assert code == 0
        from repro import parse_object

        assert parse_object(output) == parse_object(source)

    def test_parse_error_reports_and_fails(self):
        code, output = run_cli("parse", "[a: ]")
        assert code == 1
        assert "error:" in output

    def test_hostile_nesting_is_one_error_line(self):
        deep = "[a: " * 3000 + "1" + "]" * 3000
        for argv in (("parse", deep), ("query", deep, "-d", "[a: 1]")):
            code, output = run_cli(*argv)
            assert code == 1
            assert output.splitlines() == [
                "error: input is nested 3000 levels deep, too deep to parse"
                " at line 1, column 11997"
            ]

    def test_printing_a_hostile_nesting_is_one_error_line(self):
        # 400 levels parse but cannot be rendered recursively.
        code, output = run_cli("parse", "[a: " * 400 + "1" + "]" * 400)
        assert code == 1
        assert output.splitlines() == [
            "error: object is nested 400 levels deep, too deep to print"
        ]

    def test_linting_a_hostile_rule_is_one_error_line(self, tmp_path):
        deep = "[a: " * 400 + "X" + "]" * 400
        path = tmp_path / "deep.co"
        path.write_text(f"{deep} :- {deep}.", encoding="utf-8")
        code, output = run_cli("lint", f"@{path}")
        assert code == 1
        assert output.splitlines() == [
            "error: formula is nested 400 levels deep, too deep to make a rule"
        ]

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "object.co"
        path.write_text("[name: peter]", encoding="utf-8")
        code, output = run_cli("parse", f"@{path}", "--compact")
        assert code == 0
        assert output.strip() == "[name: peter]"

    def test_missing_file_reports_error(self):
        code, output = run_cli("parse", "@/does/not/exist.co")
        assert code == 1
        assert "error:" in output


class TestQueryAndApply:
    DATABASE = "[r1: {[a: 1, b: x], [a: 2, b: y]}, r2: {[c: x, d: 10]}]"

    def test_query(self):
        code, output = run_cli("query", "[r1: {[a: X, b: x]}]", "--database", self.DATABASE)
        assert code == 0
        assert "[a: 1, b: x]" in output

    def test_query_literal_semantics_flag(self):
        code, output = run_cli(
            "query",
            "[r1: {[a: X, b: Y]}, r2: {[c: Y, d: D]}]",
            "--database",
            self.DATABASE,
            "--allow-bottom",
        )
        assert code == 0
        assert "[a: 2]" in output  # the literal reading keeps the stripped tuple

    def test_apply_rule(self):
        code, output = run_cli(
            "apply",
            "[r: {[a: X, d: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]",
            "--database",
            self.DATABASE,
        )
        assert code == 0
        assert "[a: 1, d: 10]" in output
        assert "[a: 2" not in output


class TestRunAndLint:
    PROGRAM = (
        "[doa: {abraham}].\n"
        "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].\n"
    )
    FAMILY = "[family: {[name: abraham, children: {[name: isaac]}], [name: isaac, children: {[name: jacob]}]}]"

    def test_run_program_with_query(self, tmp_path):
        program_file = tmp_path / "descendants.co"
        program_file.write_text(self.PROGRAM, encoding="utf-8")
        code, output = run_cli(
            "run", f"@{program_file}", "--database", self.FAMILY, "--query", "[doa: X]"
        )
        assert code == 0
        assert "closure reached" in output
        for name in ("abraham", "isaac", "jacob"):
            assert name in output

    def test_run_without_query_prints_closure(self):
        code, output = run_cli("run", self.PROGRAM, "--database", self.FAMILY)
        assert code == 0
        assert "family" in output and "doa" in output

    def test_run_divergent_program_fails_gracefully(self):
        code, output = run_cli(
            "run",
            "[list: {1}]. [list: {[head: 1, tail: X]}] :- [list: {X}].",
            "--max-iterations",
            "20",
        )
        assert code == 1
        assert "error:" in output

    def test_lint_flags_divergent_rules(self):
        code, output = run_cli(
            "lint", "[list: {1}]. [list: {[head: 1, tail: X]}] :- [list: {X}]."
        )
        assert code == 0
        assert "RL003" in output

    def test_lint_clean_program(self):
        code, output = run_cli("lint", self.PROGRAM)
        assert code == 0
        assert "RL003" not in output

    def test_removed_check_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("check", self.PROGRAM)
        assert info.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestEngineStats:
    PROGRAM = TestRunAndLint.PROGRAM
    FAMILY = TestRunAndLint.FAMILY

    def test_run_prints_the_oracle_closure(self):
        from repro import Program, parse_object
        from repro.calculus.fixpoint import close

        code, output = run_cli("run", self.PROGRAM, "--database", self.FAMILY)
        assert code == 0
        printed = "\n".join(l for l in output.splitlines() if not l.startswith("%"))
        program = Program.from_source(self.PROGRAM, database=parse_object(self.FAMILY))
        assert parse_object(printed) == close(program.seed(), program.rules).value

    def test_stats_line(self):
        code, output = run_cli(
            "run", self.PROGRAM, "--database", self.FAMILY, "--stats"
        )
        assert code == 0
        (line,) = [l for l in output.splitlines() if l.startswith("% engine")]
        assert line.startswith("% engine seminaive: ") and "strata" in line
        # --stats composes with --explain: the same line precedes the plan.
        code, explained = run_cli(
            "run", self.PROGRAM, "--database", self.FAMILY, "--stats", "--explain"
        )
        assert code == 0
        assert explained.splitlines()[0] == line

    def test_removed_engine_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("run", self.PROGRAM, "--engine", "naive")
        assert info.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestParameters:
    DATABASE = "[r1: {[name: peter, age: 25], [name: john, age: 7]}]"

    def test_query_with_param(self):
        code, output = run_cli(
            "query", "[r1: {[name: $who, age: A]}]", "--database", self.DATABASE,
            "--param", "who=peter",
        )
        assert code == 0
        assert "peter" in output and "john" not in output

    def test_query_with_repeated_params(self):
        code, output = run_cli(
            "query", "[r1: {[name: $who, age: $age]}]", "--database", self.DATABASE,
            "--param", "who=john", "--param", "age=7",
        )
        assert code == 0
        assert "john" in output

    def test_missing_param_is_a_one_line_error(self):
        code, output = run_cli(
            "query", "[r1: {[name: $who]}]", "--database", self.DATABASE
        )
        assert code == 1
        assert output.startswith("error:")
        assert "who" in output

    def test_malformed_param_option(self):
        code, output = run_cli(
            "query", "[r1: {[name: $who]}]", "--database", self.DATABASE,
            "--param", "who",
        )
        assert code == 1
        assert "name=value" in output

    def test_store_query_with_param(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        run_cli(
            "store", "--db-path", db_path, "put", "people",
            "{[name: peter, age: 25], [name: john, age: 7]}",
        )
        code, output = run_cli(
            "store", "--db-path", db_path, "query", "{[name: $who, age: A]}",
            "--against", "people", "--param", "who=peter",
        )
        assert code == 0
        assert "peter" in output and "john" not in output


class TestErrorSurface:
    """Every library failure: exit 1, one ``error:`` line, no traceback."""

    def assert_one_line_error(self, code, output):
        assert code == 1
        lines = [line for line in output.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "Traceback" not in output

    def test_parse_malformed_object(self):
        self.assert_one_line_error(*run_cli("parse", "[a: {1, ]"))

    def test_parse_variable_in_ground_object(self):
        self.assert_one_line_error(*run_cli("parse", "[a: X]"))

    def test_query_malformed_formula(self):
        self.assert_one_line_error(
            *run_cli("query", "[a: ", "--database", "[a: 1]")
        )

    def test_run_malformed_program(self):
        self.assert_one_line_error(*run_cli("run", "[doa: {abraham}] :-"))

    def test_run_divergent_program(self):
        code, output = run_cli(
            "run",
            "[list: {1}]. [list: {[head: 1, tail: X]}] :- [list: {X}].",
            "--max-iterations", "10",
        )
        self.assert_one_line_error(code, output)

    def test_store_malformed_object(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        self.assert_one_line_error(
            *run_cli("store", "--db-path", db_path, "put", "x", "[a: }")
        )

    def test_store_query_malformed_formula(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        self.assert_one_line_error(
            *run_cli("store", "--db-path", db_path, "query", "{[name: ]}")
        )

    def test_store_missing_name_error(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        self.assert_one_line_error(
            *run_cli("store", "--db-path", db_path, "get", "ghost")
        )

    def test_malformed_fault_environment_in_a_fresh_process(self, tmp_path):
        # The injector arms when the store is first imported, which happens
        # inside the subcommand: the bad point is reported like any error.
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "store", "--db-path", str(tmp_path / "db.wal"),
             "names"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "REPRO_FAULTS": "store.wal.fsnc:fail"},
        )
        self.assert_one_line_error(completed.returncode, completed.stdout + completed.stderr)
        assert "'store.wal.fsnc'" in completed.stdout


class TestStoreCommand:
    def test_put_get_round_trip(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        code, output = run_cli(
            "store", "--db-path", db_path, "put", "family",
            "[family: {[name: abraham]}]",
        )
        assert code == 0
        assert "stored 'family'" in output
        code, output = run_cli(
            "store", "--db-path", db_path, "get", "family", "--compact"
        )
        assert code == 0
        assert output.strip() == "[family: {[name: abraham]}]"

    def test_durability_across_invocations(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        run_cli("store", "--db-path", db_path, "put", "a", "1")
        run_cli("store", "--db-path", db_path, "put", "b", "2")
        run_cli("store", "--db-path", db_path, "delete", "a")
        code, output = run_cli("store", "--db-path", db_path, "names")
        assert code == 0
        assert output.split() == ["b"]

    def test_query_against_stored_object(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        run_cli(
            "store", "--db-path", db_path, "put", "people",
            "{[name: peter, age: 25], [name: john, age: 7]}",
        )
        code, output = run_cli(
            "store", "--db-path", db_path, "query", "{[name: X, age: 25]}",
            "--against", "people",
        )
        assert code == 0
        assert "peter" in output
        assert "john" not in output

    def test_compact_rewrites_the_log(self, tmp_path):
        import os

        db_path = str(tmp_path / "db.wal")
        for version in range(10):
            run_cli("store", "--db-path", db_path, "put", "x", str(version))
        size_before = os.path.getsize(db_path)
        code, output = run_cli("store", "--db-path", db_path, "compact")
        assert code == 0
        assert os.path.getsize(db_path) < size_before
        code, output = run_cli("store", "--db-path", db_path, "get", "x", "--compact")
        assert output.strip() == "9"

    def test_get_missing_name_is_an_error(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        code, output = run_cli("store", "--db-path", db_path, "get", "ghost")
        assert code == 1
        assert "error:" in output

    def test_put_without_value_is_an_error(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        code, output = run_cli("store", "--db-path", db_path, "put", "x")
        assert code == 1
        assert "error:" in output


class TestStoreVerify:
    """``store verify``: offline WAL integrity checking."""

    @staticmethod
    def _report(output):
        import json

        return json.loads(output)

    def test_clean_log_verifies_with_exit_zero(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        run_cli("store", "--db-path", db_path, "put", "x", "[name: peter]")
        code, output = run_cli("store", "--db-path", db_path, "verify")
        assert code == 0
        report = self._report(output)
        assert report["clean"] is True
        assert report["commits"] == 1
        assert report["objects"] == 1

    def test_report_counts_records_carrying_images_and_edits(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        run_cli("store", "--db-path", db_path, "put", "n", "{1, 2, 3, 4, 5, 6}")
        run_cli("store", "--db-path", db_path, "put", "n", "{1, 2, 3, 4, 5, 6, 7}")
        run_cli("store", "--db-path", db_path, "put", "other", "[a: 1]")
        code, output = run_cli("store", "--db-path", db_path, "verify")
        report = self._report(output)
        assert code == 0 and report["clean"] is True
        assert (report["records"], report["images"], report["edits"]) == (3, 2, 1)
        assert report["objects"] == 2
        run_cli("store", "--db-path", db_path, "compact")
        report = self._report(run_cli("store", "--db-path", db_path, "verify")[1])
        assert (report["records"], report["images"], report["edits"]) == (2, 2, 0)

    def test_absent_log_is_a_clean_empty_store(self, tmp_path):
        code, output = run_cli(
            "store", "--db-path", str(tmp_path / "missing.wal"), "verify"
        )
        assert code == 0
        report = self._report(output)
        assert report["exists"] is False
        assert report["clean"] is True

    def test_torn_tail_exits_one_without_repairing(self, tmp_path):
        import os

        db_path = str(tmp_path / "db.wal")
        run_cli("store", "--db-path", db_path, "put", "x", "[name: peter]")
        with open(db_path, "a", encoding="utf-8") as handle:
            handle.write('{"op":"commit","writes"')
        size = os.path.getsize(db_path)
        code, output = run_cli("store", "--db-path", db_path, "verify")
        assert code == 1
        report = self._report(output)
        assert report["clean"] is False
        assert report["torn_tail_bytes"] > 0
        assert report["commits"] == 1
        # Read-only: verify must never truncate what recovery would.
        assert os.path.getsize(db_path) == size

    def test_corrupt_record_is_located_and_reported(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        run_cli("store", "--db-path", db_path, "put", "x", "[name: peter]")
        run_cli("store", "--db-path", db_path, "put", "y", "[name: john]")
        with open(db_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = lines[1].replace('"commit"', '"COMMIT"')
        with open(db_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        code, output = run_cli("store", "--db-path", db_path, "verify")
        assert code == 1
        report = self._report(output)
        assert report["records"] == 1
        assert report["corrupt_records"][0]["line"] == 2
        assert "checksum" in report["corrupt_records"][0]["error"]

    def test_quarantine_sidecar_is_surfaced(self, tmp_path):
        db_path = str(tmp_path / "db.wal")
        run_cli("store", "--db-path", db_path, "put", "x", "[name: peter]")
        run_cli("store", "--db-path", db_path, "put", "y", "[name: john]")
        with open(db_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = lines[1].replace('"commit"', '"COMMIT"')
        with open(db_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        # Any mutating open quarantines the damage; verify then reports the
        # sidecar as damage-to-investigate even though the log is intact.
        run_cli("store", "--db-path", db_path, "names")
        code, output = run_cli("store", "--db-path", db_path, "verify")
        assert code == 1
        report = self._report(output)
        assert report["corrupt_records"] == []
        assert report["quarantine"]["present"] is True
        assert report["quarantine"]["bytes"] > 0


class TestLintCommand:
    DIVERGING = "[list: {[head: 1, tail: X]}] :- [list: {X}]."
    CLEAN = (
        "[anc: {[of: X, is: Y]}] :- [parent: {[of: X, is: Y]}].\n"
        "[anc: {[of: X, is: Z]}] :-"
        " [anc: {[of: X, is: Y]}, parent: {[of: Y, is: Z]}].\n"
    )

    def test_clean_program_exits_zero(self):
        code, output = run_cli("lint", self.CLEAN)
        assert code == 0
        assert "0 error(s), 0 warning(s)" in output
        assert "strata" in output

    def test_warnings_exit_zero_by_default(self):
        code, output = run_cli("lint", self.DIVERGING)
        assert code == 0
        assert "RL003" in output

    def test_strict_turns_warnings_into_failure(self):
        code, output = run_cli("lint", self.DIVERGING, "--strict")
        assert code == 1
        assert "RL003" in output

    def test_errors_always_fail(self):
        code, output = run_cli("lint", "[a: {top}] :- [b: {X, X}].")
        assert code == 1
        assert "RL103" in output

    def test_json_format(self):
        import json

        code, output = run_cli("lint", self.DIVERGING, "--format", "json")
        assert code == 0
        document = json.loads(output)
        assert document["schema"] == "repro-lint/v1"
        assert document["summary"]["by_code"] == {"RL003": 1}

    def test_suppress_by_code(self):
        code, output = run_cli(
            "lint", self.DIVERGING, "--strict", "--suppress", "RL003"
        )
        assert code == 0
        assert "RL003" not in output

    def test_suppress_by_clause(self):
        source = self.DIVERGING + "\n" + self.DIVERGING.replace("list", "cons")
        code, output = run_cli(
            "lint", source, "--strict", "--suppress", "1:RL003"
        )
        assert code == 1  # clause 2 still warns
        assert "cons" in output

    def test_program_from_file(self, tmp_path):
        path = tmp_path / "program.co"
        path.write_text(self.CLEAN, encoding="utf-8")
        code, output = run_cli("lint", f"@{path}")
        assert code == 0

    def test_query_enables_dead_rule_analysis(self):
        source = self.CLEAN + "[island: {X}] :- [nowhere: {X}].\n"
        code, output = run_cli(
            "lint", source, "--query", "[anc: {[of: a, is: W]}]", "--strict"
        )
        assert code == 1
        assert "RL005" in output

    def test_db_path_statistics_enable_rl303(self, tmp_path):
        db = tmp_path / "store.wal"
        code, _ = run_cli("store", "put", "xs", "{1, 2, 3}", "--db-path", str(db))
        assert code == 0
        source = "[out: {X}] :- [nowhere: {X}]."
        code, output = run_cli("lint", source, "--db-path", str(db), "--strict")
        assert code == 1
        assert "RL303" in output
        code, output = run_cli("lint", "[out: {X}] :- [xs: {X}].", "--db-path", str(db))
        assert code == 0
