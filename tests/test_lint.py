"""Unit tests for the whole-program static analyzer (repro.lint)."""

import json

import pytest

from repro import Program, parse_formula, parse_program, parse_rule
from repro.calculus.rules import Rule
from repro.calculus.terms import (
    Constant,
    Parameter,
    SetFormula,
    TupleFormula,
    formula,
    var,
)
from repro.core import BOTTOM, TOP
from repro.core.errors import NestingError
from repro.lint import (
    CODES,
    Diagnostic,
    LintReport,
    check_containment,
    lint_query,
    lint_rules,
    lint_source,
)
from repro.lint.graph import variable_depths
from repro.obs import metrics


def codes_of(report, rule_index=None):
    return sorted(
        d.code
        for d in report.diagnostics
        if rule_index is None or d.rule_index == rule_index
    )


class TestCodeRegistry:
    def test_codes_are_stable(self):
        assert sorted(CODES) == [
            "RL001", "RL002", "RL003", "RL004", "RL005",
            "RL101", "RL102", "RL103", "RL104", "RL105",
            "RL201", "RL202", "RL203", "RL204",
            "RL301", "RL302", "RL303", "RL304",
        ]

    def test_every_code_has_severity_and_hint(self):
        for info in CODES.values():
            assert info.severity in ("error", "warning", "info")
            assert info.title and info.hint


class TestContainment:
    def test_rl001_for_unbound_head_variable(self):
        findings = check_containment("[out: {X, Y}]", "[in: {X}]")
        assert [d.code for d in findings] == ["RL001"]
        assert findings[0].is_error
        assert findings[0].formula == "Y"

    def test_rl001_severity_and_hint_come_from_the_registry(self):
        [finding] = check_containment("[out: {X, Y}]", "[in: {X}]")
        assert finding.severity == CODES["RL001"].severity
        assert finding.hint == CODES["RL001"].hint
        assert finding.message == "head variable Y does not occur in the body"

    def test_clean_pair_has_no_findings(self):
        assert check_containment("[out: {X}]", "[in: {X}]") == []

    def test_admitted_rules_never_trip_rl001(self):
        report = lint_source("[out: {X}] :- [in: {X}].")
        assert "RL001" not in codes_of(report)


class TestDivergence:
    def test_rl003_on_example_4_6(self):
        report = lint_source("[list: {[head: 1, tail: X]}] :- [list: {X}].")
        assert codes_of(report) == ["RL003"]
        (diagnostic,) = report.diagnostics
        assert diagnostic.is_warning
        assert diagnostic.rule_index == 1
        assert diagnostic.line == 1

    def test_rl002_on_non_recursive_restructuring(self):
        report = lint_source("[out: {[wrapped: {X}]}] :- [r1: {X}].")
        assert codes_of(report) == ["RL002"]
        assert report.diagnostics[0].severity == "info"

    def test_safe_recursion_is_clean(self):
        # Example 4.5: recursive but not structure-growing.
        report = lint_source(
            "[doa: {X}] :-"
            " [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]."
        )
        assert "RL003" not in codes_of(report)
        assert "RL002" not in codes_of(report)


    def test_facts_and_plain_joins_are_clean(self):
        report = lint_source(
            "[doa: {abraham}].\n"
            "[r: {[a: X, d: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]."
        )
        assert not {"RL002", "RL003"} & set(codes_of(report))


class TestLocation:
    def test_every_pass_locates_a_clause_alike(self):
        # RL003 / RL002 come from the graph pass, RL202 from shapes, RL101
        # from the formula pass and RL301 from the plan pass.
        source = (
            "[doa: {abraham}].\n"
            "  [list: {[head: 1, tail: X]}] :- [list: {X}].\n"
            "    [out: {X}] :- [r: {X}, s: {Y}].\n"
            "      [big: {[w: {X}]}] :- [r: {X}].\n"
        )
        rules = parse_program(source)
        report = lint_source(source)
        located = sorted((d.code, d.rule_index, d.line, d.column) for d in report.diagnostics)
        assert located == [
            ("RL002", 4, 4, 7), ("RL003", 2, 2, 3), ("RL101", 3, 3, 5),
            ("RL202", 2, 2, 3), ("RL301", 3, 3, 5),
        ]
        for diagnostic in report.diagnostics:
            assert diagnostic.rule == rules[diagnostic.rule_index - 1].to_text()


class TestVariableDepths:
    """The nesting-depth measure behind the RL002/RL003 growth test."""

    def test_flat_variable(self):
        assert variable_depths(var("X")) == {"X": 0}

    def test_nesting_levels_counted(self):
        depths = variable_depths(formula({"r": [{"a": var("X")}], "s": var("Y")}))
        assert depths == {"X": 3, "Y": 1}

    def test_deepest_occurrence_wins(self):
        depths = variable_depths(formula({"a": var("X"), "b": [var("X")]}))
        assert depths["X"] == 2

    def test_constants_contribute_nothing(self):
        assert variable_depths(formula({"a": 1, "b": [2, 3]})) == {}


class TestDuplicatesAndDeadRules:
    PROGRAM = (
        "[anc: {[of: X, is: Y]}] :- [parent: {[of: X, is: Y]}].\n"
        "[anc: {[of: X, is: Y]}] :- [parent: {[of: X, is: Y]}].\n"
        "[unrelated: {X}] :- [island: {X}].\n"
    )

    def test_rl004_names_the_original(self):
        report = lint_source(self.PROGRAM)
        duplicates = [d for d in report.diagnostics if d.code == "RL004"]
        assert len(duplicates) == 1
        assert duplicates[0].rule_index == 2
        assert "rule 1" in duplicates[0].message

    def test_rl005_needs_a_query(self):
        without = lint_source(self.PROGRAM)
        assert "RL005" not in codes_of(without)
        with_query = lint_source(
            self.PROGRAM, query=parse_formula("[anc: {[of: a, is: W]}]")
        )
        dead = [d for d in with_query.diagnostics if d.code == "RL005"]
        assert [d.rule_index for d in dead] == [3]

    def test_transitively_reachable_rules_stay_alive(self):
        report = lint_source(
            "[a_r: {X}] :- [b_r: {X}].\n"
            "[b_r: {X}] :- [c_r: {X}].\n",
            query=parse_formula("[a_r: {W}]"),
        )
        assert "RL005" not in codes_of(report)


class TestFormulaLevel:
    def test_rl101_single_use_variable(self):
        report = lint_source("[out: {X}] :- [in: {X, Lonely}].")
        findings = [d for d in report.diagnostics if d.code == "RL101"]
        assert [d.formula for d in findings] == ["Lonely"]

    def test_rl101_skips_underscore_wildcards(self):
        report = lint_source("[out: {X}] :- [in: {X, _Ignored}].")
        assert "RL101" not in codes_of(report)

    def test_rl102_parameter_in_rule(self):
        rule = Rule(
            TupleFormula({"out": SetFormula((var("X"),))}),
            TupleFormula({"inp": SetFormula((var("X"),)), "key": Parameter("q")}),
        )
        report = lint_rules([rule])
        findings = [d for d in report.diagnostics if d.code == "RL102"]
        assert len(findings) == 1
        assert findings[0].is_error
        assert findings[0].formula == "$q"

    def test_rl103_top_literal(self):
        report = lint_source("[a: {top}] :- [b: {X, X}].")
        assert "RL103" in codes_of(report)
        assert not report.ok()

    def test_rl104_vacuous_bottom(self):
        report = lint_source("[a: {X}] :- [b: {X}, c: bottom].")
        assert "RL104" in codes_of(report)

    def test_rl105_empty_set_element(self):
        report = lint_source("[a: {X}] :- [b: {X, {}}].")
        assert "RL105" in codes_of(report)


class TestPlanLevel:
    def test_rl301_cross_product(self):
        report = lint_source("[pairs: {[l: X, r: Y]}] :- [xs: {X}, ys: {Y}].")
        assert "RL301" in codes_of(report)

    def test_shared_variable_join_is_clean(self):
        report = lint_source(
            "[r: {[a: X, d: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]."
        )
        assert "RL301" not in codes_of(report)

    def test_rl303_needs_statistics(self):
        from repro import parse_object
        from repro.plan.statistics import DatabaseStatistics

        statistics = DatabaseStatistics.collect(parse_object("[xs: {1, 2}]"))
        rules = parse_program("[out: {X}] :- [nothing_here: {X}].")
        without = lint_rules(rules)
        assert "RL303" not in codes_of(without)
        with_stats = lint_rules(rules, statistics=statistics)
        assert "RL303" in codes_of(with_stats)

    def test_rl303_spares_derived_paths(self):
        from repro import parse_object
        from repro.plan.statistics import DatabaseStatistics

        statistics = DatabaseStatistics.collect(parse_object("[xs: {1, 2}]"))
        rules = parse_program(
            "[derived: {X}] :- [xs: {X}].\n"
            "[out: {X}] :- [derived: {X}].\n"
        )
        report = lint_rules(rules, statistics=statistics)
        assert "RL303" not in codes_of(report)


class TestProgramFacade:
    def test_program_lint_uses_seed_statistics(self):
        program = Program.from_source(
            "[xs: {1, 2, 3}].\n"
            "[out: {X}] :- [nowhere: {X}].\n"
        )
        report = program.lint()
        assert "RL303" in codes_of(report)
        offline = lint_rules(list(program.facts) + list(program.rules))
        assert "RL303" not in codes_of(offline)

    def test_strata_are_reported(self):
        program = Program.from_source(
            "[anc: {[of: X, is: Y]}] :- [parent: {[of: X, is: Y]}].\n"
            "[anc: {[of: X, is: Z]}] :-"
            " [anc: {[of: X, is: Y]}, parent: {[of: Y, is: Z]}].\n"
        )
        report = lint_rules(list(program.facts) + list(program.rules))
        assert any(stratum["recursive"] for stratum in report.strata)
        flattened = sorted(i for s in report.strata for i in s["rules"])
        assert flattened == [1, 2]

    def test_a_rule_too_deep_to_analyse_is_one_nesting_error(self):
        deep = parse_formula("[a: " * 400 + "X" + "]" * 400)
        with pytest.raises(NestingError, match="nested 400 levels deep, too deep to make a rule$"):
            lint_rules([Rule(deep, deep)])
        for lint in (lambda: lint_rules([], query=deep), lambda: lint_query(deep)):
            with pytest.raises(NestingError, match="nested 400 levels deep, too deep to lint$"):
                lint()


class TestReport:
    WARNING_PROGRAM = "[pairs: {[l: X, r: Y]}] :- [xs: {X}, ys: {Y}].\n"

    def test_ok_strict_semantics(self):
        report = lint_source(self.WARNING_PROGRAM)
        assert report.errors == 0 and report.warnings >= 1
        assert report.ok()
        assert not report.ok(strict=True)

    def test_info_never_rejects(self):
        report = lint_source("[out: {[w: {X}]}] :- [r1: {X}].")
        assert codes_of(report) == ["RL002"]
        assert report.ok(strict=True)

    def test_suppress_by_code_and_by_clause(self):
        report = lint_source(self.WARNING_PROGRAM + self.WARNING_PROGRAM.replace("pairs", "pairs2"))
        everywhere = report.suppress(["RL301"])
        assert "RL301" not in codes_of(everywhere)
        one_clause = report.suppress(["1:RL301"])
        assert "RL301" not in codes_of(one_clause, rule_index=1)
        assert "RL301" in codes_of(one_clause, rule_index=2)

    def test_render_mentions_code_and_hint(self):
        report = lint_source("[list: {[head: 1, tail: X]}] :- [list: {X}].")
        text = report.render()
        assert "RL003" in text
        assert "hint:" in text
        assert "1 warning(s)" in text

    def test_to_json_shape(self):
        report = lint_source(self.WARNING_PROGRAM)
        document = json.loads(json.dumps(report.to_json()))
        assert document["schema"] == "repro-lint/v1"
        assert document["summary"]["warnings"] == report.warnings
        assert document["summary"]["by_code"] == report.by_code()
        assert all("code" in d and "hint" in d for d in document["diagnostics"])

    def test_reports_are_deterministic(self):
        source = (
            self.WARNING_PROGRAM
            + "[out: {Z}] :- [in: {Z, Single}].\n"
            + "[list: {[head: 1, tail: X]}] :- [list: {X}].\n"
        )
        first = lint_source(source)
        second = lint_source(source)
        assert first == second
        assert first.to_json() == second.to_json()


class TestMetrics:
    def test_counters_accumulate(self):
        runs = metrics.REGISTRY.counter("lint.runs").value
        rl003 = metrics.REGISTRY.counter("lint.code.RL003").value
        report = lint_source("[list: {[head: 1, tail: X]}] :- [list: {X}].")
        assert report.warnings == 1
        assert metrics.REGISTRY.counter("lint.runs").value == runs + 1
        assert metrics.REGISTRY.counter("lint.code.RL003").value == rl003 + 1


class TestNeverMutates:
    def test_rules_unchanged_by_linting(self):
        rules = parse_program(
            "[anc: {[of: X, is: Y]}] :- [parent: {[of: X, is: Y]}].\n"
            "[list: {[head: 1, tail: X]}] :- [list: {X}].\n"
        )
        before = [(r.head.to_text(), None if r.body is None else r.body.to_text()) for r in rules]
        lint_rules(rules, query=parse_formula("[anc: {[of: a, is: W]}]"))
        after = [(r.head.to_text(), None if r.body is None else r.body.to_text()) for r in rules]
        assert before == after


class TestLintQuery:
    def test_clean_query(self):
        report = lint_query("[r1: {[name: $who, age: A]}]")
        assert report.diagnostics == ()
        assert report.ok(strict=True)

    def test_top_in_query_is_an_error(self):
        report = lint_query("[r1: top]")
        assert codes_of(report) == ["RL103"]
        assert not report.ok()

    def test_query_parameters_are_legal(self):
        # RL102 is about rules; $parameters are the point of prepared queries.
        report = lint_query("[r1: {[name: $who]}]")
        assert "RL102" not in codes_of(report)

    def test_rl304_dynamic_only_query(self):
        report = lint_query("[xs: {[k: K, v: V]}, ys: {[k: K, w: W]}]")
        assert "RL304" in codes_of(report)

    def test_rl304_silenced_by_parameter_or_static_key(self):
        assert "RL304" not in codes_of(
            lint_query("[xs: {[k: $k, v: V]}, ys: {[k: $k, w: W]}]")
        )
        assert "RL304" not in codes_of(
            lint_query("[xs: {[k: a, v: V]}, ys: {[v: V, w: W]}]")
        )

    def test_rl304_is_query_only(self):
        # Dynamic-only keys are the normal shape of recursive rule bodies.
        report = lint_source(
            "[anc: {[d: C, a: A]}] :-"
            " [par: {[c: C, p: P]}, anc: {[d: P, a: A]}]."
        )
        assert "RL304" not in codes_of(report)
