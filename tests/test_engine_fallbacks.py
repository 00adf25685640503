"""Per-rule full-matching fallback accounting (the silent de-optimizations)."""

import io

from repro import Program, parse_program, parse_object
from repro.calculus.rules import Rule, RuleSet
from repro.cli import main
from repro.engine import SemiNaiveEngine
from repro.plan.stats import EngineStats
from repro.workloads import make_genealogy

# ``seen: S`` reads the whole seen subtree through a bare spine variable, so
# the collect rule is not delta-decomposable; because its head also writes
# ``seen`` it is self-dependent, lands in a recursive stratum, and every delta
# round of that stratum falls back to full matching.
PROGRAM = """
[seen: {sentinel}].
[seen: {X}] :- [family: {[name: X]}, seen: S].
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
"""


def evaluate(generations=3):
    tree = make_genealogy(generations, 2)
    program = Program.from_source(PROGRAM, database=tree.family_object)
    return program.evaluate()


class TestFallbackCounters:
    def test_non_decomposable_rule_is_counted_and_attributed(self):
        stats = evaluate().stats
        assert stats.full_match_fallbacks > 0
        assert len(stats.fallback_rules) == 1
        (label, count), = stats.fallback_rules.items()
        assert "seen" in label
        assert count == stats.full_match_fallbacks

    def test_decomposable_program_reports_no_fallbacks(self):
        tree = make_genealogy(3, 2)
        source = (
            "[doa: {abraham}]."
            "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]."
        )
        result = Program.from_source(source, database=tree.family_object).evaluate()
        assert result.stats.full_match_fallbacks == 0
        assert result.stats.fallback_rules == {}

    def test_named_rules_use_their_name_as_the_label(self):
        from repro import var
        from repro.calculus.terms import formula

        collect = Rule(
            formula({"seen": [var("X")]}),
            formula({"family": [{"name": var("X")}], "seen": var("S")}),
            name="collect-names",
        )
        engine = SemiNaiveEngine(RuleSet([collect]))
        result = engine.run(
            parse_object("[family: {[name: a], [name: b]}, seen: {z}]")
        )
        assert result.stats.full_match_fallbacks > 0
        assert "collect-names" in result.stats.fallback_rules

    def test_as_dict_and_summary_surface_fallbacks(self):
        stats = evaluate().stats
        assert stats.as_dict()["full_match_fallbacks"] == stats.full_match_fallbacks
        summary = stats.summary()
        assert "full-matching fallbacks" in summary
        assert "seen" in summary

    def test_summary_is_quiet_without_fallbacks(self):
        assert "fallback" not in EngineStats().summary()


class TestCliStatsSurface:
    def test_run_stats_mentions_fallbacks(self, tmp_path):
        program_file = tmp_path / "prog.co"
        program_file.write_text(PROGRAM)
        stream = io.StringIO()
        code = main(
            [
                "run",
                f"@{program_file}",
                "--database",
                "[family: {[name: abraham, children: {[name: isaac]}]}]",
                "--stats",
            ],
            output=stream,
        )
        assert code == 0
        assert "full-matching fallbacks" in stream.getvalue()
