"""Session-facade lint integration: prepare(lint=...), PreparedQuery.diagnostics."""

import pytest

import repro
from repro import LintError, ReproError, Session, parse_object


@pytest.fixture
def session():
    with repro.connect() as s:
        s.put("r1", parse_object("{[name: peter, age: 25], [name: john, age: 7]}"))
        yield s


class TestPrepareLintModes:
    def test_default_warn_attaches_diagnostics(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: A]}]")
        assert prepared.diagnostics == ()
        assert prepared.execute(who="peter").all()

    def test_warn_keeps_warning_queries_runnable(self, session):
        # Two unkeyed element matches: a cross product the planner warns on.
        prepared = session.prepare("[r1: {X, Y}]")
        codes = [d.code for d in prepared.diagnostics]
        assert "RL301" in codes
        assert prepared.execute().all() is not None

    def test_strict_raises_on_errors(self, session):
        with pytest.raises(LintError) as excinfo:
            session.prepare("[r1: top]", lint="strict")
        error = excinfo.value
        assert [d.code for d in error.diagnostics] == ["RL103"]
        assert isinstance(error, ReproError)

    def test_strict_raises_on_warnings_too(self, session):
        with pytest.raises(LintError):
            session.prepare("[r1: {X, Y}]", lint="strict")

    def test_strict_passes_clean_queries(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: A]}]", lint="strict")
        assert prepared.diagnostics == ()

    def test_off_skips_analysis(self, session):
        prepared = session.prepare("[r1: top]", lint="off")
        assert prepared.diagnostics == ()

    def test_invalid_mode_rejected(self, session):
        with pytest.raises(ReproError):
            session.prepare("[r1: {X}]", lint="maybe")


class TestLintReportCaching:
    def test_re_preparing_reuses_the_report(self, session):
        first = session.prepare("[r1: {X, Y}]")
        second = session.prepare("[r1: {X, Y}]")
        assert first.diagnostics is second.diagnostics

    def test_two_spellings_of_one_formula_share_the_report(self, session):
        from repro.obs import metrics

        runs = metrics.REGISTRY.counter("lint.runs")
        before = runs.value
        first = session.prepare("[a:X]")
        second = session.prepare("[a: X]")
        assert runs.value == before + 1
        assert first.formula is second.formula
        assert (first.source, second.source) == ("[a:X]", "[a: X]")

    def test_a_strict_formula_argument_is_named_in_the_error(self, session):
        with pytest.raises(LintError, match=r"\): \[r1: \{X, Y\}\]$"):
            session.prepare(repro.parse_formula("[r1:{X,Y}]"), lint="strict")

    def test_rule_registration_invalidates_the_key(self, session):
        first = session.prepare("[derived: {X, Y}]")
        session.register("[derived: {X}] :- [r1: {X}].")
        second = session.prepare("[derived: {X, Y}]")
        # Same finding either way, but computed against the new rules.
        assert [d.code for d in first.diagnostics] == [
            d.code for d in second.diagnostics
        ]


class TestUnboundVariableError:
    def test_instantiate_raises_typed_error(self):
        from repro.calculus.substitution import Substitution, instantiate
        from repro.calculus.terms import var
        from repro import UnboundVariableError

        with pytest.raises(UnboundVariableError) as excinfo:
            instantiate(var("Missing"), Substitution({}), default=None)
        # The typed error keeps KeyError as a base, so pre-existing
        # ``except KeyError`` handlers still work...
        assert isinstance(excinfo.value, KeyError)
        # ...and the one-error-surface contract holds for session callers.
        assert isinstance(excinfo.value, ReproError)
        assert "Missing" in str(excinfo.value)
