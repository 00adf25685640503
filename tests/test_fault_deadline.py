"""Cooperative deadlines: Deadline, QueryTimeout, and timeout_ms wiring."""

import pytest

import repro
from repro.core.errors import ComplexObjectError, QueryTimeout
from repro.fault.deadline import Deadline


#: A rule whose closure grows a list forever — deterministic divergence.
DIVERGING_RULE = "[list: {[head: 1, tail: X]}] :- [list: {X}]."


class TestDeadline:
    def test_fresh_deadline_is_not_expired(self):
        deadline = Deadline.start(60_000)
        assert not deadline.expired
        assert deadline.remaining_ms() > 0
        deadline.check("anywhere")  # does not raise

    def test_expired_deadline_raises_with_context(self):
        deadline = Deadline(-1)  # already past
        assert deadline.expired
        with pytest.raises(QueryTimeout) as info:
            deadline.check("unit test", partial_explain="the partial plan")
        error = info.value
        assert "unit test" in str(error)
        assert error.timeout_ms == -1
        assert error.elapsed_ms >= 0
        assert error.partial_explain == "the partial plan"

    def test_partial_explain_thunk_only_runs_on_timeout(self):
        calls = []

        def thunk():
            calls.append(1)
            return "rendered"

        Deadline.start(60_000).check("x", partial_explain=thunk)
        assert calls == []
        with pytest.raises(QueryTimeout) as info:
            Deadline(-1).check("x", partial_explain=thunk)
        assert calls == [1]
        assert info.value.partial_explain == "rendered"

    def test_partial_value_is_attached(self):
        with pytest.raises(QueryTimeout) as info:
            Deadline(-1).check("fixpoint", partial=repro.obj(5))
        assert info.value.partial == repro.obj(5)

    def test_timeout_metric_increments(self):
        from repro.obs.metrics import REGISTRY

        before = REGISTRY.counter("session.query_timeouts").value
        with pytest.raises(QueryTimeout):
            Deadline(-1).check()
        assert REGISTRY.counter("session.query_timeouts").value == before + 1


class TestQueryTimeoutType:
    def test_is_both_repro_error_and_timeout_error(self):
        assert issubclass(QueryTimeout, ComplexObjectError)
        assert issubclass(QueryTimeout, TimeoutError)

    def test_exported_at_top_level(self):
        assert repro.QueryTimeout is QueryTimeout


class TestExecuteTimeout:
    def test_fast_query_completes_within_generous_timeout(self):
        with repro.connect() as session:
            session.put("r1", repro.parse_object("{[name: peter, age: 25]}"))
            rows = session.execute(
                "[r1: {[name: X]}]", timeout_ms=60_000
            ).all()
            assert rows  # the budget was generous; the answer is complete

    def test_diverging_closure_times_out_with_partial(self):
        with repro.connect() as session:
            session.put("list", repro.parse_object("{[head: 0]}"))
            session.register(DIVERGING_RULE)
            with pytest.raises(QueryTimeout) as info:
                session.execute(
                    "[list: X]", on_closure=True, timeout_ms=1
                ).all()
            error = info.value
            assert error.timeout_ms == 1
            assert error.elapsed_ms >= 1
            # The engine attached its in-flight closure: diagnosable, not dead.
            assert error.partial is not None

    def test_timed_out_closure_is_not_cached(self):
        with repro.connect() as session:
            session.put("list", repro.parse_object("{[head: 0]}"))
            session.register(DIVERGING_RULE)
            with pytest.raises(QueryTimeout):
                session.execute("[list: X]", on_closure=True, timeout_ms=1).all()
            # A second attempt re-evaluates (and re-times-out) rather than
            # serving a half-computed closure from the cache.
            with pytest.raises(QueryTimeout):
                session.execute("[list: X]", on_closure=True, timeout_ms=1).all()

    def test_streaming_cursor_honors_the_deadline(self):
        with repro.connect() as session:
            session.put("list", repro.parse_object("{[head: 0]}"))
            session.register(DIVERGING_RULE)
            with pytest.raises(QueryTimeout):
                for _ in session.execute("[list: X]", on_closure=True, timeout_ms=1):
                    pass  # pragma: no cover - the closure times out first

    def test_invalid_timeout_rejected(self):
        with repro.connect() as session:
            session.put("r1", repro.parse_object("{[name: peter]}"))
            with pytest.raises(repro.ReproError):
                session.execute("[r1: X]", timeout_ms=0)
            with pytest.raises(repro.ReproError):
                session.execute("[r1: X]", timeout_ms="soon")

    def test_timeout_is_not_part_of_the_guard_surface(self):
        # timeout_ms must not leak into closure guards (it is an option of
        # the execution, not of the fixpoint).
        with repro.connect() as session:
            session.put("r1", repro.parse_object("{[name: peter]}"))
            rows = session.execute(
                "[r1: {[name: X]}]", on_closure=True, timeout_ms=60_000
            ).all()
            assert rows


class _SpentAfter(Deadline):
    """A generous deadline that reports itself spent after ``checks`` checkpoints."""

    def __init__(self, checks):
        super().__init__(60_000)
        self.checks = checks

    def check(self, context="", **attached):
        self.checks -= 1
        if self.checks < 0:
            Deadline(-1).check(context, **attached)


class TestResumedCloseTimeout:
    RULES = (
        "[doa: {a}].\n"
        "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].\n"
    )

    @staticmethod
    def _family(*edges):
        return repro.obj(
            [{"name": parent, "children": [{"name": child}]} for parent, child in edges]
        )

    def test_deadline_expiring_inside_a_resumed_round_evicts_the_base(self):
        with repro.connect(rules=self.RULES) as session:
            session.put("family", self._family("ab"))
            session.close()
            # Three delta rounds away; the deadline dies entering the second,
            # after b→c was indexed under the cached base.
            session.put("family", self._family("ab", "bc", "cd", "de"))
            with pytest.raises(QueryTimeout) as info:
                session.close(deadline=_SpentAfter(1))
            assert "c" in info.value.partial.to_text()
            assert session.cache_info()["closure_maintained"] == 1
            assert session.cache_info()["closures_cached"] == 0
            # A different growth of the same base: were the abandoned b→c
            # still indexed under it, c (and d) would be derived here.
            session.put("family", self._family("ab", "cd"))
            closure = session.close().value
            with repro.connect(rules=self.RULES) as fresh:
                fresh.put("family", session.get("family"))
                assert closure == fresh.close().value
            assert closure["doa"] == repro.obj(["a", "b"])
            assert session.cache_info()["closure_maintained"] == 1


class TestExecutorDeadline:
    def test_match_plan_deadline_attaches_plan_rendering(self):
        from repro.plan import compile_body, match_plan
        from repro.parser import parse_formula, parse_object

        database = parse_object("[r1: {[a: 1], [a: 2], [a: 3]}]")
        plan = compile_body(parse_formula("[r1: {[a: X]}]"))
        with pytest.raises(QueryTimeout) as info:
            match_plan(plan, database, deadline=Deadline(-1))
        explain = info.value.partial_explain
        assert explain is not None
        assert "timed out" in explain
        assert "progress:" in explain

    def test_a_spent_deadline_stops_the_stream_at_its_first_row(self):
        from repro.plan import compile_body, iter_match_rows
        from repro.parser import parse_formula, parse_object

        database = parse_object("[r1: {[a: 1], [a: 2], [a: 3]}]")
        plan = compile_body(parse_formula("[r1: {[a: X]}]"))
        stream = iter_match_rows(plan, database, deadline=Deadline(-1))
        with pytest.raises(QueryTimeout) as info:
            next(stream)
        explain = info.value.partial_explain
        assert "timed out" in explain
        assert "progress:" in explain

    def test_match_plan_without_deadline_is_unaffected(self):
        from repro.plan import compile_body, match_plan
        from repro.parser import parse_formula, parse_object

        database = parse_object("[r1: {[a: 1], [a: 2]}]")
        plan = compile_body(parse_formula("[r1: {[a: X]}]"))
        result = match_plan(plan, database)
        assert len(result) == 2
