"""The session facade (repro.api): prepared, parameterized, streaming queries.

Covers the public contract of :func:`repro.connect` / :class:`Session`:

* one pipeline over both backends (memory and WAL);
* ``prepare`` → ``execute`` skips parse+optimize on re-execution (cache-hit
  counters), and store commits invalidate exactly the stale entries;
* ``$parameter`` binding at execute time, with strict missing/unknown checks;
* cursors stream lazily, in the materialized executor's order, with
  ``one()`` / ``all()`` / ``bindings()`` / ``explain()`` terminals;
* rule registration and version-cached closures;
* what the removed entry points (``Program.query``, ``ObjectDatabase.query``,
  the ``engine=`` option) did is reached through a session.
"""

import pytest

import repro
from repro import ParameterError, ReproError, Rule, Session, TupleFormula, Variable, connect
from repro import parse_formula, parse_object
from repro.calculus.fixpoint import close as calculus_close
from repro.calculus.interpretation import interpret as baseline_interpret
from repro.core.errors import ComplexObjectError, DivergenceError, NestingError, StoreError
from repro.core.objects import BOTTOM, Atom, TupleObject


PEOPLE = "{[name: peter, age: 25], [name: john, age: 7], [name: mary, age: 13]}"


@pytest.fixture
def session():
    with connect() as s:
        s.put("r1", parse_object(PEOPLE))
        yield s


class TestConnect:
    def test_memory_session_round_trip(self, session):
        assert session.get("r1") == parse_object(PEOPLE)
        assert session.names() == ("r1",)

    def test_wal_session_persists(self, tmp_path):
        path = str(tmp_path / "api.wal")
        with connect(path) as s:
            s.put("family", parse_object("[family: {[name: abraham]}]"))
        with connect(path) as s:
            assert s.get("family") == parse_object("[family: {[name: abraham]}]")
            assert s.query("[family: [family: {[name: X]}]]") == parse_object(
                "[family: [family: {[name: abraham]}]]"
            )

    @pytest.mark.parametrize("name", ["path", "lock_timeout"])
    def test_a_given_database_refuses_what_would_open_another(self, tmp_path, name):
        from repro.store.database import ObjectDatabase

        database = ObjectDatabase()
        value = str(tmp_path / "other.wal") if name == "path" else 0.5
        with pytest.raises(ReproError, match=f"ignores {name}="):
            Session(database=database, **{name: value})
        assert list(tmp_path.iterdir()) == []
        assert database._lock.default_timeout is None

    def test_repro_error_is_the_catch_all(self):
        assert ReproError is ComplexObjectError
        assert issubclass(ParameterError, ReproError)
        assert issubclass(StoreError, ReproError)


class TestPreparedQueries:
    def test_prepared_reexecution_hits_the_plan_cache(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: A]}]")
        assert prepared.parameters == frozenset({"who"})
        first = prepared.execute(who="peter").all()
        assert first == parse_object("[r1: {[name: peter, age: 25]}]")
        before = session.cache_info()
        assert before["plan_misses"] == 1
        for who in ("john", "mary", "peter"):
            prepared.execute(who=who).all()
        after = session.cache_info()
        assert after["plan_misses"] == 1  # no re-planning
        assert after["plan_hits"] == before["plan_hits"] + 3

    def test_commit_invalidates_the_cached_plan(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: A]}]")
        prepared.execute(who="peter").all()
        session.put("r1", parse_object("{[name: peter, age: 30]}"))
        assert prepared.execute(who="peter").all() == parse_object(
            "[r1: {[name: peter, age: 30]}]"
        )
        assert session.cache_info()["plan_misses"] == 2

    def test_parameter_binding_equals_substituted_source(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: A]}]")
        for who in ("peter", "john", "mary"):
            direct = session.query(parse_formula(f"[r1: {{[name: {who}, age: A]}}]"))
            assert prepared.execute(who=who).all() == direct

    def test_params_accepts_mapping_and_keywords(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: $age]}]")
        as_mapping = prepared.execute({"who": "john", "age": 7}).all()
        as_keywords = prepared.execute(who="john", age=7).all()
        assert as_mapping == as_keywords != BOTTOM

    def test_missing_parameter_is_an_error(self, session):
        prepared = session.prepare("[r1: {[name: $who]}]")
        with pytest.raises(ParameterError, match="who"):
            prepared.execute()

    def test_unknown_parameter_is_an_error(self, session):
        prepared = session.prepare("[r1: {[name: $who]}]")
        with pytest.raises(ParameterError, match="ghost"):
            prepared.execute(who="peter", ghost=1)

    def test_parameterless_query_rejects_params(self, session):
        with pytest.raises(ParameterError):
            session.query("[r1: {[name: X]}]", {"who": "peter"})

    def test_misspelled_query_option_is_rejected(self, session):
        with pytest.raises(ReproError, match="agains"):
            session.query("[r1: {[name: X]}]", agains="r1")
        with pytest.raises(ReproError, match="max_iteration"):
            session.query("[r1: {[name: X]}]", on_closure=True, max_iteration=5)
        with pytest.raises(ReproError, match="option"):
            session.prepare("[r1: {[name: X]}]", allow_botom=True)

    def test_the_removed_engine_option_is_rejected_like_any_typo(self, session):
        with pytest.raises(ReproError, match=r"\['engine'\].*valid options.*'on_closure'"):
            session.query("X", engine="naive")
        with pytest.raises(TypeError, match="engine"):
            session.close(engine="naive")
        # The rejection happens before anything runs: the session stays usable.
        assert session.query("[r1: {[name: peter, age: A]}]") == parse_object(
            "[r1: {[name: peter, age: 25]}]"
        )

    def test_prepared_explain_names_the_plan(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: A]}]")
        rendered = prepared.explain(who="peter")
        assert "query plan" in rendered
        assert "peter" in rendered

    def test_prepare_accepts_formula_objects(self, session):
        prepared = session.prepare(parse_formula("[r1: {[name: X]}]"))
        assert prepared.execute().all() == session.query("[r1: {[name: X]}]")


class TestCursor:
    def test_streaming_matches_agree_with_the_materialized_answer(self, session):
        streamed = list(session.execute("[r1: {[name: X, age: A]}]"))
        assert len(streamed) == 3
        from repro.core.lattice import union_all

        assert union_all(streamed) == session.query("[r1: {[name: X, age: A]}]")

    def test_one_returns_the_first_match_lazily(self, session):
        cursor = session.execute("[r1: {[name: X]}]")
        first = cursor.one()
        assert not first.is_bottom
        # all() after partial consumption still folds the complete answer.
        assert cursor.all() == session.query("[r1: {[name: X]}]")

    def test_one_on_an_empty_stream_is_bottom(self, session):
        cursor = session.execute("[r1: {[name: nobody, age: A]}]")
        assert cursor.one() is BOTTOM
        assert cursor.all() is BOTTOM

    def test_bindings_stream_substitutions(self, session):
        cursor = session.execute("[r1: {[name: X, age: A]}]")
        names = {binding["X"].value for binding in cursor.bindings()}
        assert names == {"peter", "john", "mary"}
        assert cursor.all() == session.query("[r1: {[name: X, age: A]}]")

    def test_cursor_explain_matches_session_explain(self, session):
        cursor = session.execute("[r1: {[name: X]}]")
        assert cursor.explain() == session.explain("[r1: {[name: X]}]")

    def test_streaming_order_equals_match_plan_order(self, session):
        from repro.plan import (
            DatabaseStatistics,
            compile_body,
            iter_match_plan,
            match_plan,
            optimize_body,
        )

        target = session.database.as_object()
        body = parse_formula("[r1: {[name: X, age: A], [name: Y]}]")
        plan = optimize_body(compile_body(body), DatabaseStatistics.collect(target))
        assert list(iter_match_plan(plan, target)) == match_plan(plan, target)


class TestQueriesAndTargets:
    def test_against_targets_one_stored_object(self, session):
        answer = session.query("{[name: X, age: 25]}", against="r1")
        assert answer == parse_object("{[name: peter, age: 25]}")

    def test_against_missing_name_raises_store_error(self, session):
        with pytest.raises(StoreError):
            session.query("X", against="ghost")

    def test_allow_bottom_selects_the_literal_semantics(self, session):
        query = parse_formula("[r1: {[name: X, kids: {K}]}]")
        target = session.database.as_object()
        assert session.query(query, allow_bottom=True) == baseline_interpret(
            query, target, allow_bottom=True
        )

    def test_store_access_counters_still_account(self, session):
        before = session.database.access_stats
        session.query("[r1: {[name: X]}]")
        after = session.database.access_stats
        assert {key: after[key] - before[key] for key in after} == {
            **dict.fromkeys(after, 0), "query_scans": 1,
        }

    def test_seeded_session_queries_the_seed(self):
        session = Session.over_object(parse_object("[r1: {[a: 1], [a: 2]}]"))
        assert session.query("[r1: {[a: X]}]") == parse_object("[r1: {[a: 1], [a: 2]}]")


class TestRulesAndClosures:
    FAMILY = (
        "[family: {[name: abraham, children: {[name: isaac]}],"
        " [name: isaac, children: {[name: jacob]}]}]"
    )
    RULES = (
        "[doa: {abraham}].\n"
        "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].\n"
    )

    def test_closure_over_store_and_cache(self):
        with connect(rules=self.RULES) as session:
            # The stored name joins the whole-database object the rules close.
            session.put("family", parse_object(self.FAMILY)["family"])
            result = session.close()
            assert "jacob" in result.value.to_text()
            again = session.close()
            assert again is result  # cached: same version, same guards
            info = session.cache_info()
            assert info["closure_hits"] == 1 and info["closure_misses"] == 1

    def test_commit_invalidates_the_closure(self):
        with connect(rules=self.RULES) as session:
            session.put("family", parse_object(self.FAMILY)["family"])
            first = session.close()
            session.put("family", parse_object(
                "{[name: abraham, children: {[name: sarah]}]}"
            ))
            second = session.close()
            assert second is not first
            assert "sarah" in second.value.to_text()
            assert "jacob" not in second.value.to_text()

    def test_query_on_closure_reuses_the_cached_evaluation(self):
        session = Session.over_object(parse_object(self.FAMILY), rules=self.RULES)
        session.close()
        answer = session.query("[doa: X]", on_closure=True)
        assert answer == parse_object("[doa: {abraham, isaac, jacob}]")
        info = session.cache_info()
        assert info["closure_misses"] == 1 and info["closure_hits"] == 1

    def test_register_accepts_text_rules_and_rulesets(self):
        session = Session.over_object(parse_object(self.FAMILY))
        session.register(self.RULES)
        from repro.parser import parse_rule

        session.register(parse_rule("[names: {X}] :- [family: {[name: X]}]."))
        closure = session.close().value
        assert "names" in closure.to_text()

    def test_close_is_the_paper_closure_not_a_resource_release(self):
        # close() computes R*(O); the session stays usable afterwards.
        session = Session.over_object(parse_object(self.FAMILY), rules=self.RULES)
        session.close()
        assert session.query("[family: {[name: X]}]") != BOTTOM


class TestClosureMaintenance:
    """Insert-only commits resume the cached closure; anything else recomputes."""

    RULES = TestRulesAndClosures.RULES
    ISAAC = "[name: isaac, children: {[name: jacob]}]"
    SMALL = "{[name: abraham, children: {[name: isaac]}]}"
    MIDDLE = "{[name: abraham, children: {[name: isaac]}], %s}" % ISAAC
    GROWN = "{[name: abraham, children: {[name: isaac], [name: ishmael]}], %s}" % ISAAC
    DESCENDANTS = parse_object("{abraham, isaac, ishmael, jacob}")

    def _session(self, **options):
        session = connect(rules=self.RULES, **options)
        session.put("family", parse_object(self.SMALL))
        session.close()
        return session

    def test_growing_commit_resumes_from_the_cached_closure(self):
        with self._session() as session:
            # abraham's tuple is *replaced* by a larger one: growth is judged
            # on the data (old ≤ new), not on how the commit was phrased.
            session.put("family", parse_object(self.GROWN))
            result = session.close()
            assert result.value["doa"] == self.DESCENDANTS
            info = session.cache_info()
            assert info["closure_maintained"] == 1
            assert info["closure_invalidations"] == 1
            assert info["closure_misses"] == 2 and info["closures_cached"] == 1
            # The record describes the delta: no rule re-matched in full.
            assert result.stats.full_matches == 0
            assert session.stats()["closure"] is result.stats
            assert session.close() is result

    def test_transact_second_name_and_seed_object_all_qualify(self):
        with self._session() as session:
            session.transact(lambda txn: txn.put("family", parse_object(self.GROWN)))
            session.close()
            session.put("other", parse_object("{1}"))
            session.close()
            session.seed_object(parse_object("[family: {[name: jacob]}]"))
            closure = session.close().value
            assert session.cache_info()["closure_maintained"] == 3
            program = session.program()
            assert closure == calculus_close(program.seed(), program.rules).value

    def test_retraction_and_register_recompute(self):
        with self._session() as session:
            session.put("family", parse_object("{[name: abraham]}"))  # lost isaac
            assert session.close().value["doa"] == parse_object("{abraham}")
            session.remove("family")
            session.close()
            session.register("[names: {X}] :- [family: {[name: X]}].")
            session.close()
            assert session.cache_info()["closure_maintained"] == 0

    def test_guard_tripped_by_resumed_growth_evicts_the_base(self):
        with connect(rules=self.RULES) as session:
            session.put("family", parse_object(self.SMALL))
            session.close(max_nodes=17)
            session.put("family", parse_object(self.GROWN))
            with pytest.raises(DivergenceError) as info:
                session.close(max_nodes=17)
            assert info.value.partial is not None
            assert session.cache_info()["closures_cached"] == 0
            # Still ≥ the evicted base, but nothing is left to resume from —
            # and nothing of the abandoned GROWN may leak into the answer.
            session.put("family", parse_object(self.MIDDLE))
            result = session.close(max_nodes=17)
            assert session.cache_info()["closure_maintained"] == 1
            assert result.value["doa"] == parse_object("{abraham, isaac, jacob}")
            assert result.stats.full_matches > 0

    def test_failed_commit_leaves_the_cached_closure_a_hit(self, tmp_path):
        from repro.fault.injection import InjectedFault, inject

        with self._session(path=str(tmp_path / "db.wal")) as session:
            cached, version = session.close(), session.version
            with inject("store.wal.append:fail:times=1"):
                with pytest.raises(InjectedFault):
                    session.put("family", parse_object(self.GROWN))
            assert session.version == version
            assert session.close() is cached
            info = session.cache_info()
            assert info["closure_invalidations"] == 0 and info["closure_misses"] == 1


class TestBottomSemantics:
    """A session seeded with ⊥ is the paper's empty database, not the store's []."""

    def test_seeded_bottom_queries_answer_bottom(self):
        session = Session.over_object(BOTTOM)
        assert session.query("X") is BOTTOM

    def test_closure_over_bottom_database_is_facts_only(self):
        session = Session.over_object(BOTTOM, rules="[doa: {abraham}].")
        result = session.close()
        assert result.value == parse_object("[doa: {abraham}]")
        assert not result.value.is_top

    def test_cli_run_without_database_stays_bottom_seeded(self):
        import io
        from repro.cli import main

        buffer = io.StringIO()
        code = main(["run", "[doa: {abraham}]."], output=buffer)
        assert code == 0
        assert "top" not in buffer.getvalue()
        assert "doa" in buffer.getvalue()

    def test_empty_store_backed_session_keeps_snapshot_semantics(self):
        # Unseeded sessions mirror the store: an empty store's whole-database
        # object is the empty tuple, exactly as as_object() always answered.
        with connect() as session:
            assert session.query("X") == session.database.as_object()


class TestCacheEviction:
    def test_lru_keeps_the_hot_prepared_plan_under_churn(self, monkeypatch):
        import repro.api.snapshot as snapshot

        monkeypatch.setattr(snapshot, "_CACHE_LIMIT", 4)
        session = Session.over_object(parse_object("[r1: {[a: 1]}]"))
        hot = session.prepare("[r1: {[a: $x]}]")
        hot.execute(x=1).all()
        for index in range(4):
            session.query(parse_formula(f"[r1: {{[a: X, b: {index}]}}]"))
            hot.execute(x=1).all()
        assert session.cache_info()["plans_cached"] <= 4
        misses = session.cache_info()["plan_misses"]
        hot.execute(x=1).all()
        assert session.cache_info()["plan_misses"] == misses

    def test_distinct_bindings_do_not_churn_the_compile_cache(self):
        from repro.plan.compile import compile_body

        with connect() as session:
            session.put("r1", parse_object("{[a: 1, b: x], [a: 2, b: y]}"))
            prepared = session.prepare("[r1: {[a: $x, b: B]}]")
            prepared.execute(x=0).all()  # first execution plans (and compiles)
            before = len(compile_body.cache)
            for value in range(1, 10):
                prepared.execute(x=value).all()
            assert len(compile_body.cache) == before

    def test_absent_bindings_answer_bottom_on_a_plan_hit_without_compiling(self):
        from repro.plan.compile import compile_body

        with connect() as session:
            session.put("family", parse_object("{[name: abraham], [name: isaac]}"))
            prepared = session.prepare("[family: {[name: $who, kids: K]}]")
            prepared.execute(who="abraham").all()
            before = len(compile_body.cache)
            scans = session.database.access_stats["query_scans"]
            hits = session.cache_info()["plan_hits"]
            for index in range(5):
                assert prepared.execute(who=f"nobody{index}").all().is_bottom
            assert len(compile_body.cache) == before
            assert session.database.access_stats["query_scans"] == scans + 5
            assert session.cache_info()["plan_hits"] == hits + 5

    def test_one_session_per_thread_over_a_shared_database(self):
        import threading

        from repro.store.database import ObjectDatabase

        database = ObjectDatabase()
        database.put("r1", parse_object("{[a: 1], [a: 2]}"))
        expected = parse_object("[r1: {[a: 1], [a: 2]}]")
        errors = []

        def worker():
            try:
                session = Session(database=database)
                for _ in range(20):
                    assert session.query("[r1: {[a: X]}]") == expected
            except Exception as error:  # pragma: no cover - failure evidence
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestHashConsedFormulae:
    """Formulae are interned, and the compile memos key on their intern ids."""

    @staticmethod
    def _misses():
        from repro.core import intern
        from repro.plan.compile import compile_body, compile_element_matcher
        from repro.plan.indexes import element_keys

        memos = (compile_body.cache, compile_element_matcher.cache, element_keys.cache)
        return [table.misses for table in (intern._TERMS, *memos)]

    def test_a_second_execute_with_the_same_binding_misses_nothing(self):
        with connect() as session:
            session.put("r1", parse_object("{[a: 1, b: x], [a: 2, b: y]}"))
            prepared = session.prepare("[r1: {[a: $x, b: B]}]")
            first = prepared.execute(x=1)
            assert first.all() == parse_object("[r1: {[a: 1, b: x]}]")
            before = self._misses()
            # The first cursor holds its bound body; the memos hold the bound element.
            second = prepared.execute(x=1)
            assert second.all() == first.all()
            assert self._misses() == before
            assert second._plan.body is first._plan.body
            del first, second
            before = self._misses()
            prepared.execute(x=1).all()
            assert self._misses()[1:] == before[1:]

    def test_clear_object_caches_empties_the_compile_memos(self):
        from repro.plan.compile import compile_body, compile_element_matcher
        from repro.plan.indexes import element_keys

        Session(seed=parse_object("[r1: {[a: 1, b: x]}]")).query("[r1: {[a: A, b: x]}]")
        memos = (compile_body.cache, compile_element_matcher.cache, element_keys.cache)
        assert all(len(memo) >= 1 for memo in memos)
        repro.clear_object_caches()
        assert [len(memo) for memo in memos] == [0, 0, 0]


class TestOneSnapshotPerVersion:
    """Plans, index stores and closures belong to one read of the version."""

    @pytest.mark.parametrize(
        "seed, query, options",
        [
            (parse_object("[s: 0]"), "[r: {[a: A]}]", {}),  # the seeded object
            (None, "[r: {[a: A]}]", {}),  # the store's access path
            (None, "{[a: A]}", {"against": "r"}),  # one stored object
        ],
        ids=["seed", "store", "against"],
    )
    def test_a_commit_after_the_first_store_read_does_not_split_a_call(
        self, seed, query, options
    ):
        from repro.store.database import ObjectDatabase

        old, new = parse_object("{[a: 1]}"), parse_object("{[a: 1], [a: 2]}")

        class RacingDatabase(ObjectDatabase):
            """Commits once, right after the first store read a session call
            makes — a writer on another thread landing mid-call."""

            armed = False

            def _race(self, value):
                if self.armed:
                    self.armed = False
                    self.put("r", new)
                return value

            def state(self):
                return self._race(super().state())

            @property
            def version(self):
                return self._race(super().version)

            def get(self, name, default=None):
                return self._race(super().get(name, default))

            def __len__(self):
                return self._race(super().__len__())

            def as_object(self):
                return self._race(super().as_object())

        def run(database):
            session = Session(database=database, seed=seed)
            cursor = session.execute(query, **options)
            return session, cursor.all(), cursor.explain()

        reference = ObjectDatabase()
        reference.put("r", old)
        _, expected, expected_plan = run(reference)
        database = RacingDatabase()
        database.put("r", old)
        before = database.version
        database.armed = True
        session, answer, plan = run(database)
        assert not database.armed and database.version == before + 1
        # The answer, its EXPLAIN and the snapshot's version: one commit.
        assert answer == expected
        assert plan == expected_plan
        assert session._snapshot.version[0] == before
        assert session._snapshot.state.get("r") is old
        # The next call reads the commit.
        reference.put("r", new)
        assert session.query(query, **options) == run(reference)[1] != expected

    def test_a_scripted_session_pins_every_counter(self):
        session = Session()
        session.put("r1", parse_object("{[name: peter, age: 25], [name: john, age: 7]}"))
        session.put("family", parse_object("{[name: abraham], [name: isaac]}"))
        session.register("[doa: {X}] :- [family: {[name: X]}].")
        ages = session.prepare("[r1: {[name: $who, age: A]}]")

        def four():
            ages.execute(who="peter").all()
            ages.execute(who="john").all()
            session.query("[family: {[name: X]}]")
            session.explain("[r1: {[name: X]}]")
            session.close()

        four()
        session.close()
        session.query("[doa: {X}]", on_closure=True)
        session.query("{[name: X, age: 7]}", against="r1")
        session.put("family", parse_object("{[name: abraham], [name: isaac], [name: jacob]}"))
        four()
        session.seed_object(parse_object("[extra: 1]"))
        session.query("[family: {[name: X]}]")
        session.register("[old: {X}] :- [r1: {[name: X, age: 25]}].")
        session.close()
        session.query("[family: {[name: X]}]")
        assert session.cache_info() == {
            "plan_hits": 2,
            "plan_misses": 10,
            "plan_evictions": 0,
            # Every plan the commit, the seed edit and the second register
            # dropped (5 + 3 + 1), asked for again or not.
            "plan_invalidations": 9,
            "closure_hits": 2,
            "closure_misses": 3,
            "closure_invalidations": 2,
            "closure_maintained": 1,
            "closure_evictions": 0,
            "prepared_queries": 1,
            # The current version's plans only: the final query's.
            "plans_cached": 1,
            "closures_cached": 1,
            "indexes_cached": 0,
        }


def _chain(depth: int, leaf: int = 1):
    """``[a: [a: ... 1]]``, ``depth`` tuples deep: too deep to walk recursively."""
    value = Atom(leaf)
    for _ in range(depth):
        value = TupleObject({"a": value})
    return value


class TestNestingErrors:
    """Session entry points name a too-deep formula or value, and answer over data of any depth."""

    def test_close_over_a_deep_stored_object(self):
        session = Session()
        session.put("r", parse_object("{1}"))
        session.put("x", _chain(3))
        session.register("[u: {X}] :- [r: {X}].")
        session.close()
        # A replacement, not growth: the engine closes the whole 901-deep
        # database, and its first round trips the default depth guard.
        session.put("x", _chain(900))
        with pytest.raises(DivergenceError, match="closure exceeded depth 200"):
            session.close()
        with pytest.raises(DivergenceError, match="closure exceeded depth 200"):
            session.query("[u: X]", on_closure=True)
        # Neither the failed closures nor the base they started from is kept.
        assert session.cache_info()["closures_cached"] == 0
        closed = session.close(max_depth=1000).value
        assert (closed.get("u"), closed.get("x")) == (parse_object("{1}"), _chain(900))
        # A closure that derives nothing returns at any depth.
        session.remove("r")
        session.put("x", _chain(3000))
        assert session.close().value == TupleObject({"x": _chain(3000)})
        # One that must walk it, to project or unite, names its depth.
        session.register("[y: {X}] :- [x: X].")
        with pytest.raises(NestingError, match="nested 3001 levels deep, too deep to close$"):
            session.close()

    def test_a_deep_replacement_closes_in_full(self):
        session = Session()
        session.register("[u: {X}] :- [w: {X}].")
        session.put("x", _chain(3000))
        session.close()
        # Whether the new database grew from the base needs a union of the two
        # chains, too deep to walk: the close does not resume, it runs in full.
        session.put("x", _chain(3000, leaf=2))
        assert session.close().value == TupleObject({"x": _chain(3000, leaf=2)})
        info = session.cache_info()
        assert (info["closure_invalidations"], info["closure_maintained"]) == (1, 0)

    def test_a_query_on_a_deeply_seeded_session(self):
        session = Session(seed=_chain(900))
        assert session.query("[a: X]") == _chain(900)
        assert session.prepare("[a: X]").all() == _chain(900)
        assert "bind X := a" in session.explain("[a: X]")
        info = session.cache_info()
        assert (info["plan_misses"], info["plans_cached"]) == (1, 1)

    def test_a_query_over_a_deep_store(self):
        session = Session()
        session.put("x", _chain(3000))
        expected = TupleObject({"x": _chain(3000)})
        assert session.query("[x: X]") == expected
        assert session.execute("[x: X]").all() == expected
        assert "bind X := x" in session.explain("[x: X]")
        assert session.cache_info()["plans_cached"] == 1

    def test_a_deep_formula_at_every_entry_point(self):
        deep = _deep_formula(3000)
        session = Session(seed=parse_object("[a: 1]"))
        calls = [
            ("prepare", lambda: session.prepare(deep)),
            ("prepare", lambda: session.prepare(deep, lint="off")),
            ("execute", lambda: session.execute(deep).all()),
            ("explain", lambda: session.explain(deep)),
            ("make a rule", lambda: session.register([Rule(deep, deep)])),
        ]
        for verb, call in calls:
            message = f"formula is nested 3000 levels deep, too deep to {verb}$"
            with pytest.raises(NestingError, match=message):
                call()
        assert session.rules == ()

    def test_a_deep_rule_is_named_instead_of_the_shallow_seed(self):
        deep = _deep_formula(900)
        message = "formula is nested 900 levels deep, too deep to make a rule$"
        with pytest.raises(NestingError, match=message):
            Session(seed=parse_object("[a: 1]")).register([Rule(deep, deep)])

    def test_a_deep_rule_is_named_instead_of_the_shallow_query(self):
        deep = _deep_formula(400)
        message = "formula is nested 400 levels deep, too deep to make a rule$"
        with pytest.raises(NestingError, match=message):
            repro.connect().register([Rule(deep, deep)])

    def test_an_object_used_as_a_query_is_named_not_its_target(self):
        session = Session(seed=parse_object("[r: {[a: 1]}]"))
        message = "^formula is nested 400 levels deep, too deep to execute$"
        with pytest.raises(NestingError, match=message):
            session.query(_chain(400))
        assert session.cache_info()["plan_misses"] == 0

    def test_a_deep_or_cyclic_parameter_value_is_named_not_the_formula(self):
        deep = 1
        for _ in range(3000):
            deep = {"a": deep}
        cyclic = {}
        cyclic["a"] = cyclic
        session = Session(seed=parse_object("[r: {1}]"))
        prepared = session.prepare("[r: {$p}]")
        calls = (lambda p: session.query("[r: {$p}]", {"p": p}), lambda p: prepared.all(p=p))
        for call in calls:
            with pytest.raises(NestingError, match="^value is nested 3000 levels deep"):
                call(deep)
            with pytest.raises(NestingError, match="^value is cyclic"):
                call(cyclic)
            assert call(1) == parse_object("[r: {1}]")
        # The same values as the query itself are refused at intake too.
        with pytest.raises(NestingError, match="^value is nested 3001 levels deep"):
            session.query({"r": deep})
        with pytest.raises(NestingError, match="^value is cyclic"):
            session.prepare(cyclic)

    def test_explain_names_a_bound_value_too_deep_to_print(self):
        value = 1
        for _ in range(300):
            value = {"a": value}
        session = Session(seed=parse_object("[r: {[a: 1]}]"))
        prepared = session.prepare("[r: {[a: $v]}]", lint="off")
        message = r"^value bound to \$v is nested 301 levels deep, too deep to print$"
        with pytest.raises(NestingError, match=message):
            session.explain(prepared, {"v": value})
        with pytest.raises(NestingError, match=message):
            prepared.explain(v=value)
        # Execute prints nothing, so it answers the same binding.
        assert prepared.execute(v=value).all() is BOTTOM
        assert prepared.execute(v=1).all() == parse_object("[r: {[a: 1]}]")
        assert "query plan: [r: {[a: 1]}]" in prepared.explain(v=1)


def _deep_formula(depth):
    """``[a: [a: ... X]]``, ``depth`` tuple formulae deep."""
    formula = Variable("X")
    for _ in range(depth):
        formula = TupleFormula(a=formula)
    return formula


class TestSessionReplacesTheRemovedEntryPoints:
    def test_program_closure_query(self):
        program = repro.Program.from_source(
            TestRulesAndClosures.RULES,
            database=parse_object(TestRulesAndClosures.FAMILY),
        )
        answer = Session.over_program(program).query(
            parse_formula("[doa: X]"), on_closure=True
        )
        assert answer == parse_object("[doa: {abraham, isaac, jacob}]")

    def test_session_over_an_existing_database_agrees_and_caches_its_plan(self):
        from repro.store.database import ObjectDatabase

        database = ObjectDatabase()
        database.put("r1", parse_object(PEOPLE))
        query = parse_formula("[r1: {[name: X]}]")
        session = Session(database=database)
        assert session.query(query) == baseline_interpret(query, database.as_object())
        session.query(query)
        assert session.cache_info()["plan_hits"] >= 1


class TestParameterSyntax:
    def test_parameters_parse_in_formulae_only(self):
        formula = parse_formula("[r1: {[name: $who]}]")
        assert formula.parameters() == frozenset({"who"})
        assert formula.variables() == frozenset()
        assert formula.to_text() == "[r1: {[name: $who]}]"

    def test_parameters_rejected_in_ground_objects(self):
        with pytest.raises(ReproError):
            parse_object("[name: $who]")

    def test_parameters_rejected_in_programs(self):
        from repro.parser import parse_program

        with pytest.raises(ReproError):
            parse_program("[doa: {$seed}].")

    def test_bare_dollar_is_a_lex_error(self):
        with pytest.raises(ReproError):
            parse_formula("[r1: $]")

    def test_spine_parameter_binds_like_a_constant(self, session):
        prepared = session.prepare("[r1: $value]")
        answer = prepared.execute(value=parse_object("{[name: peter, age: 25]}")).all()
        assert answer == parse_object("[r1: {[name: peter, age: 25]}]")

    def test_unbound_plan_execution_raises(self):
        from repro.plan import compile_body, match_plan

        plan = compile_body(parse_formula("[r1: {[name: $who]}]"))
        with pytest.raises(ParameterError):
            match_plan(plan, parse_object("[r1: {[name: peter]}]"))
