"""Integration tests: the instrumented pipeline reporting into repro.obs.

Every layer the tentpole instruments is exercised end to end against the
process registry — session query/closure traffic, plan-cache evictions and
invalidations (the cache_info monotonicity fix), slow-query logging, EXPLAIN
ANALYZE timings, store commits/conflicts, WAL appends and recovery, and the
CLI ``stats`` / ``--explain-analyze`` surfaces.
"""

import json
from pathlib import Path

import pytest

import repro
import repro.api
from repro.cli import main
from repro.core.errors import TransactionError
from repro.obs import metrics, trace
from repro.obs.metrics import REGISTRY
from repro.workloads import make_genealogy


@pytest.fixture
def tracer():
    installed = trace.enable(max_traces=64)
    installed.clear()
    yield installed
    trace.disable()


def _counter(name: str) -> int:
    return REGISTRY.counter(name).value


# -- session metrics ---------------------------------------------------------------------


def test_query_traffic_reaches_the_registry():
    queries_before = _counter("session.queries")
    latency_before = REGISTRY.histogram("session.query_ns").count
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.query("[r1: {[name: X]}]")
    assert _counter("session.queries") == queries_before + 1
    assert REGISTRY.histogram("session.query_ns").count == latency_before + 1


def test_plan_cache_counters_mirror_cache_info():
    hits_before = _counter("session.plan_cache.hits")
    misses_before = _counter("session.plan_cache.misses")
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        prepared = session.prepare("[r1: {[name: $who]}]")
        prepared.all(who="ada")
        prepared.all(who="ada")
        info = session.cache_info()
    assert info["plan_misses"] == 1 and info["plan_hits"] >= 1
    assert _counter("session.plan_cache.misses") == misses_before + 1
    assert _counter("session.plan_cache.hits") - hits_before == info["plan_hits"]


def test_the_readme_cache_info_table_is_complete():
    """One README row per ``cache_info()`` key, each registry name a declared one."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| `cache_info()` key"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    # indexes_cached is documented in the session index table above it.
    assert {row[0] for row in rows} == set(repro.Session().cache_info()) - {"indexes_cached"}
    declared = {*metrics.DECLARED_COUNTERS, *metrics.DECLARED_GAUGES, *metrics.DECLARED_HISTOGRAMS}
    named = {row[1] for row in rows} - {"—"}
    assert len(named) == 10 and named <= declared


def test_commit_invalidates_and_counts_the_stale_plan():
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.query("[r1: {[name: X]}]")
        session.put("r1", repro.parse_object("{[name: grace]}"))
        session.query("[r1: {[name: X]}]")
        info = session.cache_info()
    assert info["plan_invalidations"] >= 1
    assert info["plan_misses"] >= 2  # the re-plan after the commit


def test_cache_evictions_are_counted_and_cumulative(monkeypatch):
    monkeypatch.setattr(repro.api.snapshot, "_CACHE_LIMIT", 2)
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        for attribute in ("a", "b", "c", "d"):
            session.query(f"[r1: {{[{attribute}: X]}}]")
        info = session.cache_info()
    assert info["plan_evictions"] >= 2
    assert info["plans_cached"] <= 2
    # The hit/miss totals survive the evictions — cumulative, not reset.
    assert info["plan_misses"] == 4


def test_closure_cache_counters_and_last_stats():
    with repro.connect() as session:
        session.put("parent", repro.parse_object("{[of: {tom}, is: {bob}]}"))
        session.register("[anc: {X}] :- [parent: {[is: {X}]}].")
        session.close()
        session.close()  # cache hit
        info = session.cache_info()
        stats = session.stats()
    assert info["closure_misses"] == 1 and info["closure_hits"] == 1
    assert stats["closure"] is not None
    assert stats["closure"].summary()  # renders


def test_maintained_close_is_counted_and_traced(tracer):
    maintained_before = _counter("session.closure_cache.maintained")
    invalidations_before = _counter("session.closure_cache.invalidations")
    with repro.connect() as session:
        session.put("parent", repro.parse_object("{[of: {tom}, is: {bob}]}"))
        session.register("[anc: {X}] :- [parent: {[is: {X}]}].")
        session.close()
        session.put("parent", repro.parse_object("{[of: {tom}, is: {bob, ann}]}"))
        session.close()
        info = session.cache_info()
    assert info["closure_maintained"] == 1 and info["closure_invalidations"] == 1
    assert info["closure_misses"] == 2
    assert _counter("session.closure_cache.maintained") == maintained_before + 1
    assert _counter("session.closure_cache.invalidations") == invalidations_before + 1
    closes = [span for span in tracer.traces() if span.name == "session.close"]
    assert [span.attrs["mode"] for span in closes] == ["full", "delta"]
    runs = [
        child.attrs["resumed"]
        for span in closes
        for child in span.children
        if child.name == "engine.run"
    ]
    assert runs == [False, True]


def test_session_stats_exposes_the_last_query_run():
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada], [name: grace]}"))
        assert session.stats()["query"] is None
        session.query("[r1: {[name: X]}]")
        record = session.stats()["query"]
    assert record is not None
    assert record.match_attempts > 0


def test_engine_runs_feed_the_registry():
    runs_before = _counter("engine.runs")
    with repro.connect() as session:
        session.put("parent", repro.parse_object("{[of: {tom}, is: {bob}]}"))
        session.register("[anc: {X}] :- [parent: {[is: {X}]}].")
        session.close()
    assert _counter("engine.runs") == runs_before + 1


# -- slow-query log ----------------------------------------------------------------------


def test_slow_query_log_records_query_params_and_rows():
    with repro.connect(slow_query_ms=0.0) as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.prepare("[r1: {[name: $who]}]").all(who="ada")
        entries = session.slow_queries()
    assert len(entries) == 1
    entry = entries[0]
    assert "$who" in entry["query"]
    assert entry["params"] == {"who": "ada"}
    assert entry["elapsed_ms"] >= 0
    assert entry["rows"] >= 1


def test_slow_query_log_stays_empty_when_unarmed():
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.query("[r1: {[name: X]}]")
        assert session.slow_queries() == []


def test_slow_query_log_carries_the_trace(tracer):
    with repro.connect(slow_query_ms=0.0) as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.query("[r1: {[name: X]}]")
        entry = session.slow_queries()[-1]
    assert entry["trace_id"] is not None
    assert "session.execute" in entry["trace"]


def test_fast_queries_stay_out_of_an_armed_log():
    with repro.connect(slow_query_ms=60_000.0) as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.query("[r1: {[name: X]}]")
        assert session.slow_queries() == []
    assert _counter("session.slow_queries") >= 0  # counter exists either way


# -- EXPLAIN ANALYZE ---------------------------------------------------------------------


def test_session_explain_analyze_shows_wall_time():
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        plain = session.explain("[r1: {[name: X]}]")
        analyzed = session.explain("[r1: {[name: X]}]", analyze=True)
    assert "substitutions (actual)" in plain
    assert " in " not in plain.splitlines()[-1]
    assert "substitutions (actual) in " in analyzed
    assert "time " in analyzed  # the per-leaf timing note


def test_seeded_explain_analyze_shows_wall_time():
    session = repro.Session.over_object(repro.parse_object("[r1: {[name: ada]}]"))
    analyzed = session.explain("[r1: {[name: X]}]", analyze=True)
    assert "substitutions (actual) in " in analyzed


def test_program_explain_carries_per_leaf_times():
    program = repro.Program(
        repro.parse_program("[anc: {X}] :- [parent: {[is: {X}]}]."),
        database=repro.parse_object("[parent: {[of: {tom}, is: {bob}]}]"),
    )
    rendered = program.explain()
    assert "substitutions (actual) in " in rendered


# -- store metrics -----------------------------------------------------------------------


def test_commits_and_conflicts_reach_the_registry():
    commits_before = _counter("store.commits")
    conflicts_before = _counter("store.conflicts")
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        db = session.database
        with pytest.raises(TransactionError):
            transaction_a = db.transaction()
            transaction_b = db.transaction()
            transaction_a.put("r1", repro.parse_object("{[name: grace]}"))
            transaction_b.put("r1", repro.parse_object("{[name: linus]}"))
            transaction_a.commit()
            transaction_b.commit()
    assert _counter("store.commits") > commits_before
    assert _counter("store.conflicts") == conflicts_before + 1


def test_access_path_counters_mirror_access_stats():
    names = ("query_scans", "query_root_pushdowns", "query_index_shortcircuits")
    before = {name: _counter(f"store.index.{name}") for name in names}
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.query("[r1: {[name: X]}]")
        session.explain("[r1: {[name: X]}]")
        local = session.database.access_stats
    assert {name: local[name] for name in names} == {
        "query_scans": 1, "query_root_pushdowns": 0, "query_index_shortcircuits": 0,
    }
    assert {name: _counter(f"store.index.{name}") - before[name] for name in names} == {
        "query_scans": 1, "query_root_pushdowns": 0, "query_index_shortcircuits": 0,
    }


def test_wal_append_and_recovery_metrics(tmp_path):
    path = str(tmp_path / "obs.wal")
    appends_before = _counter("store.wal.appends")
    bytes_before = _counter("store.wal.bytes")
    fsyncs_before = _counter("store.wal.fsyncs")
    with repro.connect(path) as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.put("r2", repro.parse_object("{[name: grace]}"))
    assert _counter("store.wal.appends") == appends_before + 2
    assert _counter("store.wal.bytes") > bytes_before
    assert _counter("store.wal.fsyncs") == fsyncs_before + 2

    recoveries_before = _counter("store.wal.recoveries")
    replayed_before = _counter("store.wal.records_replayed")
    with repro.connect(path) as session:
        assert session.names() == ("r1", "r2")
    assert _counter("store.wal.recoveries") == recoveries_before + 1
    assert _counter("store.wal.records_replayed") == replayed_before + 2


def test_torn_tail_recovery_is_counted(tmp_path):
    path = str(tmp_path / "torn.wal")
    with repro.connect(path) as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"op": "commit", "writes"')  # no newline: torn tail
    torn_before = _counter("store.wal.torn_bytes_dropped")
    with repro.connect(path) as session:
        assert session.names() == ("r1",)
    assert _counter("store.wal.torn_bytes_dropped") > torn_before


def test_commit_spans_appear_in_traces(tracer):
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
    names = [span.name for span in tracer.traces()]
    assert "store.commit" in names


def test_wal_spans_nest_under_the_commit(tracer, tmp_path):
    with repro.connect(str(tmp_path / "spans.wal")) as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
    commit_roots = [
        span for span in tracer.traces() if span.name == "store.commit"
    ]
    assert commit_roots
    child_names = {child.name for child in commit_roots[-1].children}
    assert "store.wal.append" in child_names


def test_engine_round_spans_carry_delta_sizes(tracer):
    with repro.connect() as session:
        session.put(
            "parent",
            repro.parse_object(
                "{[of: ann, is: bob], [of: bob, is: cal], [of: cal, is: dan]}"
            ),
        )
        session.register(
            "[anc: {[of: X, is: Y]}] :- [parent: {[of: X, is: Y]}].\n"
            "[anc: {[of: X, is: Z]}] :- [anc: {[of: X, is: Y]},"
            " parent: {[of: Y, is: Z]}]."
        )
        session.close()

    rounds = []
    for root in tracer.traces():
        rounds.extend(_spans_named(root, "engine.round"))
    assert rounds, "closure evaluation opened no engine.round spans"
    modes = {span.attrs.get("mode") for span in rounds}
    assert "full" in modes and "delta" in modes


def test_engine_head_spans_count_every_derived_row(tracer):
    tree = make_genealogy(5, 3)
    with repro.connect() as session:
        session.put("family", tree.family_object.get("family"))
        session.register(
            "[doa: {%s}]. [doa: {X}] :- "
            "[family: {[name: Y, children: {[name: X]}]}, doa: {Y}]." % tree.root
        )
        result = session.close()
    rounds = [span for root in tracer.traces() for span in _spans_named(root, "engine.round")]
    heads = [
        (span.attrs["mode"], head.attrs["rows"])
        for span in rounds
        for head in _spans_named(span, "engine.head")
    ]
    assert {mode for mode, _ in heads} == {"full", "delta"}
    assert sum(rows for _, rows in heads) == result.stats.subobjects_derived == 363


def _spans_named(span, name):
    found = [span] if span.name == name else []
    for child in span.children:
        found.extend(_spans_named(child, name))
    return found


# -- the one-JSON-document contract ------------------------------------------------------


def test_snapshot_covers_engine_cache_index_and_wal():
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.query("[r1: {[name: X]}]")
    document = repro.obs.snapshot()
    counters = document["counters"]
    assert counters["session.queries"] >= 1
    assert counters["store.commits"] >= 1
    assert "engine.runs" in counters
    assert "session.plan_cache.hits" in counters
    assert "store.index.query_scans" in counters
    assert "store.wal.appends" in counters
    assert document["histograms"]["session.query_ns"]["count"] >= 1
    json.dumps(document)


def test_memo_tables_are_gauges_sampled_at_snapshot_time():
    from repro.obs.metrics import DECLARED_GAUGES

    repro.clear_object_caches()
    # Big enough to clear the small-pair gate that bypasses the memo.
    left = repro.obj({"a": [{"x": i, "y": [i, i + 1]} for i in range(4)]})
    right = repro.obj({"a": [{"x": i, "y": [i, i + 1]} for i in range(5)]})
    assert repro.is_subobject(left, right)
    cold = repro.obs.snapshot()["gauges"]
    assert repro.is_subobject(left, right)
    warm = repro.obs.snapshot()["gauges"]
    assert {name for name in warm if name.startswith("core.memo.")} == {
        name for name in DECLARED_GAUGES if name.startswith("core.memo.")
    }
    assert cold["core.memo.subobject_entries"] == warm["core.memo.subobject_entries"] >= 1
    assert warm["core.memo.subobject_hit_rate"] > cold["core.memo.subobject_hit_rate"]
    # The sets carrying tables: a table built on ``right.a``, one derived by ``add``.
    rows = right.get("a")
    session = repro.Session()
    session.put("rows", rows)
    session.query("{[x: 1, y: Y]}", against="rows")
    grown = rows.add(repro.obj({"x": 9}))
    carrying = repro.obs.snapshot()["gauges"]
    assert carrying["core.memo.set_tables_entries"] >= 2
    assert carrying["core.memo.set_tables_hit_rate"] > 0.0
    repro.clear_object_caches()
    cleared = repro.obs.snapshot()["gauges"]
    assert cleared["core.memo.subobject_entries"] == 0
    assert cleared["core.memo.set_tables_entries"] == 0
    assert rows._tables is None and grown._index is None
    assert 0.0 <= cleared["core.memo.subobject_hit_rate"] <= 1.0


# -- CLI surfaces ------------------------------------------------------------------------


def test_cli_stats_prints_the_snapshot(capsys):
    assert main(["stats"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == repro.obs.SNAPSHOT_SCHEMA
    assert "session.queries" in document["counters"]


def test_cli_stats_opens_a_store_first(tmp_path, capsys):
    path = str(tmp_path / "cli.wal")
    assert main(["store", "--db-path", path, "put", "r1", "{[name: ada]}"]) == 0
    capsys.readouterr()
    recoveries_before = REGISTRY.counter("store.wal.recoveries").value
    assert main(["stats", "--db-path", path]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["counters"]["store.wal.recoveries"] == recoveries_before + 1


def test_cli_query_explain_analyze(capsys):
    code = main(
        [
            "query",
            "--database",
            "[r1: {[name: ada]}]",
            "[r1: {[name: X]}]",
            "--explain-analyze",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "substitutions (actual) in " in output


def test_cli_store_query_explain_analyze(tmp_path, capsys):
    path = str(tmp_path / "cli2.wal")
    assert main(["store", "--db-path", path, "put", "r1", "{[name: ada]}"]) == 0
    capsys.readouterr()
    code = main(
        ["store", "--db-path", path, "query", "[r1: {[name: X]}]", "--explain-analyze"]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "substitutions (actual) in " in output


def test_cli_plain_explain_is_unchanged(capsys):
    code = main(
        ["query", "--database", "[r1: {[name: ada]}]", "[r1: {[name: X]}]", "--explain"]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "substitutions (actual)" in output
    assert "substitutions (actual) in " not in output
