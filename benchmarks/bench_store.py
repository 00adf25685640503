"""B10 — object-store throughput: inserts, lookups, pattern search, codec,
commits and recovery.

Measures the database substrate rather than the calculus itself:

* bulk insert of generated documents into an in-memory store;
* point lookup by name;
* pattern search (``find``), a scan of the stored objects;
* JSON codec round-trip of a large object (what the file-backed engine pays
  per write);
* transaction commit throughput on the in-memory engine and on the
  fsync-per-commit write-ahead log;
* recovery time: replaying a WAL back into a live database.
"""

from functools import lru_cache

import pytest

from repro import parse_object
from repro.core.builder import obj
from repro.store.codec import from_json_text, to_json_text
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage
from repro.workloads import make_document_collection

SIZES = [200, 1000]


@lru_cache(maxsize=None)
def _documents(count: int):
    collection = make_document_collection(count, 3, 4, rng=count)
    return tuple(collection.get("docs"))


def _loaded_database(count: int) -> ObjectDatabase:
    database = ObjectDatabase()
    for position, document in enumerate(_documents(count)):
        database.put(f"doc{position}", document)
    return database


@pytest.mark.benchmark(group="B10-insert")
@pytest.mark.parametrize("count", SIZES)
def test_bulk_insert(benchmark, count):
    documents = _documents(count)

    def run():
        database = ObjectDatabase()
        for position, document in enumerate(documents):
            database.put(f"doc{position}", document)
        return database

    database = benchmark(run)
    assert len(database) == count


@pytest.mark.benchmark(group="B10-lookup")
@pytest.mark.parametrize("count", SIZES)
def test_point_lookup(benchmark, count):
    database = _loaded_database(count)
    name = f"doc{count // 2}"
    result = benchmark(database.get, name)
    assert result is not None


@pytest.mark.benchmark(group="B10-find")
@pytest.mark.parametrize("count", SIZES)
def test_pattern_search_scan(benchmark, count):
    database = _loaded_database(count)
    pattern = parse_object(f"[title: doc{count - 1}]")
    matches = benchmark(database.find, pattern)
    assert len(matches) == 1


@pytest.mark.benchmark(group="B10-codec")
@pytest.mark.parametrize("count", [200])
def test_codec_round_trip(benchmark, count):
    collection = make_document_collection(count, 3, 4, rng=1)

    def run():
        return from_json_text(to_json_text(collection))

    assert benchmark(run) == collection


@pytest.mark.benchmark(group="B10-commit")
@pytest.mark.parametrize("writes_per_commit", [1, 16])
def test_commit_throughput_memory(benchmark, writes_per_commit):
    database = ObjectDatabase()
    payloads = [obj({"slot": position}) for position in range(writes_per_commit)]

    def run():
        with database.transaction() as txn:
            for position, payload in enumerate(payloads):
                txn.put(f"slot{position}", payload)

    benchmark(run)
    assert len(database) == writes_per_commit


@pytest.mark.benchmark(group="B10-commit")
@pytest.mark.parametrize("writes_per_commit", [16])
def test_commit_throughput_wal(benchmark, writes_per_commit, tmp_path):
    database = ObjectDatabase(FileStorage(str(tmp_path / "db.wal")))
    payloads = [obj({"slot": position}) for position in range(writes_per_commit)]

    def run():
        with database.transaction() as txn:
            for position, payload in enumerate(payloads):
                txn.put(f"slot{position}", payload)

    benchmark(run)
    assert len(database) == writes_per_commit
    database.close()


@pytest.mark.benchmark(group="B10-recovery")
@pytest.mark.parametrize("count", [200])
def test_wal_recovery(benchmark, count, tmp_path):
    path = str(tmp_path / "db.wal")
    seeding = ObjectDatabase(FileStorage(path))
    for position, document in enumerate(_documents(count)):
        seeding.put(f"doc{position}", document)
    seeding.close()

    def run():
        database = ObjectDatabase(FileStorage(path))
        names = database.names()
        database.close()
        return names

    assert len(benchmark(run)) == count

