"""The WAL logs the edit, not the object (repro.store.storage).

Commit records carry the identity diff of a written value against the version
held whenever that is smaller than the image; recovery folds the edits back
in, one rebuild per edited set.  These tests pin the record shape, the round
trip, old logs, the corruption route, exact byte counts and the failure path.
"""

import json
import os
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs, parse_object
from repro.core.builder import obj
from repro.core.errors import StoreError
from repro.core.objects import Atom, SetObject, TupleObject
from repro.fault import InjectedFault, inject
from repro.store.codec import encode_json, frame_record, to_json_text
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage, LogReplay
from repro.store.updates import insert_element
from repro.store.verify import verify_wal

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "images_only.wal")


def _reopen(path):
    """The store over the log at ``path``, which must replay without quarantine."""
    assert not verify_wal(path)["corrupt_records"]
    log = FileStorage(path)
    assert log.quarantined_records == 0
    return ObjectDatabase(log)


def _stored(path):
    """What a clean reopen of the log at ``path`` holds, name → object."""
    database = _reopen(path)
    try:
        return database.snapshot()
    finally:
        database.close()


def _records(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _document(index):
    return obj(
        {
            "title": f"doc{index}",
            "author": ("john", "mary", "susan")[index % 3],
            "sections": [{"heading": f"s{n}", "length": index + n} for n in range(2)],
        }
    )


def _library(documents):
    return TupleObject({"docs": SetObject(_document(n) for n in range(documents)), "owner": Atom("mary")})


# -- (b) the round trip against a dict model ----------------------------------------------

_ROWS = st.integers(0, 40).map(lambda n: obj({"id": n % 20, "tag": f"t{n % 7}", "n": n}))
_NAMES = st.sampled_from(["ledger", "family", "misc"])
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _NAMES, st.integers(0, 3)),
        st.tuples(st.just("insert"), _NAMES, _ROWS),
        st.tuples(st.just("discard"), _NAMES, st.integers(0, 30)),
        st.tuples(st.just("update"), _NAMES, st.integers(0, 99)),
        st.tuples(st.just("merge"), _NAMES, _ROWS),
        st.tuples(st.just("remove"), _NAMES, st.none()),
        st.tuples(st.just("compact"), st.none(), st.none()),
        st.tuples(st.just("reopen"), st.none(), st.none()),
    ),
    min_size=4,
    max_size=25,
)


def _fresh(seed):
    rows = SetObject(obj({"id": n, "tag": f"t{(n + seed) % 7}", "n": n + seed}) for n in range(8))
    return TupleObject({"rows": rows, "count": Atom(seed)})


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(_STEPS)
    def test_random_histories_reopen_to_the_model_by_identity(self, tmp_path_factory, steps):
        path = str(tmp_path_factory.mktemp("wal") / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        model = {}
        for kind, name, argument in steps:
            if kind == "put":
                model[name] = database.put(name, _fresh(argument))
            elif kind == "compact":
                database.compact()
                assert all("edits" not in record for record in _records(path))
            elif kind == "reopen":
                database.close()
                database = _reopen(path)
            elif name in model:
                if kind == "insert":
                    model[name] = database.insert(name, "rows", argument)
                elif kind == "discard":
                    rows = model[name].get("rows").elements
                    model[name] = database.discard(name, "rows", rows[argument % len(rows)])
                elif kind == "update":
                    model[name] = database.update(name, "count", argument)
                elif kind == "merge":
                    model[name] = database.merge(name, obj({"rows": [argument]}))
                elif kind == "remove":
                    database.remove(name)
                    del model[name]
            assert dict(database.items()) == model
        database.close()
        assert verify_wal(path)["clean"]
        reopened = _reopen(path)
        assert dict(reopened.items()) == model
        assert all(reopened.get(name) is value for name, value in model.items())
        reopened.compact()
        reopened.close()
        assert all(set(record) == {"op", "writes", "crc"} for record in _records(path))
        checkpoint = _stored(path)
        assert all(checkpoint[name] is value for name, value in model.items())
        assert sorted(checkpoint) == sorted(model)

    def test_every_way_in_reaches_the_same_edit(self, tmp_path):
        """``txn.put`` of a rebuilt value, the helpers and a plain overwrite: one mechanism."""
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        library = database.put("library", _library(30))
        with database.transaction() as txn:
            txn.put("library", insert_element(txn.get("library"), "docs", _document(100)))
        database.insert("library", "docs", _document(101))
        database.discard("library", "docs", _document(3))
        database.update("library", "owner", "john")
        database.merge("library", obj({"docs": [_document(102)]}))
        rebuilt = parse_object(database.get("library").to_text())  # no shared Python object
        database.put("library", rebuilt.replace(owner=Atom("susan")))
        expected = database.get("library")
        database.close()
        first, *rest = _records(path)
        assert first["writes"]["library"] == encode_json(library) and "edits" not in first
        assert all(record["writes"] == {} for record in rest)
        assert [sorted(record["edits"]) for record in rest] == [["library"]] * 6
        assert [entry["at"] for record in rest for entry in record["edits"]["library"]] == [
            ["docs"], ["docs"], ["docs"], ["owner"], ["docs"], ["owner"],
        ]
        assert _stored(path)["library"] is expected


# -- (c) a log written before edits existed ---------------------------------------------------


class TestImagesOnlyLog:
    EXPECTED = {
        "library": "[docs: {[tags: {x, y}, title: a], [tags: {z}, title: c]}, owner: john]",
        "n": "{2, 3, 4}",
        "top": "[a: true]",
    }

    def test_the_parent_commits_log_replays_unchanged(self, tmp_path):
        path = str(tmp_path / "old.wal")
        shutil.copy(FIXTURE, path)
        before = open(path, "rb").read()
        assert all(set(record) == {"op", "writes", "crc"} for record in _records(path))
        assert {name: value.to_text() for name, value in _stored(path).items()} == {
            name: parse_object(text).to_text() for name, text in self.EXPECTED.items()
        }
        assert open(path, "rb").read() == before
        report = verify_wal(path)
        assert report["clean"] and (report["records"], report["images"], report["edits"]) == (5, 5, 0)

    def test_and_takes_edits_from_here_on(self, tmp_path):
        path = str(tmp_path / "old.wal")
        shutil.copy(FIXTURE, path)
        database = ObjectDatabase(FileStorage(path))
        database.put("n", parse_object("{2, 3, 4, 5}"))
        database.close()
        assert _records(path)[-1]["edits"] == {
            "n": [{"at": [], "add": [encode_json(obj(5))], "del": []}]
        }
        assert _stored(path)["n"] is parse_object("{2, 3, 4, 5}")


# -- (d) corruption is all-or-nothing ---------------------------------------------------------


def _edit_record(name="library", **entry):
    entry = {
        key: value if key == "at" else encode_json(value) if key == "put" else [encode_json(item) for item in value]
        for key, value in entry.items()
    }
    return {"op": "commit", "writes": {}, "edits": {name: [entry]}}


BAD_RECORDS = {
    "del-absent": _edit_record(at=["docs"], add=[], **{"del": [obj({"title": "nobody"})]}),
    "add-present": _edit_record(at=["docs"], add=[_document(0)], **{"del": []}),
    "no-set": _edit_record(at=["owner"], add=[obj(1)], **{"del": []}),
    "missing-path": _edit_record(at=["nowhere", "docs"], add=[obj(1)], **{"del": []}),
    "not-stored": _edit_record(name="ghost", at=["docs"], add=[obj(1)], **{"del": []}),
    "also-written": {
        **_edit_record(at=["owner"], put=obj("john")),
        "writes": {"library": encode_json(obj(1))},
    },
    "path-twice": {
        "op": "commit",
        "writes": {},
        "edits": {
            "library": [
                {"at": ["owner"], "put": encode_json(obj("a"))},
                {"at": ["owner"], "put": encode_json(obj("b"))},
            ]
        },
    },
    "malformed": {"op": "commit", "writes": {}, "edits": {"library": [{"at": "docs", "add": [], "del": []}]}},
    # Checksummed, well-shaped, and not an object: ``int("seven")`` while decoding.
    "ill-typed": _edit_record(at=["owner"], put=obj(7)) | {
        "edits": {"library": [{"at": ["owner"], "put": {"k": "a", "srt": "int", "v": "seven"}}]}
    },
    # A dominating element added without the ``del`` of what it subsumes.
    "unreduced": _edit_record(
        at=["docs"], add=[_document(0).replace(extra=Atom(1))], **{"del": []}
    ),
}


class TestCorruptEdits:
    @staticmethod
    def _log(path, bad):
        """Four records: an image, a good edit, ``bad``, and a commit after it."""
        database = ObjectDatabase(FileStorage(path))
        database.put("library", _library(6))
        intact = database.insert("library", "docs", _document(50))
        size = os.path.getsize(path)
        database.close()
        after = {"op": "commit", "writes": {"later": encode_json(obj(1))}}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(frame_record(bad) + frame_record(after))
        return intact, size

    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    def test_a_bad_edit_is_quarantined_with_everything_after_it(self, tmp_path, case):
        path = str(tmp_path / "store.wal")
        intact, size = self._log(path, BAD_RECORDS[case])
        whole = os.path.getsize(path)

        report = verify_wal(path)
        assert [damage["line"] for damage in report["corrupt_records"]] == [3]
        assert (report["records"], report["images"], report["edits"], report["objects"]) == (2, 1, 1, 1)
        assert os.path.getsize(path) == whole and not os.path.exists(path + ".quarantine")

        log = FileStorage(path)
        recovered = ObjectDatabase(log)
        assert recovered.names() == ("library",) and recovered.get("library") is intact
        assert (log.quarantined_records, log.quarantined_bytes) == (2, whole - size)
        assert os.path.getsize(path) == size
        assert os.path.getsize(path + ".quarantine") == whole - size
        recovered.close()

    def test_an_unreduced_fold_is_charged_to_the_last_record_that_leaves_it_so(self, tmp_path):
        """A sound edit after the bad one does not move the line reported."""
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        intact = database.put("library", _library(6))
        size = os.path.getsize(path)
        database.close()
        sound = _edit_record(at=["docs"], add=[_document(70)], **{"del": []})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(frame_record(BAD_RECORDS["unreduced"]) + frame_record(sound))
        assert verify_wal(path)["corrupt_records"][0]["line"] == 2
        log = FileStorage(path)
        recovered = ObjectDatabase(log)
        assert recovered.get("library") is intact and log.quarantined_records == 2
        assert os.path.getsize(path) == size
        recovered.close()

    def test_a_later_del_can_complete_an_add(self, tmp_path):
        """The proof is taken where the set is rebuilt, not per record."""
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("library", _library(6))
        database.close()
        completes = _edit_record(at=["docs"], add=[], **{"del": [_document(0)]})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(frame_record(BAD_RECORDS["unreduced"]) + frame_record(completes))
        assert verify_wal(path)["clean"]
        docs = _stored(path)["library"].get("docs")
        assert len(docs) == 6 and _document(0).replace(extra=Atom(1)) in docs

    def test_replay_validates_a_record_before_applying_any_of_it(self):
        replay = LogReplay()
        replay.apply({"op": "commit", "writes": {"a": encode_json(obj([1, 2, 3])), "b": encode_json(obj(1))}}, 1)
        mixed = {
            "op": "commit",
            "writes": {"b": None, "c": encode_json(obj(2))},
            "edits": {"a": [{"at": [], "add": [encode_json(obj(4))], "del": [encode_json(obj(9))]}]},
        }
        with pytest.raises(StoreError, match="does not hold"):
            replay.apply(mixed, 2)
        replay.finish()
        assert replay.objects == {"a": obj([1, 2, 3]), "b": obj(1)} and replay.records == 1


# -- (e) exact counts -------------------------------------------------------------------------


class TestExactCounts:
    def test_a_path_insert_logs_the_document_not_the_library(self, tmp_path):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        library = database.put("library", _library(200))
        image = os.path.getsize(path)
        document = _document(1000)
        database.put("library", insert_element(library, "docs", document))
        appended = os.path.getsize(path) - image
        database.close()
        assert appended < 2 * len(to_json_text(document)) < image / 50
        assert sorted(_records(path)[-1]["edits"]) == ["library"]

    def test_an_overwrite_of_a_small_record_is_the_image_it_always_was(self, tmp_path):
        """``ingest_recover``'s overwrite: seven attributes, all new — the parent's bytes."""
        rng = random.Random(7)

        def record(serial):
            return TupleObject(
                {
                    "id": Atom(serial),
                    "owner": Atom(rng.choice(["john", "mary"])),
                    "size": Atom(rng.randrange(1000)),
                    "score": Atom(round(rng.uniform(0, 100), 3)),
                    "tags": SetObject(Atom(word) for word in rng.sample(["a", "b", "c", "d", "e"], 3)),
                    "note": Atom("n%08d" % rng.randrange(10**8)),
                    "body": Atom("x%040d" % rng.randrange(10**40)),
                }
            )

        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("k1", record(1))
        for serial in range(2, 30):
            before = os.path.getsize(path)
            value = record(serial)
            database.put("k1", value)
            parent = frame_record({"op": "commit", "writes": {"k1": encode_json(value)}})
            assert os.path.getsize(path) - before == len(parent)
        database.close()
        assert open(path, encoding="utf-8").read().endswith(parent)

    def test_reopening_costs_one_rebuild_per_edited_set(self, tmp_path):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        library = database.put("library", _library(40))
        for index in range(25):
            library = database.insert("library", "docs", _document(100 + index))
        database.close()
        tracer = obs.enable_tracing()
        before = obs.snapshot()["counters"]["store.wal.edits_replayed"]
        try:
            reopened = ObjectDatabase(FileStorage(path))
        finally:
            obs.disable_tracing()
        assert reopened.get("library") is library
        recovery = [root for root in tracer.traces() if root.name == "store.wal.recovery"][-1]
        assert (recovery.attrs["records"], recovery.attrs["edits"], recovery.attrs["sets_rebuilt"]) == (26, 25, 1)
        assert obs.snapshot()["counters"]["store.wal.edits_replayed"] - before == 25
        reopened.close()


# -- (f) a failed append, and what a trace shows --------------------------------------------------


class TestFailureAndObservability:
    def test_a_failed_append_of_an_edit_heals_and_changes_nothing(self, tmp_path):
        path = str(tmp_path / "store.wal")
        database = ObjectDatabase(FileStorage(path))
        library = database.put("library", _library(20))
        size = os.path.getsize(path)
        grown = insert_element(library, "docs", _document(99))
        with inject("store.wal.append:fail"):
            with pytest.raises(InjectedFault):
                database.put("library", grown)
        assert database.get("library") is library and os.path.getsize(path) == size
        database.put("library", grown)
        database.close()
        assert len(_records(path)) == 2 and "edits" in _records(path)[1]
        assert _stored(path)["library"] is grown

    def test_a_mixed_batch_moves_both_counters_and_the_commit_span(self, tmp_path):
        database = ObjectDatabase(FileStorage(str(tmp_path / "store.wal")))
        library = database.put("library", _library(20))
        database.put("gone", obj(1))

        def counters():
            values = obs.snapshot()["counters"]
            return values["store.wal.image_records"], values["store.wal.edit_records"]

        images, edits = counters()
        tracer = obs.enable_tracing()
        try:
            database.commit_batch(
                {
                    "library": insert_element(library, "docs", _document(99)),
                    "small": obj({"a": 1}),
                    "gone": None,
                }
            )
            # An overwrite that is no smaller as an edit says so in the trace.
            database.put("small", obj({"b": 2}))
        finally:
            obs.disable_tracing()
        assert counters() == (images + 2, edits + 1)
        commits = [root for root in tracer.traces() if root.name == "store.commit"]
        assert [(span.attrs["images"], span.attrs["edits"]) for span in commits] == [(1, 1), (1, 0)]
        database.close()
