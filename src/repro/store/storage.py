"""The write-ahead log: how committed objects survive the process.

:class:`FileStorage` holds no objects.  The store's one ``name → object``
map is the state :class:`repro.store.database.ObjectDatabase` publishes per
commit; the log only makes each commit durable.  A commit is appended as a
single checksummed record (see :func:`repro.store.codec.frame_record`) and
fsynced once, whether it carries one write or a whole transaction's batch.
On open, the log is replayed and its objects are handed to the database
once; an unterminated final line is a *torn tail* left by a crash
mid-append and is truncated away, while a complete record that fails to
parse or fails its checksum is corruption and is quarantined.  A commit
logs, per name, the smaller of the object's image and its edit against the
version the database held (:func:`repro.store.updates.diff_object`);
:class:`LogReplay` folds the edits back in, for recovery and for ``repro
store verify`` alike.  ``compact(items)`` is the checkpoint: it rewrites the
log from the database's state, images only.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import StoreError
from repro.core.objects import ComplexObject
from repro.fault import injection as _fault
from repro.fault.injection import InjectedFault, SimulatedCrash
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY as _METRICS
from repro.store.codec import decode_json, encode_json, frame_record, parse_record
from repro.store.updates import _EditFold, _UnreducedEdits, diff_object

__all__ = ["FileStorage", "LogReplay"]


def _encode_edit(edit: dict) -> dict:
    if "put" in edit:
        return {"at": list(edit["at"]), "put": encode_json(edit["put"])}
    sides = {key: [encode_json(element) for element in edit[key]] for key in ("add", "del")}
    return {"at": list(edit["at"]), **sides}


def _decode_edit(entry: object) -> dict:
    """One logged edit back in :func:`~repro.store.updates.diff_object`'s form."""
    if isinstance(entry, dict):
        at, keys = entry.get("at"), entry.keys() - {"at"}
        if isinstance(at, list) and all(isinstance(step, str) and step for step in at):
            if keys == {"put"}:
                return {"at": tuple(at), "put": decode_json(entry["put"])}
            if keys == {"add", "del"} and all(isinstance(entry[key], list) for key in keys):
                sides = {key: [decode_json(element) for element in entry[key]] for key in keys}
                return {"at": tuple(at), **sides}
    raise StoreError(f"malformed edit: {entry!r}")


class LogReplay:
    """The one reader of commit records: a log folded back into its objects.

    Recovery (:class:`FileStorage`) and the offline verifier
    (:mod:`repro.store.verify`) both go through :meth:`of`, so what one
    accepts the other does.  :meth:`apply` decodes and validates a whole
    record against the state replayed so far **before** changing any of it —
    a malformed record can never be half-replayed.  Images replace a name;
    edits are folded per ``(name, set path)`` and each edited set is rebuilt
    once — when a ``put`` or an image overwrites it, or in :meth:`finish` —
    not once per record, so replay costs what the log holds.
    """

    def __init__(self):
        #: name → object; complete once :meth:`finish` has run.
        self.objects: Dict[str, ComplexObject] = {}
        self._folds: Dict[str, _EditFold] = {}
        #: Records applied, and how many of them carried an image / an edit.
        self.records = self.images = self.edits = 0
        #: Edit entries folded in, and sets built from them (once each).
        self.edits_replayed = self.sets_rebuilt = 0

    @classmethod
    def of(cls, raw: bytes) -> Tuple["LogReplay", Optional[Tuple[int, int, str]]]:
        """Replay ``raw`` (whole lines) up to its first corrupt record.

        Returns the finished replay of the intact prefix and ``None`` or the
        ``(byte offset, line number, reason)`` of the record that ends it.
        """
        corruption = None
        while True:
            replay = cls()
            found = replay._scan(raw)
            if found is None:
                return replay, corruption
            # Replay the prefix alone: a set that did not come out reduced is
            # charged to the last record folded into it, and the records
            # after that one were applied before the rebuild could say so.
            corruption = found
            raw = raw[: found[0]]

    def _scan(self, raw: bytes) -> Optional[Tuple[int, int, str]]:
        starts: List[int] = []
        offset = line_number = 0
        try:
            # ``raw`` is empty or newline-terminated, so the final split
            # element is always the empty tail.
            for line_number, raw_line in enumerate(raw.split(b"\n")[:-1], start=1):
                starts.append(offset)
                offset += len(raw_line) + 1
                if raw_line.strip():
                    self.apply(parse_record(raw_line.decode("utf-8")), line_number)
            self.finish()
        except UnicodeDecodeError as error:
            reason = f"not valid UTF-8 ({error})"
        except _UnreducedEdits as error:
            line_number, reason = error.since, str(error)
        except (StoreError, ValueError, TypeError) as error:
            # The last two: what decoding a checksummed but ill-typed image
            # raises until the codec's errors are typed (ROADMAP 6(c)).
            reason = str(error)
        else:
            return None
        return starts[line_number - 1], line_number, reason

    def apply(self, record: dict, line_number: int) -> None:
        """Replay one parsed record; a :class:`StoreError` leaves the state as it was."""
        operation = record.get("op")
        if operation != "commit":
            raise StoreError(
                f"corrupt record (unknown op {operation!r}) at line {line_number}"
            )
        writes, edits = record.get("writes"), record.get("edits", {})
        if not isinstance(writes, dict) or not isinstance(edits, dict):
            raise StoreError(
                f"corrupt commit record (missing writes) at line {line_number}"
            )
        images = {
            name: None if data is None else decode_json(data)
            for name, data in writes.items()
        }
        staged = []
        for name, entries in edits.items():
            if name in images or name not in self.objects or not isinstance(entries, list):
                raise StoreError(
                    f"corrupt commit record (edits of {name!r}, which the record"
                    f" also writes whole or nothing stores) at line {line_number}"
                )
            fold = self._folds.get(name) or _EditFold(self.objects[name])
            decoded = [_decode_edit(entry) for entry in entries]
            staged.append((name, fold, fold.stage(decoded), len(decoded)))
        for name in [name for name in images if name in self._folds]:
            # The proof that its edits were sound, before the image buries them.
            self._rebuild(name)
        # Decoded and valid as a whole: nothing below can fail.
        for name, value in images.items():
            if value is None:
                self.objects.pop(name, None)
            else:
                self.objects[name] = value
        for name, fold, checked, count in staged:
            fold.commit(checked, line_number)
            self._folds[name] = fold
            self.edits_replayed += count
        self.records += 1
        self.images += any(value is not None for value in images.values())
        self.edits += bool(edits)

    def _rebuild(self, name: str) -> None:
        fold = self._folds.pop(name, None)
        if fold is not None:
            self.objects[name] = fold.rebuild()
            self.sets_rebuilt += fold.rebuilt

    def finish(self) -> None:
        """Rebuild every set still folded; :attr:`objects` is whole afterwards."""
        for name in list(self._folds):
            self._rebuild(name)


class FileStorage:
    """The write-ahead log of a store: one append-only file.

    Each committed batch is one line: ``{"op": "commit", "writes": {name:
    encoded-object-or-null, ...}, "edits": {name: [edit, ...]}, "crc": ...}``
    (``null`` deletes the name; ``edits`` only when some name's edit against
    the version held is smaller than its image — see :meth:`apply_batch`).
    That is the only record shape: a complete line of any other, without a
    matching ``crc``, or whose edits do not describe the object they name,
    is corruption.

    Recovery discipline on open:

    * a final line with no terminating newline is a **torn tail** — the crash
      happened mid-append, the commit never completed, and the tail is
      truncated off so the next append starts at a record boundary;
    * a newline-terminated record that fails to parse, fails its checksum, or
      has an unknown shape is **corruption**: the corrupt record *and
      everything after it* — replaying past a gap would break prefix
      consistency — move verbatim into the ``<path>.quarantine`` sidecar,
      the log is truncated back to the last intact record, and the damage is
      reported on :attr:`quarantined_records` / :attr:`quarantined_bytes`
      (and the ``store.wal.quarantined_*`` metrics), so the store opens with
      the longest intact prefix and no committed byte is silently discarded.
      :func:`repro.store.verify.verify_wal` names the record without moving
      it.

    The replayed objects wait for :meth:`recovered`, which hands them over
    once, to the database that opens the log.

    Failed appends self-heal: if the append or its fsync raises (a real
    ``OSError`` or an injected fault), the log is truncated back to the
    record boundary before the attempt so a partial line can never corrupt
    the commits that follow; only when that healing itself fails does the
    log mark itself failed and reject further writes.
    """

    def __init__(self, path: str):
        self.path = path
        self.quarantine_path = path + ".quarantine"
        self.torn_bytes_dropped = 0
        self.quarantined_records = 0
        self.quarantined_bytes = 0
        self._failed = False
        if _fault.ACTIVE is not None:
            _fault.fire("store.wal.open")
        self._recovered: Optional[Dict[str, ComplexObject]] = self._replay()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = os.path.getsize(self.path)

    def recovered(self) -> Dict[str, ComplexObject]:
        """The objects replayed on open: handed over once, then forgotten."""
        objects, self._recovered = self._recovered, None
        if objects is None:
            raise StoreError(f"storage log {self.path!r} is already open in a database")
        return objects

    # -- log handling ------------------------------------------------------------
    def _replay(self) -> Dict[str, ComplexObject]:
        if not os.path.exists(self.path):
            return {}
        with _trace.span("store.wal.recovery") as span:
            with open(self.path, "rb") as handle:
                raw = handle.read()
            if raw and not raw.endswith(b"\n"):
                boundary = raw.rfind(b"\n") + 1
                self.torn_bytes_dropped = len(raw) - boundary
                raw = raw[:boundary]
                with open(self.path, "r+b") as handle:
                    handle.truncate(boundary)
                    handle.flush()
                    os.fsync(handle.fileno())
            replay, corruption = LogReplay.of(raw)
            if corruption is not None:
                self._quarantine(raw, corruption[0])
            if span.enabled:
                span.set(
                    path=self.path,
                    records=replay.records,
                    edits=replay.edits_replayed,
                    sets_rebuilt=replay.sets_rebuilt,
                    torn_bytes=self.torn_bytes_dropped,
                    quarantined_records=self.quarantined_records,
                )
        _METRICS.counter("store.wal.recoveries").inc()
        _METRICS.counter("store.wal.records_replayed").inc(replay.records)
        _METRICS.counter("store.wal.edits_replayed").inc(replay.edits_replayed)
        _METRICS.counter("store.wal.torn_bytes_dropped").inc(self.torn_bytes_dropped)
        return replay.objects

    def _quarantine(self, raw: bytes, offset: int) -> None:
        """Move the corrupt record at ``offset`` and all after it to the sidecar."""
        blob = raw[offset:]
        records = sum(1 for chunk in blob.split(b"\n") if chunk.strip())
        with open(self.quarantine_path, "ab") as sidecar:
            sidecar.write(blob)
            sidecar.flush()
            os.fsync(sidecar.fileno())
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
        self.quarantined_records = records
        self.quarantined_bytes = len(blob)
        _METRICS.counter("store.wal.quarantined_records").inc(records)
        _METRICS.counter("store.wal.quarantined_bytes").inc(len(blob))

    def _append(self, line: str) -> None:
        if self._failed:
            raise StoreError(
                f"storage {self.path!r} is failed: an earlier append error"
                " could not be healed; reopen the store to recover"
            )
        start_ns = time.perf_counter_ns()
        base = self._size
        with _trace.span("store.wal.append") as span:
            if span.enabled:
                span.set(bytes=len(line))
            try:
                torn = None
                if _fault.ACTIVE is not None:
                    torn = _fault.fire("store.wal.append", size=len(line))
                if torn is not None:
                    # A torn-write directive: persist only a prefix, then
                    # fail (healed below) or crash (left torn on disk for
                    # recovery to truncate, exactly like a real power cut).
                    prefix = line[: torn.prefix]
                    self._handle.write(prefix)
                    self._handle.flush()
                    self._size = base + len(prefix)
                    if torn.crash:
                        raise SimulatedCrash(
                            f"simulated crash mid-append to {self.path!r}"
                        )
                    raise InjectedFault(
                        f"injected partial append to {self.path!r}"
                    )
                self._handle.write(line)
                self._handle.flush()
                self._size = base + len(line)
                with _trace.span("store.wal.fsync"):
                    if _fault.ACTIVE is not None:
                        _fault.fire("store.wal.fsync")
                    os.fsync(self._handle.fileno())
            except SimulatedCrash:
                # The simulated process death: leave the bytes exactly where
                # they landed (recovery handles the torn state) and poison
                # this instance — a dead process appends nothing further.
                self._failed = True
                raise
            except InjectedFault:
                self._heal(base)
                raise
            except OSError as error:
                self._heal(base)
                raise StoreError(
                    f"write-ahead log append to {self.path!r} failed: {error}"
                ) from error
        _METRICS.counter("store.wal.appends").inc()
        _METRICS.counter("store.wal.bytes").inc(len(line))
        _METRICS.counter("store.wal.fsyncs").inc()
        _METRICS.histogram("store.wal.append_ns").observe(
            time.perf_counter_ns() - start_ns
        )

    def _heal(self, offset: int) -> None:
        """Truncate a failed append back to the last good record boundary.

        Best-effort: when the healing itself fails the log marks itself
        failed and rejects further appends (the on-disk prefix up to
        ``offset`` stays valid either way — recovery re-truncates a torn
        tail on the next open).
        """
        _METRICS.counter("store.wal.healed_appends").inc()
        try:
            self._handle.flush()
        except OSError:
            # Unknown bytes may still sit in the text-wrapper buffer; they
            # could leak into a later write, so stop accepting appends.
            self._failed = True
        try:
            with open(self.path, "r+b") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())
            self._size = offset
        except OSError:
            self._failed = True

    # -- the commit path ------------------------------------------------------------
    def apply_batch(self, changes: Mapping[str, Optional[ComplexObject]], held) -> None:
        """Append ``changes`` (name → value, ``None`` deletes) as one fsynced record.

        ``held`` is the state the commit was validated against (a
        :class:`repro.store.database._State`): a name logs its edit against
        ``held``'s version when that names fewer nodes than its image, the
        image otherwise.  The whole record is encoded and framed before the
        log is touched, so a failure — a value nested too deeply to encode
        included — leaves the log as it was.
        """
        writes, edits = {}, {}
        try:
            for name, value in changes.items():
                edit = None if value is None else diff_object(held.get(name), value)
                if edit is None:
                    writes[name] = None if value is None else encode_json(value)
                else:
                    edits[name] = [_encode_edit(entry) for entry in edit]
            record = {"op": "commit", "writes": writes}
            if edits:
                record["edits"] = edits
            line = frame_record(record)
        except RecursionError:
            written = ", ".join(repr(name) for name, value in changes.items() if value is not None)
            raise StoreError(f"cannot log {written}: nested too deeply to encode") from None
        self._append(line)
        images = sum(data is not None for data in writes.values())
        _METRICS.counter("store.wal.image_records").inc(images)
        _METRICS.counter("store.wal.edit_records").inc(len(edits))
        # The commit span is the caller's (ObjectDatabase.commit_batch); only
        # the log knows which form each name took.
        tracer = _trace.current_tracer()
        commit = tracer.active() if tracer is not None else None
        if commit is not None and commit.name == "store.commit":
            commit.set(images=images, edits=len(edits))

    def compact(self, items: Iterable[Tuple[str, ComplexObject]]) -> None:
        """Rewrite the log as one image record per ``(name, object)`` of ``items``.

        The checkpoint: the database passes its current state's items.
        """
        temporary = self.path + ".compact"
        with open(temporary, "w", encoding="utf-8") as handle:
            for name, value in items:
                handle.write(frame_record({"op": "commit", "writes": {name: encode_json(value)}}))
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        os.replace(temporary, self.path)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = os.path.getsize(self.path)
        # A full rewrite from the database's state recovers a failed log.
        self._failed = False

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
