"""``ingest_recover``: small commits into an empty store, compaction, a torn crash."""

from __future__ import annotations

import os
from typing import Dict, List

import repro
from repro.core.objects import Atom, SetObject, TupleObject
from repro.fault import FaultSpec, SimulatedCrash, inject

from e2e import expect
from e2e.workloads.base import ProbeInputs, Workload
from e2e.workloads.docs import AUTHORS, WORDS

__all__ = ["IngestRecover"]


class IngestRecover(Workload):
    """One commit per op: 70 % a single put, 20 % a 10-put transaction, 10 % an overwrite.

    ``compact()`` five times a run, every 2 000 commits at the nominal 10 000,
    the last one half a period before the end.  The commit after the last
    op is hit by a ``torn_crash`` at ``store.wal.append``: it is never
    acknowledged, and the reopened store must hold exactly the acknowledged
    prefix (a dict model).
    """

    name = "ingest_recover"
    SETUPS = 20  # 100 ms each
    REOPENS = 8  # each replays every commit since the last compaction

    def __init__(self, seed, scale, seconds, directory):
        super().__init__(seed, scale, seconds, directory)
        self.ops = self.count(round(10_000 * scale), floor=30)
        kinds = ["put"] * (self.ops * 7 // 10) + ["batch"] * (self.ops * 2 // 10)
        kinds += ["overwrite"] * (self.ops - len(kinds))
        self.rng.shuffle(kinds)
        self.kinds: List[str] = kinds
        self.compact_every = max(2, self.ops // 5)
        self.model = expect.IngestModel()
        self.names: List[str] = []
        self.serial = 0
        self.lost = 0
        #: Size of the log after each timed ``compact()``, summed.
        self.compact_bytes = 0

    def _record(self) -> TupleObject:
        rng = self.rng
        self.serial += 1
        return TupleObject(
            {
                "id": Atom(self.serial),
                "owner": Atom(rng.choice(AUTHORS)),
                "size": Atom(rng.randrange(1000)),
                "score": Atom(round(rng.uniform(0, 100), 3)),
                "tags": SetObject(Atom(word) for word in rng.sample(WORDS, 3)),
                "note": Atom("n%08d" % rng.randrange(10**8)),
                "body": Atom("x%040d" % rng.randrange(10**40)),
            }
        )

    def _changes(self, kind: str) -> Dict[str, TupleObject]:
        """The seeded content of one commit (generated outside the timed op)."""
        if kind == "overwrite" and self.names:
            return {self.rng.choice(self.names): self._record()}
        count = 10 if kind == "batch" else 1
        return {f"k{self.serial + 1:07d}": self._record() for _ in range(count)}

    def _commit(self, changes: Dict[str, TupleObject]) -> None:
        session = self.session
        if len(changes) == 1:
            ((name, value),) = changes.items()
            session.put(name, value)
        else:
            def work(txn):
                for name, value in changes.items():
                    txn.put(name, value)

            session.transact(work)

    def _acknowledged(self, changes) -> None:
        for name in changes:
            if name not in self.model.acked:
                self.names.append(name)
        self.model.acknowledge(changes)

    def setup(self) -> None:
        self.session = repro.connect(self.wal_path)
        for kind in ("put", "batch", "overwrite") * self.count(100, floor=4):
            changes = self._changes(kind)
            self._commit(changes)
            self._acknowledged(changes)
            self.loaded.extend(changes.values())

    def run(self, clock) -> None:
        for index, kind in enumerate(self.kinds):
            changes = self._changes(kind)
            self.wrote(*changes.values())
            before = clock.failed
            clock.step("op", lambda: self._commit(changes))
            if clock.failed == before:
                self._acknowledged(changes)
            if index % self.compact_every == self.compact_every // 2:
                # Not an op, but the client waits for it.
                clock.step("compact", self.session.compact)
                self.compact_bytes += os.path.getsize(self.wal_path)
        self._torn_crash()

    def _torn_crash(self) -> None:
        """The process dies mid-append: the bytes stay torn, nothing is acknowledged."""
        changes = self._changes("put")
        try:
            with inject(FaultSpec("store.wal.append", mode="torn_crash"), seed=self.seed):
                self._commit(changes)
        except SimulatedCrash:
            return
        raise AssertionError("the injected torn crash did not fire")

    def first_read(self):
        return self.session.get(self.names[-1])

    def check_reopened(self, value) -> bool:
        self.lost = self.model.lost_in(self.session)
        return (
            value == self.model.acked[self.names[-1]]
            and not self.lost
            and set(self.session.names()) == set(self.model.acked)
        )

    def acked_lost(self) -> int:
        return self.lost

    def counters(self) -> Dict[str, float]:
        values = super().counters()
        values["store.compact_bytes_rewritten"] = float(self.compact_bytes)
        return values

    def probe_inputs(self) -> ProbeInputs:
        # No query text: the planner and the executor idle here.
        return ProbeInputs(
            written=[self.model.acked[name] for name in self.names[-200:]],
            build=lambda: [self._clone(name) for name in self.names[:500]],
        )

    def _clone(self, name):
        value = self.model.acked[name]
        return TupleObject(dict(value.items()))
