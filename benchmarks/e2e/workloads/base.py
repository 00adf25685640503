"""What the six workloads share: sizing, the session lifecycle, probe inputs."""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.core.objects import ComplexObject
from repro.store.codec import dumps_object

from e2e.metrics import NOMINAL_SECONDS

__all__ = ["ProbeInputs", "ProbeQuery", "Workload", "sized", "tree_generations"]


def sized(per_run: int, seconds: float, floor: int = 1) -> int:
    """``per_run`` at the nominal ``--seconds``, scaled to a run of ``seconds``."""
    return max(floor, round(per_run * seconds / NOMINAL_SECONDS))


def tree_generations(scale: float, base: int) -> int:
    """Generations of the ternary tree whose node count is nearest ``base * scale``."""
    target = max(base * scale, 1.0)
    return min(
        range(1, 10), key=lambda g: abs(math.log(((3 ** (g + 1) - 1) // 2) / target))
    )


@dataclass
class ProbeQuery:
    """One of the workload's query texts, with what the session runs it on."""

    text: str
    params: Dict[str, object]
    target: ComplexObject


@dataclass
class ProbeInputs:
    """The workload's own inputs, handed to the per-layer probes (``layers.py``)."""

    queries: List[ProbeQuery] = field(default_factory=list)
    rules_text: str = ""
    #: The object the registered rules close (the engine probe's input).
    database: Optional[ComplexObject] = None
    #: Values the user wrote (codec probes).
    written: List[ComplexObject] = field(default_factory=list)
    #: Builds the workload's objects from generator output (``core.build_norm``).
    build: Optional[Callable[[], object]] = None
    #: What one op hands to ``core.union_all``; derived from the first query
    #: when empty.
    union_objects: List[ComplexObject] = field(default_factory=list)
    #: Clear the memoised lattice results before each engine/union probe: the
    #: closure ops never find their own earlier results in those caches, so a
    #: probe re-run on one object must not either.
    cold_caches: bool = False


class Workload:
    """One session-level scenario.

    Construction generates the inputs from the seed; :meth:`setup` loads the
    store, registers rules and warms up (together they are ``setup_s``);
    :meth:`run` performs every timed step through the clock; :meth:`reopen`
    is ``shutdown() → connect(path) →`` first verified read.
    """

    name = ""
    #: Timed set-ups at the nominal ``--seconds``, all before the timed section
    #: (``setup_s`` is their median): more where one takes milliseconds, so
    #: that every workload's burst of them lasts a second or so.
    SETUPS = 30
    #: ``shutdown() → connect(path) →`` verified read cycles at the nominal
    #: ``--seconds`` (``reopen_norm`` is their median); fewer where one
    #: cycle replays a long log.
    REOPENS = 20

    def __init__(self, seed: int, scale: float, seconds: float, directory: str):
        self.seed = seed
        self.seconds = seconds
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.rng = random.Random(seed)
        self.session: Optional[repro.Session] = None
        self.wal_path = os.path.join(directory, "store.wal")
        #: The values :meth:`setup` stored; the harness counts them with
        #: :meth:`wrote` outside the timed set-up.
        self.loaded: List[ComplexObject] = []
        #: ``dumps_object`` bytes of the values the user wrote.
        self.user_bytes = 0

    # -- sizing -------------------------------------------------------------------------
    def count(self, per_run: int, floor: int = 1) -> int:
        return sized(per_run, self.seconds, floor)

    def wrote(self, *values: ComplexObject) -> None:
        self.user_bytes += sum(len(dumps_object(value)) for value in values)

    # -- lifecycle ----------------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run(self, clock) -> None:
        raise NotImplementedError

    def reopen(self):
        """``shutdown() → connect(path) →`` the first read (checked by the caller)."""
        self.session.shutdown()
        self.session = repro.connect(self.wal_path)
        return self.first_read()

    def first_read(self):
        raise NotImplementedError

    def check_reopened(self, value) -> bool:
        raise NotImplementedError

    def acked_lost(self) -> int:
        """Acknowledged writes the reopened store cannot return."""
        return 0

    def discard(self) -> None:
        if self.session is not None:
            self.session.shutdown()
            self.session = None

    # -- the traced pass ----------------------------------------------------------------
    def probe_inputs(self) -> ProbeInputs:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Per-layer counts this workload's own session knows."""
        values = {
            "engine.rederived_share": 0.0,
            "store.compact_bytes_rewritten": 0.0,
        }
        values.update(cache_rates(self.session))
        return values

    def comparisons(self) -> Dict[str, float]:
        """The paper's own comparisons, where this workload is the right place."""
        return {
            "calculus.oracle_ratio": 0.0,
            "datalog.closure_ratio": 0.0,
            "relational.join_ratio": 0.0,
        }


def cache_rates(session) -> Dict[str, float]:
    info = session.cache_info()
    access = session.database.access_stats
    plans = info["plan_hits"] + info["plan_misses"]
    closures = info["closure_hits"] + info["closure_misses"]
    indexed = access["query_root_pushdowns"] + access["query_index_shortcircuits"]
    queries = indexed + access["query_scans"]
    return {
        "api.plan_cache_hit_rate": info["plan_hits"] / plans if plans else 0.0,
        "api.plan_invalidations": float(info["plan_invalidations"]),
        "api.closure_cache_hit_rate": info["closure_hits"] / closures if closures else 0.0,
        "store.access.index_share": indexed / queries if queries else 0.0,
    }


def best_of(fn: Callable[[], object], repeats: int = 3) -> Tuple[float, object]:
    """(fastest wall time, last result) — for the down-scaled paper comparisons."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result
