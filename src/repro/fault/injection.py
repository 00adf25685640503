"""Deterministic, zero-cost-when-disabled fault injection.

The store (and anything else that wants hardening) calls :func:`fire` at
named **injection points**.  With no injector installed — the shipped
default — ``fire`` is a single module-global ``None`` check; the call sites
in hot paths additionally guard with ``if injection.ACTIVE is not None`` so
the disabled cost is one global load.  ``benchmarks/run_fault_benchmarks.py``
pins that cost at ≤1.05x a baseline with the hooks monkeypatched away.

With an injector installed (the :func:`inject` context manager, or the
``REPRO_FAULTS`` environment variable for whole-process activation), each
point consults its :class:`FaultSpec` rules **deterministically**: hit
counting is exact and any probabilistic firing draws from one seeded
``random.Random``, so a failing run replays bit-for-bit from its seed.

Four modes:

``fail``
    raise :class:`~repro.core.errors.InjectedFault` — a
    :class:`~repro.core.errors.StoreError`, so the failure surfaces to
    callers exactly like the real I/O error it simulates (and the store's
    self-healing runs);
``crash``
    raise :class:`SimulatedCrash` — deliberately *not* a ``StoreError``:
    it models the process dying, bypasses all recovery paths, and is caught
    only by crash harnesses (:mod:`repro.fault.sweep`);
``torn``/``torn_crash``
    for write-shaped points called with ``size=``: return a
    :class:`TornWrite` directive telling the caller to persist only a
    prefix of the payload, then fail (``torn``) or crash (``torn_crash``);
``delay``
    sleep ``delay_ms`` at the point — e.g. while a lock is held, to force
    contention and :class:`~repro.core.errors.LockTimeout` deterministically.

Spec strings (used by ``REPRO_FAULTS`` and :func:`parse_spec`) look like
``point:mode`` with optional ``key=value`` settings::

    REPRO_FAULTS="store.wal.fsync:fail:after=3,times=1" python -m repro ...
    REPRO_FAULTS="store.wal.append:torn_crash;store.wal.fsync:delay:delay_ms=5"
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

from repro.core.errors import InjectedFault, StoreError
from repro.obs.metrics import REGISTRY as _METRICS

__all__ = [
    "ACTIVE",
    "FaultInjector",
    "FaultSpec",
    "KNOWN_POINTS",
    "SimulatedCrash",
    "TornWrite",
    "active_injector",
    "fire",
    "inject",
    "install",
    "install_from_env",
    "parse_spec",
    "uninstall",
]

_MODES = ("fail", "crash", "torn", "torn_crash", "delay")

#: Every injection point wired through the code base.  The registry is the
#: single source of truth the invariant checker (``tools/check_invariants.py``)
#: holds ``fire("...")`` call sites against: a point fired in code but absent
#: here (or vice versa) fails the static-analysis CI job, so the sweep
#: harness and the docs can never drift from the real fault surface.
KNOWN_POINTS = frozenset(
    {
        "store.wal.open",
        "store.wal.append",
        "store.wal.fsync",
        "store.lock.write_held",
    }
)


class SimulatedCrash(BaseException):
    """The injected process death: the crash harness's control exception.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so no
    ``except StoreError``/``except Exception`` recovery path can swallow it
    — a crash is not handled, it simply stops the world mid-operation,
    leaving whatever bytes already reached the file exactly where they are.
    Only crash harnesses (:mod:`repro.fault.sweep` and the tests) catch it.
    """


class TornWrite(NamedTuple):
    """Directive returned by :func:`fire` for ``torn``/``torn_crash`` modes."""

    #: How many characters/bytes of the payload to persist before failing.
    prefix: int
    #: ``True`` to raise :class:`SimulatedCrash` after the partial write,
    #: ``False`` to raise :class:`~repro.core.errors.InjectedFault`.
    crash: bool


@dataclass
class FaultSpec:
    """One injection rule: where, what, and when it fires.

    ``point`` names the injection point; ``mode`` is one of ``fail``,
    ``crash``, ``torn``, ``torn_crash``, ``delay``.  ``after`` skips the
    first N hits of the point, ``times`` caps how often the spec fires
    (``None`` = unbounded), ``probability`` < 1 fires on a seeded coin flip.
    ``delay_ms`` is the ``delay`` mode's sleep; ``torn_bytes`` pins the torn
    prefix length (otherwise it is drawn, seeded, in ``[0, size)``).
    """

    point: str
    mode: str = "fail"
    probability: float = 1.0
    after: int = 0
    times: Optional[int] = None
    delay_ms: float = 0.0
    torn_bytes: Optional[int] = None
    message: str = ""

    def __post_init__(self):
        if self.mode not in _MODES:
            raise StoreError(
                f"unknown fault mode {self.mode!r} (expected one of:"
                f" {', '.join(_MODES)})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise StoreError(
                f"fault probability must be in [0, 1], got {self.probability!r}"
            )
        if self.after < 0:
            raise StoreError(f"fault 'after' must be >= 0, got {self.after!r}")


class FaultInjector:
    """The installed rule set: specs indexed by point, plus seeded state.

    Thread-safe: hit counters and the RNG are guarded by one lock, so a
    multi-writer workload under injection stays deterministic in *totals*
    (per-thread interleaving is the scheduler's business, as in production).
    """

    def __init__(self, specs: Sequence[FaultSpec], *, seed: int = 0):
        self.seed = seed
        self._specs: Dict[str, List[FaultSpec]] = {}
        for spec in specs:
            self._specs.setdefault(spec.point, []).append(spec)
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._hits: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}

    # -- introspection -----------------------------------------------------------------
    def hits(self, point: str) -> int:
        """How many times ``point`` was reached (fired or not)."""
        with self._lock:
            return self._hits.get(point, 0)

    def fired(self, point: Optional[str] = None) -> int:
        """How many faults fired — at ``point``, or in total."""
        with self._lock:
            if point is None:
                return sum(self._fired.values())
            return sum(
                count
                for spec_id, count in self._fired.items()
                if any(id(spec) == spec_id for spec in self._specs.get(point, ()))
            )

    # -- the hot path ------------------------------------------------------------------
    def fire(self, point: str, *, size: Optional[int] = None) -> Optional[TornWrite]:
        """Consult the rules for ``point``; raise, sleep, or direct a torn write."""
        specs = self._specs.get(point)
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            matched: Optional[FaultSpec] = None
            if specs:
                for spec in specs:
                    if hit <= spec.after:
                        continue
                    fired = self._fired.get(id(spec), 0)
                    if spec.times is not None and fired >= spec.times:
                        continue
                    if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                        continue
                    self._fired[id(spec)] = fired + 1
                    matched = spec
                    break
            if matched is not None and matched.mode in ("torn", "torn_crash"):
                payload = 0 if size is None else size
                if matched.torn_bytes is not None:
                    prefix = min(matched.torn_bytes, max(payload - 1, 0))
                else:
                    prefix = self._rng.randrange(payload) if payload > 1 else 0
        if matched is None:
            return None
        _METRICS.counter("fault.injected").inc()
        label = matched.message or f"injected {matched.mode} at {point}"
        if matched.mode == "delay":
            _METRICS.counter("fault.delays").inc()
            time.sleep(matched.delay_ms / 1000.0)
            return None
        if matched.mode == "fail":
            raise InjectedFault(label)
        if matched.mode == "crash":
            raise SimulatedCrash(label)
        return TornWrite(prefix=prefix, crash=matched.mode == "torn_crash")


#: The process-wide installed injector, or ``None`` (the default).  Call
#: sites read this one global; keeping it a module attribute (not a function
#: call) is what makes the disabled cost a single load + ``is None`` test.
ACTIVE: Optional[FaultInjector] = None

_INSTALL_LOCK = threading.Lock()


def active_injector() -> Optional[FaultInjector]:
    """The currently-installed :class:`FaultInjector` (or ``None``)."""
    return ACTIVE


def fire(point: str, *, size: Optional[int] = None) -> Optional[TornWrite]:
    """Fire ``point`` against the installed injector; no-op when none is."""
    injector = ACTIVE
    if injector is None:
        return None
    return injector.fire(point, size=size)


def install(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` process-wide (replacing any previous one)."""
    global ACTIVE
    with _INSTALL_LOCK:
        ACTIVE = injector
    return injector


def uninstall() -> None:
    """Remove the installed injector; every point goes back to zero-cost."""
    global ACTIVE
    with _INSTALL_LOCK:
        ACTIVE = None


class _Injection:
    """Context manager installing specs on enter, restoring on exit."""

    def __init__(self, specs: Sequence[FaultSpec], seed: int):
        self.injector = FaultInjector(specs, seed=seed)
        self._previous: Optional[FaultInjector] = None

    def __enter__(self) -> FaultInjector:
        global ACTIVE
        with _INSTALL_LOCK:
            self._previous = ACTIVE
            ACTIVE = self.injector
        return self.injector

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        global ACTIVE
        with _INSTALL_LOCK:
            ACTIVE = self._previous
        return False


def inject(*specs: Union[FaultSpec, str], seed: int = 0) -> _Injection:
    """Scoped installation: ``with inject(spec, ...) as injector: ...``.

    Accepts :class:`FaultSpec` objects and/or spec strings (see
    :func:`parse_spec`).  The previous injector (usually ``None``) is
    restored on exit, so scopes nest.
    """
    parsed = [
        spec if isinstance(spec, FaultSpec) else parse_spec(spec) for spec in specs
    ]
    return _Injection(parsed, seed)


def parse_spec(text: str) -> FaultSpec:
    """Parse ``point[:mode[:key=value,...]]`` into a :class:`FaultSpec`."""
    parts = text.strip().split(":")
    if not parts or not parts[0]:
        raise StoreError(f"malformed fault spec {text!r}: missing injection point")
    point = parts[0]
    mode = parts[1] if len(parts) > 1 and parts[1] else "fail"
    settings: Dict[str, Union[int, float]] = {}
    if len(parts) > 2 and parts[2]:
        for assignment in parts[2].split(","):
            key, separator, value = assignment.partition("=")
            key = key.strip()
            if not separator or key not in (
                "probability",
                "after",
                "times",
                "delay_ms",
                "torn_bytes",
            ):
                raise StoreError(
                    f"malformed fault spec {text!r}: bad setting {assignment!r}"
                )
            try:
                settings[key] = float(value) if key in ("probability", "delay_ms") else int(value)
            except ValueError:
                raise StoreError(
                    f"malformed fault spec {text!r}: setting {key!r} is not a number: {value!r}"
                ) from None
    return FaultSpec(point=point, mode=mode, **settings)


def install_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[FaultInjector]:
    """Install an injector from ``REPRO_FAULTS`` / ``REPRO_FAULT_SEED``.

    ``REPRO_FAULTS`` holds ``;``-separated spec strings; an empty or absent
    variable installs nothing.  Called once at import, so ``REPRO_FAULTS=...
    python -m repro ...`` activates injection for the whole process.
    Either one malformed is a :class:`StoreError` naming it — a point outside
    :data:`KNOWN_POINTS` included: nothing fires it, so the run would test nothing.
    """
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_FAULTS", "").strip()
    if not raw:
        return None
    specs = [parse_spec(chunk) for chunk in raw.split(";") if chunk.strip()]
    for spec in specs:
        if spec.point not in KNOWN_POINTS:
            raise StoreError(
                f"REPRO_FAULTS names unknown injection point {spec.point!r}"
                f" (known points: {', '.join(sorted(KNOWN_POINTS))})"
            )
    seed_text = env.get("REPRO_FAULT_SEED", "0")
    try:
        seed = int(seed_text)
    except ValueError:
        raise StoreError(f"REPRO_FAULT_SEED must be an integer, got {seed_text!r}") from None
    return install(FaultInjector(specs, seed=seed))


install_from_env()
