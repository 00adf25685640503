"""repro.fault — deterministic fault injection and cooperative deadlines.

The robustness toolkit the store and session layers are tested (and hardened)
with:

* :mod:`repro.fault.injection` — seeded, deterministic fault injection:
  named injection points wired through the store (``store.wal.open``,
  ``store.wal.append``, ``store.wal.fsync``, ``store.lock.write_held``)
  fire failures, simulated crashes, torn writes or
  artificial delays according to installed :class:`FaultSpec` rules.
  Installation is a context manager (:func:`inject`) or the ``REPRO_FAULTS``
  environment variable; with nothing installed every call site is one global
  ``None`` check, a cost ``benchmarks/run_fault_benchmarks.py`` pins at
  ≤1.05x a hook-stripped baseline;
* :mod:`repro.fault.deadline` — the :class:`Deadline` object behind
  ``Session.execute(..., timeout_ms=)``, checked cooperatively at executor
  instance steps and engine fixpoint-round boundaries;
* :mod:`repro.fault.sweep` — the crash-consistency sweep harness: simulate a
  crash at every WAL append/fsync boundary (and every byte offset) of a
  scripted workload and assert recovery is exactly a prefix of the committed
  history.  Import it explicitly (``repro.fault.sweep``); it depends on the
  store, which itself imports :mod:`repro.fault.injection`, so it is not
  loaded here.
"""

from repro.core.errors import InjectedFault, LockTimeout, QueryTimeout
from repro.fault.deadline import Deadline
from repro.fault.injection import (
    FaultInjector,
    FaultSpec,
    KNOWN_POINTS,
    SimulatedCrash,
    active_injector,
    fire,
    inject,
    install,
    install_from_env,
    parse_spec,
    uninstall,
)

__all__ = [
    "Deadline",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "KNOWN_POINTS",
    "LockTimeout",
    "QueryTimeout",
    "SimulatedCrash",
    "active_injector",
    "fire",
    "inject",
    "install",
    "install_from_env",
    "parse_spec",
    "uninstall",
]
