"""Unit tests for deterministic fault injection (repro.fault.injection)."""

import os

import pytest

from repro.core.builder import obj
from repro.core.errors import InjectedFault, StoreError
from repro.fault import injection
from repro.fault.injection import (
    FaultInjector,
    FaultSpec,
    KNOWN_POINTS,
    SimulatedCrash,
    TornWrite,
    active_injector,
    inject,
    install_from_env,
    parse_spec,
    uninstall,
)
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec("store.wal.fsync")
        assert spec.mode == "fail"
        assert spec.probability == 1.0
        assert spec.after == 0
        assert spec.times is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(StoreError):
            FaultSpec("p", mode="explode")

    def test_bad_probability_rejected(self):
        with pytest.raises(StoreError):
            FaultSpec("p", probability=1.5)

    def test_negative_after_rejected(self):
        with pytest.raises(StoreError):
            FaultSpec("p", after=-1)


class TestParseSpec:
    def test_point_only_defaults_to_fail(self):
        spec = parse_spec("store.wal.fsync")
        assert (spec.point, spec.mode) == ("store.wal.fsync", "fail")

    def test_full_spec(self):
        spec = parse_spec("store.wal.append:torn_crash:after=3,times=1,torn_bytes=7")
        assert spec.mode == "torn_crash"
        assert (spec.after, spec.times, spec.torn_bytes) == (3, 1, 7)

    def test_float_settings(self):
        spec = parse_spec("store.lock.write_held:delay:delay_ms=2.5,probability=0.5")
        assert spec.delay_ms == 2.5
        assert spec.probability == 0.5

    def test_missing_point_rejected(self):
        with pytest.raises(StoreError):
            parse_spec(":fail")

    def test_unknown_setting_rejected(self):
        with pytest.raises(StoreError):
            parse_spec("p:fail:bogus=1")


class TestInjector:
    def test_no_specs_never_fires(self):
        injector = FaultInjector([])
        assert injector.fire("anything") is None
        assert injector.hits("anything") == 1
        assert injector.fired() == 0

    def test_after_and_times_windows(self):
        injector = FaultInjector([FaultSpec("p", after=2, times=1)])
        assert injector.fire("p") is None
        assert injector.fire("p") is None
        with pytest.raises(InjectedFault):
            injector.fire("p")
        # ``times=1`` spent: the point goes quiet again.
        assert injector.fire("p") is None
        assert injector.fired("p") == 1

    def test_crash_mode_is_not_a_store_error(self):
        injector = FaultInjector([FaultSpec("p", mode="crash")])
        with pytest.raises(SimulatedCrash):
            injector.fire("p")
        assert not issubclass(SimulatedCrash, Exception)

    def test_torn_mode_returns_directive(self):
        injector = FaultInjector([FaultSpec("p", mode="torn", torn_bytes=5)])
        directive = injector.fire("p", size=100)
        assert directive == TornWrite(prefix=5, crash=False)

    def test_torn_prefix_is_shorter_than_payload(self):
        injector = FaultInjector([FaultSpec("p", mode="torn", torn_bytes=500)])
        directive = injector.fire("p", size=10)
        assert directive.prefix < 10

    def test_seeded_torn_prefixes_replay(self):
        def prefixes(seed):
            injector = FaultInjector([FaultSpec("p", mode="torn")], seed=seed)
            result = []
            for _ in range(5):
                result.append(injector.fire("p", size=1000).prefix)
            return result

        assert prefixes(7) == prefixes(7)
        assert prefixes(7) != prefixes(8)

    def test_seeded_probability_replays(self):
        def fired(seed):
            injector = FaultInjector(
                [FaultSpec("p", mode="delay", probability=0.5)], seed=seed
            )
            for _ in range(20):
                injector.fire("p")
            return injector.fired()

        assert fired(3) == fired(3)
        assert 0 < fired(3) < 20


class TestInstallation:
    def test_inject_scopes_and_restores(self):
        assert active_injector() is None
        with inject("p:fail") as injector:
            assert active_injector() is injector
            with inject("q:fail") as inner:
                assert active_injector() is inner
            assert active_injector() is injector
        assert active_injector() is None

    def test_fire_is_noop_when_nothing_installed(self):
        assert injection.fire("p") is None

    def test_install_from_env(self):
        injector = install_from_env(
            {
                "REPRO_FAULTS": "store.wal.fsync:fail:times=1;store.lock.write_held:delay:delay_ms=0",
                "REPRO_FAULT_SEED": "9",
            }
        )
        try:
            assert injector.seed == 9
            with pytest.raises(InjectedFault):
                injection.fire("store.wal.fsync")
            assert injection.fire("store.lock.write_held") is None  # delay of 0ms: just returns
        finally:
            uninstall()

    def test_empty_env_installs_nothing(self):
        assert install_from_env({}) is None
        assert active_injector() is None

    def test_env_with_an_unknown_point_fails_fast(self):
        # A typo would otherwise arm a point nothing fires: a chaos run testing nothing.
        with pytest.raises(StoreError) as raised:
            install_from_env({"REPRO_FAULTS": "store.wal.append:crash;store.wal.fsnc:fail"})
        message = str(raised.value)
        assert "REPRO_FAULTS" in message and "'store.wal.fsnc'" in message
        assert all(point in message for point in KNOWN_POINTS)
        assert active_injector() is None
        # Programmatic specs keep accepting any point.
        with inject("p:fail"):
            with pytest.raises(InjectedFault):
                injection.fire("p")

    def test_env_naming_the_removed_read_lock_point_fails_fast(self):
        # Readers take no lock, so there is no read-side hold to delay; the
        # name is assembled so a search for it finds no live use.
        removed = ".".join(("store", "lock", "read_held"))
        with pytest.raises(StoreError) as raised:
            install_from_env({"REPRO_FAULTS": f"{removed}:delay:delay_ms=5"})
        assert repr(removed) in str(raised.value)
        assert removed not in KNOWN_POINTS
        assert active_injector() is None

    def test_env_with_a_non_integer_seed_fails_fast(self):
        with pytest.raises(StoreError, match="REPRO_FAULT_SEED.*'abc'"):
            install_from_env({"REPRO_FAULTS": "store.wal.fsync:fail", "REPRO_FAULT_SEED": "abc"})
        assert active_injector() is None

    @pytest.mark.parametrize(
        "text, setting",
        [("store.wal.fsync:fail:after=x", "after"), ("p:delay:delay_ms=soon", "delay_ms")],
    )
    def test_a_non_numeric_setting_is_a_store_error_naming_it(self, text, setting):
        with pytest.raises(StoreError, match=f"setting '{setting}'"):
            parse_spec(text)
        with pytest.raises(StoreError, match=f"setting '{setting}'"):
            install_from_env({"REPRO_FAULTS": text})


class TestStoreWiring:
    """The injection points actually wired through the write-ahead log."""

    def test_fsync_failure_heals_and_store_stays_usable(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("before", obj(1))
        size = os.path.getsize(path)
        with inject("store.wal.fsync:fail:times=1"):
            with pytest.raises(InjectedFault):
                database.put("lost", obj(2))
        # Healing truncated the failed append; nothing half-written remains.
        assert os.path.getsize(path) == size
        assert database.get("lost") is None
        database.put("after", obj(3))
        database.close()
        reloaded = ObjectDatabase(FileStorage(path))
        assert reloaded.names() == ("after", "before")
        reloaded.close()

    def test_torn_append_failure_heals(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("before", obj(1))
        size = os.path.getsize(path)
        with inject("store.wal.append:torn:times=1"):
            with pytest.raises(InjectedFault):
                database.put("lost", obj(2))
        assert os.path.getsize(path) == size
        database.put("after", obj(3))
        database.close()

    def test_crash_poisons_instance_and_recovery_truncates(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("before", obj(1))
        size = os.path.getsize(path)
        with inject("store.wal.append:torn_crash:times=1"):
            with pytest.raises(SimulatedCrash):
                database.put("lost", obj(2))
        # The dead process appends nothing further...
        with pytest.raises(StoreError):
            database.put("after", obj(3))
        database.close()
        # ...and recovery truncates the torn tail back to the last commit.
        recovered = ObjectDatabase(FileStorage(path))
        assert recovered.names() == ("before",)
        assert os.path.getsize(path) == size
        recovered.put("after", obj(3))
        recovered.close()

    def test_compact_recovers_a_failed_engine(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = ObjectDatabase(FileStorage(path))
        database.put("keep", obj(1))
        with inject("store.wal.append:torn_crash:times=1"):
            with pytest.raises(SimulatedCrash):
                database.put("lost", obj(2))
        database.compact()
        database.put("after", obj(3))
        assert database.names() == ("after", "keep")
        database.close()

    def test_open_failure_fires_before_replay(self, tmp_path):
        path = str(tmp_path / "db.wal")
        with inject("store.wal.open:fail"):
            with pytest.raises(InjectedFault):
                FileStorage(path)
        assert not os.path.exists(path + ".quarantine")
