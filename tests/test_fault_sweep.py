"""Unit tests for the crash-consistency sweep harness (repro.fault.sweep)."""

import pytest

from repro.core.builder import obj
from repro.fault.sweep import (
    BOUNDARIES,
    SweepReport,
    default_workload,
    run_crash_sweep,
    run_sweep,
    run_truncation_sweep,
)
from repro.fault.sweep import main as sweep_main


class TestWorkload:
    def test_workload_is_deterministic(self):
        assert default_workload(8) == default_workload(8)

    def test_workload_mixes_writes_and_deletes(self):
        batches = default_workload(10)
        assert any(None in batch.values() for batch in batches)
        assert any(len(batch) > 1 for batch in batches)

    def test_workload_logs_edits_beside_whole_writes_and_deletes(self, tmp_path):
        """Every commit after the first edits the growing set — and the sweep cuts it."""
        import json

        from repro.fault.sweep import _build_log

        batches = default_workload(5)
        sizes = [len(batch["ledger"].get("rows")) for batch in batches]
        assert sizes[-1] > sizes[0]
        path = str(tmp_path / "edits.wal")
        _build_log(path, batches, len(batches))
        records = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert "edits" not in records[0] and "ledger" in records[0]["writes"]
        kinds = set()
        for record in records[1:]:
            assert record["writes"], "an edit rides with a whole write in every batch"
            put, rows = record["edits"]["ledger"]
            assert put["at"] == ["batches"] and rows["at"] == ["rows"]
            kinds.add((bool(rows["add"]), bool(rows["del"])))
        assert kinds == {(True, False), (False, True), (True, True)}
        assert None in records[-1]["writes"].values()


class TestCrashSweep:
    def test_small_workload_passes(self, tmp_path):
        workload = default_workload(4)
        report = run_crash_sweep(workload, directory=str(tmp_path))
        assert report.passed, report.failures
        assert report.cases == 4 * len(BOUNDARIES)

    def test_single_commit_boundaries(self, tmp_path):
        report = run_crash_sweep(
            [{"only": obj(1)}], directory=str(tmp_path)
        )
        assert report.passed, report.failures
        assert report.cases == len(BOUNDARIES)


class TestTruncationSweep:
    def test_every_offset_recovers_a_prefix(self, tmp_path):
        workload = default_workload(3)
        report = run_truncation_sweep(workload, directory=str(tmp_path))
        assert report.passed, report.failures
        # One case per byte offset (0..size inclusive).
        assert report.cases > 100

    def test_strided_sweep_still_covers_record_boundaries(self, tmp_path):
        workload = default_workload(3)
        full = run_truncation_sweep(workload, directory=str(tmp_path / "full"))
        strided = run_truncation_sweep(
            workload, directory=str(tmp_path / "strided"), stride=97
        )
        assert strided.passed, strided.failures
        assert strided.cases < full.cases
        # The boundaries (where the expected state changes) are always kept:
        # 3 commits + offset 0, plus the strided samples.
        assert strided.cases >= 4

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            run_truncation_sweep(stride=0)


class TestReportAndCli:
    def test_report_merge_and_summary(self):
        report = SweepReport(cases=3).merge(SweepReport(cases=2, failures=["x"]))
        assert report.cases == 5
        assert not report.passed
        assert report.summary() == "FAIL: 4/5 cases"
        assert SweepReport(cases=2).summary() == "PASS: 2/2 cases"

    def test_run_sweep_combines_both_harnesses(self, tmp_path):
        report = run_sweep(batches=2, stride=61, directory=str(tmp_path))
        assert report.passed, report.failures
        assert report.cases > 2 * len(BOUNDARIES)

    def test_cli_smoke_exits_zero(self, capsys):
        assert sweep_main(["--smoke", "--batches", "2", "--stride", "89"]) == 0
        assert "PASS" in capsys.readouterr().out
