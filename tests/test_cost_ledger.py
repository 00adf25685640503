"""The cost ledger (tools/cost_ledger.py): its checker, and a subset of COST.json re-measured."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
spec = importlib.util.spec_from_file_location(
    "cost_ledger", REPO_ROOT / "tools" / "cost_ledger.py"
)
ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger)

#: Cells re-measured in tier-1: a flat workload op with its reopen (both
#: scales) and four contracts, about 15 s.
SUBSET = [
    "bom_join.op",
    "bom_join.reopen",
    "lint.warn_vs_off",
    "obs.disabled_vs_stripped",
    "api.materialise_vs_first_row",
    "plan.source_vs_cost_ordered",
]


def scaled(low, high, ops=10):
    return {"1": {"ops": ops, "calls": low}, "3": {"ops": ops, "calls": high}}


def sides(name, numerator, denominator):
    over, under, _, _ = ledger.CONTRACTS[name]
    return {over: {"calls": numerator}, under: {"calls": denominator}}


class TestChecker:
    """Fabricated records: every way a cell can fail, and the ways it passes."""

    def test_an_unchanged_cell_passes(self):
        cell = scaled(1000, 1000)
        assert ledger.verdicts({"bom_join.op": cell}, {"bom_join.op": cell}) == []

    def test_a_count_that_rose_fails(self):
        fresh = scaled(1000, 1001)
        (failure,) = ledger.verdicts({"bom_join.op": fresh}, {"bom_join.op": scaled(1000, 1000)})
        assert "3.calls rose 1000 → 1001" in failure

    def test_a_hot_count_that_rose_fails(self):
        recorded = scaled(1000, 1000)
        fresh = copy.deepcopy(recorded)
        fresh["3"]["_bucket"] = 1
        (failure,) = ledger.verdicts({"bom_join.op": fresh}, {"bom_join.op": recorded})
        assert "3._bucket rose 0 → 1" in failure

    def test_a_count_that_fell_fails_until_updated(self):
        fresh, recorded = {"bom_join.op": scaled(990, 990)}, {"bom_join.op": scaled(1000, 1000)}
        failures = ledger.verdicts(fresh, recorded)
        assert len(failures) == 2 and all("fell" in f and "--update" in f for f in failures)
        assert ledger.verdicts(fresh, recorded, update=True) == []

    def test_a_flat_cell_at_1_3_fails(self):
        cell = scaled(1000, 1300)
        (failure,) = ledger.verdicts({"bom_join.op": cell}, {"bom_join.op": cell})
        assert "flat allows ×1.2" in failure

    def test_a_linear_cell_may_triple(self):
        cell = scaled(1000, 3000, ops=1)
        assert ledger.verdicts({"bom_join.reopen": cell}, {"bom_join.reopen": cell}) == []
        cell = scaled(1000, 3700, ops=1)
        assert ledger.verdicts({"bom_join.reopen": cell}, {"bom_join.reopen": cell})

    def test_a_strict_xfail_cell_that_passes_fails(self):
        growth, owner = ledger.SCALED["adhoc_frontend.template2"]
        assert (growth, owner) == ("flat", "20")
        missing = scaled(1000, 1500)
        assert ledger.verdicts({"adhoc_frontend.template2": missing},
                               {"adhoc_frontend.template2": missing}) == []
        flat = scaled(1000, 1000)
        (failure,) = ledger.verdicts({"adhoc_frontend.template2": flat},
                                     {"adhoc_frontend.template2": flat})
        assert "strict xfail passes" in failure and "item 20" in failure

    def test_a_ratio_under_its_floor_fails(self):
        cell = sides("shapes.blind_vs_pruned", 2900, 1000)
        (failure,) = ledger.verdicts({"shapes.blind_vs_pruned": cell},
                                     {"shapes.blind_vs_pruned": cell})
        assert "bound >= 3.0" in failure

    def test_a_ratio_over_its_ceiling_fails(self):
        cell = sides("obs.disabled_vs_stripped", 1060, 1000)
        (failure,) = ledger.verdicts({"obs.disabled_vs_stripped": cell},
                                     {"obs.disabled_vs_stripped": cell})
        assert "bound <= 1.05" in failure

    def test_an_unrecorded_cell_fails_until_updated(self):
        cell = scaled(1000, 1000)
        assert ledger.verdicts({"bom_join.op": cell}, {})
        assert ledger.verdicts({"bom_join.op": cell}, {}, update=True) == []


def test_every_declared_cell_is_recorded_and_holds_its_gate():
    recorded = json.loads((REPO_ROOT / "COST.json").read_text())["cells"]
    assert sorted(recorded) == sorted([*ledger.SCALED, *ledger.CONTRACTS])
    assert ledger.verdicts(recorded, recorded) == []


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="COST.json holds CPython 3.11's counts: comprehension inlining in 3.12"
    " changes call counts",
)
def test_a_subset_re_measures_exactly():
    recorded = json.loads((REPO_ROOT / "COST.json").read_text())["cells"]
    fresh = ledger.measure(SUBSET)
    assert sorted(fresh) == sorted(SUBSET)
    assert ledger.verdicts(fresh, recorded) == []


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="COST.json holds CPython 3.11's counts: comprehension inlining in 3.12"
    " changes call counts",
)
def test_a_dependency_graph_bound_cell_counts_alike_under_another_hash_seed():
    """COST.json is recorded under PYTHONHASHSEED=0.  Registering rules builds a
    DependencyGraph, whose path tests stop at the first hit: over paths in
    formula order they stop at the same pair under every seed."""
    recorded = json.loads((REPO_ROOT / "COST.json").read_text())["cells"]
    fresh = ledger.measure(["obs.disabled_vs_stripped"], hash_seed="123")
    assert ledger.verdicts(fresh, recorded) == []
