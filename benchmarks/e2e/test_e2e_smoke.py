"""Smoke test of the end-to-end benchmark (collected by the tier-1 command).

Every workload, at a twentieth of its size and a sliver of its run length,
must emit every metric under exactly the names ``BENCHMARK.json`` fixes, with
finite values and no failed op; the frozen reference kernel must still be the
frozen reference kernel.  Nothing here asserts a timing.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from e2e import calib, harness, metrics
from e2e.workloads import BY_NAME

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCALE, SECONDS = 0.05, 0.1

#: What each workload generates from its seed.
GENERATED = {
    "genealogy_closure": lambda w: w.family,
    "closure_after_write": lambda w: w.family,
    "bom_join": lambda w: w.objects["part"],
    "doc_mixed": lambda w: w.library,
    "adhoc_frontend": lambda w: w.docs,
    "ingest_recover": lambda w: w._record(),
}


def _run(name, tmp_path, *, seed, trace):
    return harness.run_workload(
        name, seed=seed, scale=SCALE, seconds=SECONDS, trace=trace, out_dir=str(tmp_path)
    )


def test_manifest_is_the_registry():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == metrics.manifest()
    assert [w.name for w in metrics.WORKLOADS] == list(BY_NAME)
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))


def test_reference_kernel_is_frozen():
    assert calib.kernel_pass() == calib.CHECKSUM


@pytest.mark.parametrize("name", list(BY_NAME))
def test_workload_emits_every_metric(name, tmp_path):
    for trace, spec in ((False, metrics.END_TO_END), (True, metrics.PER_LAYER)):
        result = _run(name, tmp_path, seed=20260927, trace=trace)
        assert result["failed"] == 0 and result["correct"], result["errors"]
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in spec]
        for metric in spec:
            reported = result["metrics"][metric.name]
            assert reported["unit"] == metric.unit
            assert math.isfinite(reported["value"]), metric.name
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())
    assert os.path.exists(tmp_path / f"trace-{name}.json")
    assert not [entry for entry in os.listdir(tmp_path) if entry.startswith("tmp-")]


@pytest.mark.parametrize("name", list(BY_NAME))
def test_another_seed_gives_other_inputs_and_no_failure(name, tmp_path):
    first, again, other = (
        GENERATED[name](BY_NAME[name](seed, SCALE, SECONDS, str(tmp_path / label)))
        for seed, label in ((7, "a"), (7, "b"), (8, "c"))
    )
    assert first == again and first != other
    assert _run(name, tmp_path, seed=8, trace=False)["failed"] == 0
