"""The six session-level workloads, by the names ``BENCHMARK.json`` fixes."""

from e2e.workloads.bom import BomJoin
from e2e.workloads.closure import ClosureAfterWrite, GenealogyClosure
from e2e.workloads.docs import AdhocFrontend, DocMixed
from e2e.workloads.ingest import IngestRecover

__all__ = ["BY_NAME"]

BY_NAME = {
    cls.name: cls
    for cls in (
        GenealogyClosure, ClosureAfterWrite, BomJoin, DocMixed, AdhocFrontend, IngestRecover
    )
}
