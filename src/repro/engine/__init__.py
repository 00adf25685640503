"""repro.engine — the closure engine for calculus rule sets.

The fixpoint of :mod:`repro.calculus.fixpoint` — the paper's definition, and
this engine's oracle — re-matches every rule body against the entire
database on every round.  This subsystem brings the evaluation technology
the flat Datalog layer already enjoys to the complex-object calculus itself:

* :mod:`repro.engine.dependency` — a rule dependency graph whose
  strongly-connected components, in topological order, are the scheduler's
  strata: non-recursive strata are applied once, recursive ones iterated;
* :mod:`repro.engine.delta` — semi-naive delta decomposition of rule bodies,
  so each round only matches against sub-objects contributed by the previous
  round (with a full-matching fallback for bodies that cannot be decomposed);
* :mod:`repro.engine.indexes` — match indexes over set elements keyed by
  attribute paths of body formulae, maintained incrementally as the closure
  grows;
* :mod:`repro.engine.stats` — the :class:`EngineStats` instrumentation record;
* :mod:`repro.engine.core` — :class:`SemiNaiveEngine`, the one engine behind
  ``Session.close()``, ``Program.evaluate()``, ``close_under`` and the CLI.

Quick use::

    from repro import Program

    program = Program.from_source(source, database=db)
    result = program.evaluate()
    print(result.stats.summary())
"""

from repro.engine.core import EngineResult, SemiNaiveEngine, create_engine
from repro.engine.delta import BodyDecomposition, DeltaPosition, decompose, new_set_elements
from repro.engine.dependency import DependencyGraph, Stratum, access_paths
from repro.engine.indexes import IndexStore, MatchIndex, element_keys
from repro.engine.stats import EngineStats

__all__ = [
    "BodyDecomposition",
    "DeltaPosition",
    "DependencyGraph",
    "EngineResult",
    "EngineStats",
    "IndexStore",
    "MatchIndex",
    "SemiNaiveEngine",
    "Stratum",
    "access_paths",
    "create_engine",
    "decompose",
    "element_keys",
    "new_set_elements",
]
