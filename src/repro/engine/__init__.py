"""repro.engine — the closure engine for calculus rule sets.

The fixpoint of :mod:`repro.calculus.fixpoint` — the paper's definition, and
this engine's oracle — re-matches every rule body against the entire
database on every round.  This subsystem brings the evaluation technology
the flat Datalog layer already enjoys to the complex-object calculus itself:

* :mod:`repro.engine.delta` — semi-naive delta decomposition of rule bodies,
  so each round only matches against sub-objects contributed by the previous
  round (with a full-matching fallback for bodies that cannot be decomposed);
* :mod:`repro.engine.core` — :class:`SemiNaiveEngine`, the one engine behind
  ``Session.close()``, ``Program.evaluate()`` and the CLI.

It schedules rules by the dependency graph of
:mod:`repro.calculus.dependency` (strongly-connected components in
topological order: non-recursive strata applied once, recursive ones
iterated), probes the match indexes of :mod:`repro.plan.indexes` (tables a
grown set derives from its parent's), and counts its work in
:class:`~repro.plan.stats.EngineStats`.

Quick use::

    from repro import Program

    program = Program.from_source(source, database=db)
    result = program.evaluate()
    print(result.stats.summary())
"""

from repro.engine.core import EngineResult, SemiNaiveEngine, create_engine
from repro.plan.stats import EngineStats

__all__ = ["EngineResult", "EngineStats", "SemiNaiveEngine", "create_engine"]
