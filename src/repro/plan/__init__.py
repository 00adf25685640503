"""repro.plan — one query pipeline: logical plans, a cost-based optimizer, EXPLAIN.

The paper evaluates every rule by re-interpreting its body formula against the
whole database object.  Before this subsystem existed the repository had three
independent re-implementations of that step — the naive calculus matcher, the
semi-naive engine matcher and the algebra translator — each with its own
matching loop and no shared cost model.  ``repro.plan`` replaces them with one
compiled path:

* :mod:`repro.plan.ir` — the logical plan IR: scan / pattern-match / bind /
  select / check leaves of one body plan, with the order-independence
  argument that makes join reordering sound;
* :mod:`repro.plan.compile` — the rule-body compiler (formula → plan),
  cached on the immutable formula;
* :mod:`repro.plan.statistics` — spine-set cardinalities, and distinct-atom
  counts that are the sizes of the executor's bucket tables;
* :mod:`repro.plan.optimize` — the cost-based optimizer: greedy join
  reordering with bound-variable awareness, cross-product penalties and
  index access-path selection;
* :mod:`repro.plan.indexes` — the match indexes scan leaves probe (tables
  kept on the interned sets: derived by the write that grew a set, or built
  by the first reader, probe or estimate);
* :mod:`repro.plan.execute` — the physical executor shared by every
  evaluator, with index pushdown and semi-naive delta restriction, counting
  its work in :class:`~repro.plan.stats.EngineStats`;
* :mod:`repro.plan.explain` — the EXPLAIN renderer (estimated vs. actual
  cardinalities) behind ``Program.explain()``, ``Session.explain()`` and the
  CLI ``--explain`` flags;
* :mod:`repro.plan.parameters` — a plan with its ``$parameters`` bound: the
  oracle of prepared execution, which reads them from slots (``params=``),
  and what EXPLAIN renders.

Quick use::

    from repro import Program
    from repro.plan import compile_body, optimize_body, match_rows

    program = Program.from_source(source, database=db)
    print(program.explain())            # the optimized plan, est vs. actual

    plan = optimize_body(compile_body(body_formula))
    names, rows = match_rows(plan, database_object)  # one value per name
"""

from repro.plan.compile import compile_body
from repro.plan.execute import (
    interpret_plan, iter_match_plan, iter_match_rows, match_plan, match_rows,
)
from repro.plan.explain import render_body_plan, render_program_plan
from repro.plan.ir import (
    BindLeaf,
    BodyPlan,
    CheckLeaf,
    ConstLeaf,
    Leaf,
    LeafEstimate,
    ParamLeaf,
    ScanLeaf,
    leaf_key,
)
from repro.plan.optimize import estimate_leaf, optimize_body
from repro.plan.parameters import bind_body_plan
from repro.plan.statistics import DEFAULT_CARDINALITY, DatabaseStatistics

__all__ = [
    "BindLeaf",
    "BodyPlan",
    "CheckLeaf",
    "ConstLeaf",
    "DEFAULT_CARDINALITY",
    "DatabaseStatistics",
    "Leaf",
    "LeafEstimate",
    "ParamLeaf",
    "ScanLeaf",
    "bind_body_plan",
    "compile_body",
    "estimate_leaf",
    "interpret_plan",
    "iter_match_plan",
    "iter_match_rows",
    "leaf_key",
    "match_plan",
    "match_rows",
    "optimize_body",
    "render_body_plan",
    "render_program_plan",
]
