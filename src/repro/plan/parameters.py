"""``$parameter`` binding as an oracle: the bound plan a prepared execution equals.

A prepared query (:mod:`repro.api`) is parsed, compiled and cost-ordered
*once*; each execution then runs that very plan with its values in slots —
the compiled matchers, the spine and the index probes read them from the
execution's ``params`` (:mod:`repro.plan.compile`, :mod:`repro.plan.execute`)
and nothing is rebuilt per value.  :func:`bind_body_plan` is what such an
execution must equal: the plan with every parameter replaced by a
:class:`~repro.calculus.terms.Constant` of its value.  It is the oracle of the
property tests, the ``plan.bind`` probe of ``benchmarks/e2e/layers.py`` and
what EXPLAIN renders, never the execute path.  Binding is sound without
re-planning because a parameter stands for a constant — substituting it
changes neither the body's shape (so every leaf keeps its ``(path,
element_index)`` identity) nor its variable set (so the optimizer's join
order and cross-product analysis still apply); the only thing that changes is
that parameter key slots become ground static keys, i.e. the plan gets *more*
index-probeable, never less.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.errors import ParameterError
from repro.core.objects import ComplexObject
from repro.calculus.terms import bind_parameters
from repro.plan.indexes import element_keys
from repro.plan.ir import BodyPlan, ConstLeaf, ParamLeaf, ScanLeaf

__all__ = ["bind_body_plan", "validate_parameters"]


def validate_parameters(declared, provided) -> None:
    """The one missing/unknown-parameter policy, shared by every binding path.

    ``declared`` is the set of ``$names`` a query mentions, ``provided`` the
    names being bound.  Extra names are rejected so a typo cannot silently
    go unused; missing names are rejected before any evaluation starts.
    """
    extra = set(provided) - set(declared)
    if extra:
        raise ParameterError(
            f"unknown parameter(s) {sorted(extra)}: the query declares"
            f" {sorted(declared) if declared else 'no parameters'}"
        )
    missing = set(declared) - set(provided)
    if missing:
        raise ParameterError(f"missing value(s) for parameter(s) {sorted(missing)}")


def bind_body_plan(
    plan: BodyPlan, values: Mapping[str, ComplexObject]
) -> BodyPlan:
    """Return ``plan`` with every ``$parameter`` replaced by its bound value.

    ``values`` must cover exactly the plan's parameters (see
    :func:`validate_parameters`).  A parameter-free plan is returned
    unchanged, same object.
    """
    needed = plan.parameters
    validate_parameters(needed, values)
    if not needed:
        return plan

    bound_body = bind_parameters(plan.body, values)
    bound_leaves = []
    for leaf in plan.leaves:
        if isinstance(leaf, ParamLeaf):
            bound_leaves.append(ConstLeaf(path=leaf.path, value=values[leaf.name]))
        elif isinstance(leaf, ScanLeaf) and leaf.element.parameters():
            element = bind_parameters(leaf.element, values)
            static, dynamic, _ = element_keys(element)
            bound_leaves.append(
                ScanLeaf(
                    path=leaf.path,
                    element_index=leaf.element_index,
                    element=element,
                    static_keys=static,
                    dynamic_keys=dynamic,
                    variables=element.variables(),
                )
            )
        else:
            bound_leaves.append(leaf)
    # Leaf order (and therefore the parallel estimates tuple) is preserved:
    # binding substitutes values in place, it never reorders.  A pruned plan
    # stays pruned — parameters only ever make a body *more* constrained.
    return BodyPlan(
        body=bound_body,
        leaves=tuple(bound_leaves),
        optimized=plan.optimized,
        estimates=plan.estimates,
        pruned=plan.pruned,
    )
