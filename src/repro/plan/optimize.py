"""The cost-based optimizer: join (leaf) reordering and access-path selection.

Because a body's result is the meet-product of its leaves' alternatives and
the meet is commutative and associative (see :mod:`repro.plan.ir`), the
optimizer may execute leaves in **any** order; it picks the one that keeps
the running partial-substitution count small:

1. free leaves first — binds, constant selections and shape checks produce at
   most one row each, and a :class:`BindLeaf` makes its variable available to
   later dynamic index probes;
2. then a greedy ordering of the scan leaves by estimated surviving rows
   (from :class:`~repro.plan.statistics.DatabaseStatistics`): a static-key
   probe is estimated at ``card/distinct``, a dynamic key counts only once
   its variable is bound by an already-placed leaf, an unkeyed scan at the
   full cardinality — and leaves sharing no variable with what is already
   bound are penalised so cross products run last.

Each placed leaf also records its **access path** — the index probe the
executor should attempt first — which is how selection and attribute-path
pushdown reach :class:`repro.plan.indexes.TargetIndexes`, the one match-index
store of the engine and the sessions.  Without statistics the same
greedy pass runs on defaults, which still orders static-key probes before
bare scans — the heuristic the algebra lowering uses at translation time.

The ordering matters twice under the vectorized executor: a small early
frontier means small batches at every later operator, and a leaf whose
dynamic key is bound by an earlier leaf probes the index once per *distinct*
key value in the batch (the executor memoizes probes on object identity), so
placing the binding leaf first turns a scan into a handful of hash lookups.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.plan.ir import BindLeaf, BodyPlan, CheckLeaf, Leaf, LeafEstimate, ParamLeaf, ScanLeaf
from repro.plan.statistics import DatabaseStatistics

__all__ = ["optimize_body", "estimate_leaf"]

#: Multiplier applied to a scan leaf sharing no variable with the bound set —
#: a cross product is never *wrong* (the meet-product absorbs it) but almost
#: always the worst possible next step.
_CROSS_PRODUCT_PENALTY = 1.0e6


def estimate_leaf(
    leaf: Leaf,
    bound: Set[str],
    statistics: Optional[DatabaseStatistics],
    shapes=None,
) -> LeafEstimate:
    """Estimated surviving rows and chosen access path for one leaf.

    ``bound`` is the set of variables bound by the leaves placed before this
    one; only those make a dynamic key probeable.  ``shapes`` bounds the
    cardinality of a set the statistics never saw.
    """
    if not isinstance(leaf, ScanLeaf):
        # Free leaves produce at most one row; label them by what they do.
        if isinstance(leaf, BindLeaf):
            access = "bind"
        elif isinstance(leaf, CheckLeaf):
            access = "check"
        elif isinstance(leaf, ParamLeaf):
            access = f"param ${leaf.name}"
        else:
            access = "select"
        return LeafEstimate(rows=1.0, access=access)
    stats = statistics if statistics is not None else DatabaseStatistics()
    if leaf.static_keys:
        key_path, atom = leaf.static_keys[0]
        return LeafEstimate(
            rows=stats.equality_estimate(leaf.path, key_path, shapes),
            access=f"index {key_path}={atom.to_text()}",
        )
    if leaf.param_keys:
        # A bound parameter is a ground atom by execute time, so the probe
        # costs like a static equality key even though the value is unknown
        # at planning time.
        key_path, name = leaf.param_keys[0]
        return LeafEstimate(
            rows=stats.equality_estimate(leaf.path, key_path, shapes),
            access=f"index {key_path}=${name} (param)",
        )
    for key_path, name in leaf.dynamic_keys:
        if name in bound:
            return LeafEstimate(
                rows=stats.equality_estimate(leaf.path, key_path, shapes),
                access=f"index {key_path}=${name}",
            )
    return LeafEstimate(rows=stats.cardinality(leaf.path, shapes), access="scan")


def optimize_body(
    plan: BodyPlan,
    statistics: Optional[DatabaseStatistics] = None,
    shapes=None,
) -> BodyPlan:
    """Reorder ``plan``'s leaves by estimated cost; annotate each with its estimate.

    ``shapes`` (a :class:`~repro.lint.shapes.ProgramShapes`) makes the shape
    analysis load-bearing: a body the abstract interpreter proves can never
    produce a row is marked ``pruned`` (the executor then short-circuits to
    zero rows), a set the statistics never saw is estimated from its shape's
    cardinality bound, and each scan leaf's estimate is annotated with the
    inferred element shape for EXPLAIN.  Pruning only happens on *grounded* inferences
    — an engine run infers against the actual database, so the proof is
    relative to the world that will really be scanned.
    """
    if shapes is not None and shapes.grounded:
        failure = shapes.body_failure(plan.body)
        if failure is not None:
            return BodyPlan(
                body=plan.body,
                leaves=plan.leaves,
                optimized=True,
                estimates=tuple(
                    LeafEstimate(rows=0.0, access="pruned") for _ in plan.leaves
                ),
                pruned=failure.detail,
            )
    free = [leaf for leaf in plan.leaves if not isinstance(leaf, ScanLeaf)]
    scans = [leaf for leaf in plan.leaves if isinstance(leaf, ScanLeaf)]

    ordered: List[Leaf] = list(free)
    estimates: List[LeafEstimate] = [
        estimate_leaf(leaf, set(), statistics, shapes) for leaf in free
    ]
    bound: Set[str] = set()
    for leaf in free:
        if isinstance(leaf, BindLeaf) and leaf.name:
            bound.add(leaf.name)

    remaining = list(scans)
    while remaining:
        best_index = 0
        best_estimate: Optional[LeafEstimate] = None
        best_score = float("inf")
        for index, leaf in enumerate(remaining):
            estimate = estimate_leaf(leaf, bound, statistics, shapes)
            connected = not bound or bool(leaf.variables & bound) or not leaf.variables
            score = estimate.rows if connected else estimate.rows * _CROSS_PRODUCT_PENALTY
            if score < best_score:
                best_score = score
                best_index = index
                best_estimate = estimate
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        estimates.append(best_estimate)
        bound |= chosen.variables

    if shapes is not None:
        estimates = [
            _annotate_shape(leaf, estimate, shapes)
            for leaf, estimate in zip(ordered, estimates)
        ]
    return BodyPlan(
        body=plan.body,
        leaves=tuple(ordered),
        optimized=True,
        estimates=tuple(estimates),
    )


def _annotate_shape(leaf: Leaf, estimate: LeafEstimate, shapes) -> LeafEstimate:
    """Attach the inferred element shape to a scan leaf's estimate."""
    if not isinstance(leaf, ScanLeaf):
        return estimate
    element = shapes.scan_element(leaf.path)
    description = "empty" if element is None else element.describe()
    return LeafEstimate(rows=estimate.rows, access=estimate.access, shape=description)
