#!/usr/bin/env python3
"""Shape-inference quickstart: infer → lint → prune → refute parameters.

:mod:`repro.lint.shapes` runs a whole-program abstract interpretation over
the sub-object lattice: it summarises every object the program can derive as
one shape ``D̂*`` (atom value sets, tuple-of, set-of with cardinality
bounds), then answers questions no per-rule check can — is this region
*transitively* empty, can these two attribute paths ever agree, can this
``$parameter`` value ever match?  One analysis, three consumers:

1. the ``RL2xx`` lint family (producer/consumer mismatch, provably-empty
   regions, contradictory variables, shape-impossible parameters);
2. the plan optimizer — provably-empty bodies are marked pruned, and shape
   cardinality bounds back up missing statistics;
3. the engine — statically-empty rules leave the fixpoint loop entirely.

Run with::

    python examples/shapes_quickstart.py
"""

import repro
from repro import lint
from repro.engine import SemiNaiveEngine
from repro.lint.shapes import infer_shapes


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


# A transitive closure with two defects only shape analysis can see: the
# 'launch' rule demands [go: ready] elements nobody produces, and the
# 'loop' rule needs one element to be both its own src and dst atom.
SOURCE = """\
[edge: {[src: a, dst: b], [src: b, dst: c]}].
[path: {[src: X, dst: Y]}] :- [edge: {[src: X, dst: Y]}].
[path: {[src: X, dst: Z]}] :-
    [path: {[src: X, dst: Y]}, edge: {[src: Y, dst: Z]}].
[launch: {X}] :- [edge: {[src: X, go: ready]}].
[escalate: {X}] :- [launch: {X}].
"""


def main() -> None:
    banner("1. The inferred summary: one shape per rule, one for the database")
    shapes = infer_shapes(tuple(repro.parse_program(SOURCE)))
    for subject, shape in shapes.summary_lines():
        print(f"  {subject:12s} {shape}")

    banner("2. The RL2xx lint family reads the summary")
    report = lint.lint_source(SOURCE)
    for diagnostic in report.diagnostics:
        if diagnostic.code.startswith("RL2"):
            print(f"  {diagnostic.render()}")
    # The same shapes travel on the report itself (and through
    # ``python -m repro lint --format json`` as the "shapes" key).
    payload = report.to_json()
    print(f"  to_json()['shapes'] carries {len(payload['shapes'])} summaries")

    banner("3. EXPLAIN: per-leaf shapes, and pruned branches with their proof")
    program = repro.Program.from_source(SOURCE)
    for line in program.explain(analyze=False).splitlines():
        if "shape " in line or "pruned" in line or line.startswith(("rule", "stratum")):
            print(f"  {line}")

    banner("4. The engine skips statically-empty rules in every round")
    result = SemiNaiveEngine(program.rules).run(program.seed())
    print(f"  {result.stats.summary()}")
    baseline = SemiNaiveEngine(program.rules, use_shapes=False).run(program.seed())
    print(f"  identical closure without pruning: {result.value == baseline.value}")

    banner("5. Prepared queries refute shape-impossible parameter values")
    with repro.connect() as session:
        session.register(SOURCE)
        prepared = session.prepare(
            "[path: {[src: $start, dst: D]}]", on_closure=True
        )
        slot = prepared.param_shapes["start"]
        print(f"  inferred slot shape for $start: {slot.describe()}")
        print(f"  execute(start='a') -> {prepared.all(start='a').to_text()}")
        strict = session.prepare(
            "[path: {[src: $start, dst: D]}]", lint="strict", on_closure=True
        )
        try:
            strict.execute(start="zz")
        except repro.LintError as error:
            print(f"  strict refused: {error.diagnostics[0].render()}")


if __name__ == "__main__":
    main()
