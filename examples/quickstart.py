#!/usr/bin/env python3
"""Quickstart: the complex-object model and calculus in five minutes.

Walks through the paper's core ideas in order — building objects, equality,
the sub-object lattice, formula interpretation, rules, and recursive closure —
printing each result next to the paper example it reproduces.

Run with::

    python examples/quickstart.py
"""

from repro import (
    BOTTOM,
    TOP,
    Program,
    intersection,
    is_subobject,
    obj,
    parse_formula,
    parse_object,
    parse_rule,
    union,
)
from repro.calculus.interpretation import interpret


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def demo_objects() -> None:
    banner("1. Objects (Definition 2.1 / Example 2.1)")
    samples = [
        "john",
        "{john, mary, susan}",
        "[name: peter, age: 25]",
        "[name: [first: john, last: doe], children: {john, mary, susan}]",
        "{[name: peter, children: {max, susan}], [name: mary, children: {}]}",
    ]
    for source in samples:
        value = parse_object(source)
        print(f"  {source:68s} depth-ok reduced-ok" if value else source)
    # Objects can equally be built from Python literals.
    from_python = obj({"name": {"first": "john", "last": "doe"}, "age": 25})
    print(f"  from Python literals: {from_python}")


def demo_equality() -> None:
    banner("2. Equality and the ⊥/⊤ conventions (Definition 2.2 / Example 2.2)")
    pairs = [
        ("[a: 1, b: 2]", "[b: 2, a: 1]"),
        ("[a: 1, b: 2]", "[a: 1, b: 2, c: bottom]"),
        ("{1, 2, 3}", "{2, 3, 1}"),
        ("{1, 1}", "{1}"),
    ]
    for left, right in pairs:
        print(f"  {left:30s} == {right:30s} -> {parse_object(left) == parse_object(right)}")
    print(f"  [a: {{top}}, b: 2] collapses to ⊤ -> {parse_object('[a: {top}, b: 2]') is TOP}")


def demo_lattice() -> None:
    banner("3. The sub-object lattice (Section 3, Examples 3.1 / 3.3 / 3.4)")
    print("  sub-object facts:")
    print("    [a: 1, b: 2] ≤ [a: 1, b: 2, c: 3] ->",
          is_subobject(parse_object("[a: 1, b: 2]"), parse_object("[a: 1, b: 2, c: 3]")))
    print("    {1, 2, 3} ≤ {1, 2, 3, 4}        ->",
          is_subobject(parse_object("{1, 2, 3}"), parse_object("{1, 2, 3, 4}")))
    left = parse_object("[a: 1, b: {2, 3}]")
    right = parse_object("[b: {3, 4}, c: 5]")
    print(f"  union        {left} ∪ {right} = {union(left, right)}")
    print(f"  intersection {left} ∩ {right} = {intersection(left, right)}")
    print(f"  incompatible atoms: 1 ∪ 2 = {union(obj(1), obj(2))},  1 ∩ 2 = {intersection(obj(1), obj(2))}")


def demo_calculus() -> None:
    banner("4. Formulae and rules (Section 4, Examples 4.1 / 4.2)")
    database = parse_object(
        "[r1: {[a: 1, b: x], [a: 2, b: y], [a: 3, b: x]},"
        " r2: {[c: x, d: 10], [c: z, d: 20]}]"
    )
    print(f"  database: {database}")
    selection = parse_formula("[r1: {[a: A, b: x]}]")
    print(f"  E = {selection}")
    print(f"  E(O) = {interpret(selection, database)}    (selection on b = x)")

    join_rule = parse_rule("[r: {[a: X, d: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]")
    print(f"  rule: {join_rule}")
    print(f"  r(O) = {join_rule.apply(database)}    (join of r1 and r2 on b = c)")


def demo_recursion() -> None:
    banner("5. Recursive closure (Example 4.5: descendants of Abraham)")
    family = parse_object(
        "[family: {"
        "[name: abraham, children: {[name: isaac], [name: ishmael]}],"
        "[name: isaac, children: {[name: jacob], [name: esau]}],"
        "[name: jacob, children: {[name: joseph]}],"
        "[name: terah, children: {[name: abraham], [name: nahor]}]"
        "}]"
    )
    program = Program.from_source(
        """
        [doa: {abraham}].
        [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
        """,
        database=family,
    )
    result = program.evaluate()
    answer = interpret(parse_formula("[doa: X]"), result.value)
    print(f"  closure reached after {result.iterations} iterations")
    print(f"  descendants of abraham: {answer.get('doa')}")


def demo_divergence() -> None:
    banner("6. Programs without a closure (Example 4.6) are caught")
    from repro.core.errors import DivergenceError

    program = Program.from_source(
        "[list: {1}]. [list: {[head: 1, tail: X]}] :- [list: {X}]."
    )
    for diagnostic in program.lint().diagnostics:
        if diagnostic.is_warning:
            print(f"  static analysis: {diagnostic.render()}")
    try:
        program.evaluate(max_iterations=30)
    except DivergenceError as error:
        print(f"  runtime guard: {error}")


def main() -> None:
    demo_objects()
    demo_equality()
    demo_lattice()
    demo_calculus()
    demo_recursion()
    demo_divergence()
    print()
    print("Done.  See the other examples for full application scenarios.")


if __name__ == "__main__":
    main()
