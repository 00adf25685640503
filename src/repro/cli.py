"""Command-line front end for the complex-object calculus.

The CLI makes the library usable without writing Python: objects, formulae and
programs are given in the paper's concrete syntax, either inline or in files.
Every evaluating subcommand executes through the session facade of
:mod:`repro.api` — the same parse → plan → execute pipeline the Python API
uses — and every library failure is reported as one ``error:`` line with a
non-zero exit code (no traceback).

Subcommands
-----------
``parse``     parse an object and pretty-print it (checks well-formedness).
``query``     interpret a formula against a database object (Definition 4.2);
              ``--param name=value`` binds a ``$name`` parameter slot;
              ``--explain`` prints the optimized query plan (estimated vs
              actual cardinalities) instead of the answer.
``apply``     apply a single rule once to a database object (Definition 4.4).
``run``       evaluate a program (facts + rules) to its closure and optionally
              interpret a query against the result (Example 4.5 end to end).
              ``--stats`` prints the engine's instrumentation record
              (including per-rule full-matching fallbacks); ``--explain``
              prints the optimized program plan.
``lint``      whole-program static analysis (:mod:`repro.lint`): stable
              ``RLxxx`` diagnostics with severities, clause locations and fix
              hints, the stratification report, and plan-level findings.
              ``--db-path``/``--database`` profile a store or object so the
              cost model sees real cardinalities; ``--query`` anchors the
              dead-rule analysis; ``--format json`` emits the machine
              report; ``--suppress RLxxx`` (or ``N:RLxxx``) drops findings.
              Exits 1 on errors — and on warnings too under ``--strict``.
``store``     operate on a durable, WAL-backed object store: ``--db-path``
              opens (or creates) a store over its write-ahead log
              (:class:`repro.store.storage.FileStorage`), and the actions
              ``put``/``get``/``delete``/``names``/``query``/``compact``
              run against it, each commit fsynced;
              ``query`` accepts ``--param`` bindings, and ``--explain`` shows
              the plan and the store access path (root-attribute pushdown /
              index short-circuit).  ``verify`` is different: it checks the
              WAL **offline and read-only** (no session, no recovery
              side-effects), prints an integrity report as JSON, and exits
              1 when the log is damaged.
``stats``     print the process-wide observability snapshot
              (:func:`repro.obs.snapshot`) as one JSON document — engine
              counters, plan-cache traffic, store commits/conflicts, index
              access paths, WAL appends/bytes/fsyncs, latency histograms;
              ``--db-path`` opens a store first so its recovery shows up.

``query`` and ``store query`` also take ``--explain-analyze`` (EXPLAIN
ANALYZE): the plan is executed and rendered with the **actual** rows and
wall time per plan node next to the optimizer's estimates.  ``run
--explain`` analyzes by default — its plan shows per-leaf times too.

Examples
--------
::

    python -m repro parse "[name: peter, children: {max, susan}]"
    python -m repro query --database db.obj "[r1: {[name: X]}]"
    python -m repro query --database db.obj '[r1: {[name: $who]}]' --param who=peter
    python -m repro run program.co --database family.obj --query "[doa: X]"
    python -m repro store --db-path db.wal put family "[family: {[name: abraham]}]"
    python -m repro store --db-path db.wal query '[family: {[name: $who]}]' --param who=abraham

(single-quote formulae containing ``$name`` parameters so the shell does not
expand them as environment variables)
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.api import ReproError, Session, connect
from repro.core.errors import ParameterError
from repro.core.objects import BOTTOM, ComplexObject
from repro.parser import parse_formula, parse_object, parse_program, parse_rule
from repro.parser.printer import pretty

__all__ = ["main", "build_parser"]


def _read_source(value: str) -> str:
    """Treat ``value`` as a filename when prefixed with '@', else as inline text."""
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as handle:
            return handle.read()
    return value


def _load_database(value: Optional[str]):
    if value is None:
        return BOTTOM
    return parse_object(_read_source(value))


def _parse_params(pairs: Optional[List[str]]) -> Dict[str, ComplexObject]:
    """Parse repeated ``--param name=value`` options (values are object text)."""
    bindings: Dict[str, ComplexObject] = {}
    for pair in pairs or ():
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise ParameterError(
                f"malformed --param {pair!r}: expected name=value"
            )
        bindings[name] = parse_object(_read_source(value))
    return bindings


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A Calculus for Complex Objects (Bancilhon & Khoshafian, 1986)",
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    parse_command = subcommands.add_parser("parse", help="parse and pretty-print an object")
    parse_command.add_argument("object", help="object text, or @file")
    parse_command.add_argument("--compact", action="store_true", help="one-line output")

    query_command = subcommands.add_parser("query", help="interpret a formula (E(O))")
    query_command.add_argument("formula", help="formula text, or @file")
    query_command.add_argument("--database", "-d", required=True, help="object text, or @file")
    query_command.add_argument(
        "--allow-bottom", action="store_true", help="use the literal Definition 4.2 semantics"
    )
    query_command.add_argument(
        "--explain",
        action="store_true",
        help="print the optimized query plan (estimated vs actual rows) instead"
        " of the answer",
    )
    query_command.add_argument(
        "--explain-analyze",
        action="store_true",
        help="EXPLAIN ANALYZE: execute the plan and print actual rows and"
        " wall time per plan node next to the estimates",
    )
    query_command.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="bind a $NAME parameter slot to an object (repeatable)",
    )

    apply_command = subcommands.add_parser("apply", help="apply one rule to an object (r(O))")
    apply_command.add_argument("rule", help="rule text, or @file")
    apply_command.add_argument("--database", "-d", required=True, help="object text, or @file")

    run_command = subcommands.add_parser("run", help="evaluate a program to its closure")
    run_command.add_argument("program", help="program text, or @file")
    run_command.add_argument("--database", "-d", help="object text, or @file (default ⊥)")
    run_command.add_argument("--query", "-q", help="formula to interpret against the closure")
    run_command.add_argument(
        "--max-iterations", type=int, default=200, help="divergence guard (iterations)"
    )
    run_command.add_argument(
        "--stats",
        action="store_true",
        help="print the engine's instrumentation record as a comment line",
    )
    run_command.add_argument(
        "--explain",
        action="store_true",
        help="print the optimized evaluation plan (estimated vs actual rows)"
        " instead of the closure",
    )

    lint_command = subcommands.add_parser(
        "lint", help="whole-program static analysis with stable RLxxx diagnostics"
    )
    lint_command.add_argument("program", help="program text, or @file")
    lint_command.add_argument(
        "--query", "-q", help="formula whose reads anchor the dead-rule analysis"
    )
    lint_command.add_argument(
        "--database",
        "-d",
        help="object text, or @file: profiled so plan-level findings see real"
        " cardinalities",
    )
    lint_command.add_argument(
        "--db-path",
        help="WAL-backed store to profile instead of an inline --database",
    )
    lint_command.add_argument(
        "--strict", action="store_true", help="exit 1 on warnings, not just errors"
    )
    lint_command.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    lint_command.add_argument(
        "--suppress",
        action="append",
        metavar="RLxxx|N:RLxxx",
        help="drop a diagnostic code everywhere, or for clause N only"
        " (repeatable)",
    )

    store_command = subcommands.add_parser(
        "store", help="operate on a durable (write-ahead-log) object store"
    )
    store_command.add_argument(
        "--db-path",
        required=True,
        help="path of the WAL file backing the store (created when absent)",
    )
    store_command.add_argument(
        "action",
        choices=["put", "get", "delete", "names", "query", "compact", "verify"],
        help="what to do against the store",
    )
    store_command.add_argument(
        "name", nargs="?", help="object name (put/get/delete), or formula text/@file (query)"
    )
    store_command.add_argument("value", nargs="?", help="object text, or @file (put)")
    store_command.add_argument(
        "--against", help="interpret the query against one stored name (query)"
    )
    store_command.add_argument("--compact", action="store_true", help="one-line output")
    store_command.add_argument(
        "--explain",
        action="store_true",
        help="print the optimized query plan and the chosen store access path"
        " instead of the answer (query)",
    )
    store_command.add_argument(
        "--explain-analyze",
        action="store_true",
        help="EXPLAIN ANALYZE: execute the plan and print actual rows and"
        " wall time per plan node next to the estimates (query)",
    )
    store_command.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="bind a $NAME parameter slot to an object (query, repeatable)",
    )

    stats_command = subcommands.add_parser(
        "stats", help="print the observability snapshot as one JSON document"
    )
    stats_command.add_argument(
        "--db-path",
        help="open this WAL-backed store first, so its recovery (records"
        " replayed, torn bytes dropped) is reflected in the snapshot",
    )

    return parser


def _stats_line(result) -> str:
    """The ``run --stats`` comment line for one closure result."""
    return f"% engine seminaive: {result.stats.summary()}"


def _run_lint(arguments, stream) -> int:
    """The ``lint`` subcommand: analyze, render, and pick the exit code."""
    import json

    from repro.lint import lint_source

    # A database serves both consumers: profiled, it gives the plan-level
    # findings (RL3xx) real cardinalities, and it closes the world for the
    # shape analysis (RL2xx).
    database = None
    if arguments.db_path:
        session = connect(arguments.db_path)
        try:
            database = session.database.as_object()
        finally:
            session.shutdown()
    elif arguments.database:
        database = _load_database(arguments.database)
    query = (
        parse_formula(_read_source(arguments.query)) if arguments.query else None
    )
    report = lint_source(
        _read_source(arguments.program),
        query=query,
        database=database,
    )
    if arguments.suppress:
        report = report.suppress(arguments.suppress)
    if arguments.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True), file=stream)
    else:
        print(report.render(), file=stream)
    return 0 if report.ok(strict=arguments.strict) else 1


def _run_store(arguments, stream) -> int:
    from repro.core.errors import StoreError

    if arguments.action == "verify":
        # Offline, read-only: never opens a session (a mutating open would
        # truncate torn tails and quarantine corruption — verify reports
        # the damage instead of repairing it).  Exit 1 when not clean.
        import json

        from repro.store.verify import verify_wal

        report = verify_wal(arguments.db_path)
        print(json.dumps(report, indent=2, sort_keys=True), file=stream)
        return 0 if report["clean"] else 1

    session = connect(arguments.db_path)
    try:
        if arguments.action == "put":
            if arguments.name is None or arguments.value is None:
                raise StoreError("store put needs a name and an object")
            session.put(arguments.name, parse_object(_read_source(arguments.value)))
            print(f"stored {arguments.name!r}", file=stream)
        elif arguments.action == "get":
            if arguments.name is None:
                raise StoreError("store get needs a name")
            value = session.get(arguments.name)
            if value is None:
                raise StoreError(f"no object stored under {arguments.name!r}")
            print(value.to_text() if arguments.compact else pretty(value), file=stream)
        elif arguments.action == "delete":
            if arguments.name is None:
                raise StoreError("store delete needs a name")
            session.remove(arguments.name)
            print(f"deleted {arguments.name!r}", file=stream)
        elif arguments.action == "names":
            for name in session.names():
                print(name, file=stream)
        elif arguments.action == "query":
            if arguments.name is None:
                raise StoreError("store query needs a formula")
            formula = parse_formula(_read_source(arguments.name))
            params = _parse_params(arguments.param)
            if arguments.explain or arguments.explain_analyze:
                print(
                    session.explain(
                        formula,
                        params,
                        against=arguments.against,
                        analyze=arguments.explain_analyze,
                    ),
                    file=stream,
                )
            else:
                result = session.query(formula, params, against=arguments.against)
                print(pretty(result), file=stream)
        elif arguments.action == "compact":
            session.compact()
            print(f"compacted {arguments.db_path}", file=stream)
    finally:
        session.shutdown()
    return 0


def main(argv: Optional[Sequence[str]] = None, output=None) -> int:
    """Entry point; returns the process exit code (0 success, 1 user error)."""
    stream = output if output is not None else sys.stdout
    arguments = build_parser().parse_args(argv)
    try:
        if arguments.command == "parse":
            value = parse_object(_read_source(arguments.object))
            rendered = value.to_text() if arguments.compact else pretty(value)
            print(rendered, file=stream)
        elif arguments.command == "query":
            session = Session.over_object(_load_database(arguments.database))
            formula = parse_formula(_read_source(arguments.formula))
            params = _parse_params(arguments.param)
            if arguments.explain or arguments.explain_analyze:
                print(
                    session.explain(
                        formula,
                        params,
                        allow_bottom=arguments.allow_bottom,
                        analyze=arguments.explain_analyze,
                    ),
                    file=stream,
                )
            else:
                result = session.query(
                    formula, params, allow_bottom=arguments.allow_bottom
                )
                print(pretty(result), file=stream)
        elif arguments.command == "apply":
            database = _load_database(arguments.database)
            rule = parse_rule(_read_source(arguments.rule))
            print(pretty(rule.apply(database)), file=stream)
        elif arguments.command == "run":
            session = Session.over_object(_load_database(arguments.database))
            session.register(parse_program(_read_source(arguments.program)))
            guards = {"max_iterations": arguments.max_iterations}
            if arguments.explain:
                if arguments.stats:
                    # --stats composes with --explain: the instrumentation
                    # line is printed before the plan rather than dropped.
                    print(_stats_line(session.close(**guards)), file=stream)
                query = (
                    parse_formula(_read_source(arguments.query))
                    if arguments.query
                    else None
                )
                print(session.program().explain(query, **guards), file=stream)
                return 0
            result = session.close(**guards)
            print(f"% closure reached after {result.iterations} iterations", file=stream)
            if arguments.stats:
                print(_stats_line(result), file=stream)
            if arguments.query:
                # The closure is cached on the session, so this re-uses the
                # evaluation above rather than running the program again.
                answer = session.query(
                    parse_formula(_read_source(arguments.query)),
                    on_closure=True,
                    **guards,
                )
                print(pretty(answer), file=stream)
            else:
                print(pretty(result.value), file=stream)
        elif arguments.command == "lint":
            return _run_lint(arguments, stream)
        elif arguments.command == "store":
            return _run_store(arguments, stream)
        elif arguments.command == "stats":
            import json

            from repro import obs

            if arguments.db_path:
                # Opening the store replays its WAL, so the snapshot below
                # reflects the recovery (records replayed, torn tail bytes).
                connect(arguments.db_path).shutdown()
            print(
                json.dumps(obs.snapshot(), indent=2, sort_keys=True), file=stream
            )
    except ReproError as error:
        # One catch covers the whole library surface (parse, plan, parameter,
        # schema, store, divergence): a single line, no traceback, exit 1.
        print(f"error: {error}", file=stream)
        return 1
    except OSError as error:
        print(f"error: {error}", file=stream)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
