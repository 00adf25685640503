"""Diagnostics: stable codes, severities, locations, fix hints.

Every finding of the :mod:`repro.lint` analyzer is a :class:`Diagnostic`
carrying a **stable code** (``RL001``-style — tools, tests and suppression
lists key on it), a severity, the location of the offending clause (1-based
rule index plus the parser's :class:`~repro.parser.SourceSpan` when the
program came from source text), the sub-formula involved, and a one-line fix
hint.  A whole analysis run is a :class:`LintReport`.

Code space (grouped by analysis, gaps left for growth):

* ``RL0xx`` — program-graph analyses (containment, divergence heuristics,
  duplicates, reachability);
* ``RL1xx`` — formula-level analyses (⊥/⊤ propagation through the sub-object
  lattice, parameters, variable hygiene);
* ``RL2xx`` — shape analyses (whole-program abstract interpretation over the
  sub-object lattice: unmatched literals, provably-empty regions,
  contradictory variables, shape-impossible parameter bindings);
* ``RL3xx`` — plan-level analyses (cost-based: cross products, access paths).

Severities: ``error`` means the program is wrong (evaluating it cannot do
what the author intended — unsatisfiable body, unbindable parameter);
``warning`` means it is suspicious or dangerous (may diverge, cross product);
``info`` is advisory (full scans, deliberate restructuring).  The CLI exits
non-zero on errors, and on warnings too under ``--strict``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "LintReport",
    "new_diagnostic",
]

ERROR = "error"
WARNING = "warning"
INFO = "info"


@dataclass(frozen=True)
class CodeInfo:
    """The registry entry for one diagnostic code."""

    code: str
    severity: str
    title: str
    hint: str


_REGISTRY: Tuple[CodeInfo, ...] = (
    # -- RL0xx: program graph ---------------------------------------------------------
    CodeInfo(
        "RL001",
        ERROR,
        "head variable does not occur in the body",
        "every head variable must be bound by the body (Definition 4.3);"
        " bind it in the body or drop it from the head",
    ),
    CodeInfo(
        "RL002",
        INFO,
        "head re-embeds variables more deeply than the body finds them",
        "restructuring is legal for non-recursive rules; double-check the"
        " extra nesting is intended",
    ),
    CodeInfo(
        "RL003",
        WARNING,
        "recursive structure-growing rule: its closure may not exist",
        "cf. Example 4.6 of the paper; break the recursion or evaluate under"
        " explicit guards (max_iterations / max_depth)",
    ),
    CodeInfo(
        "RL004",
        WARNING,
        "duplicate rule",
        "the program already contains this exact `head :- body` clause;"
        " delete one copy",
    ),
    CodeInfo(
        "RL005",
        WARNING,
        "rule cannot contribute to the query",
        "nothing this rule writes feeds the query head, directly or through"
        " other rules; remove it or fix its attribute paths",
    ),
    # -- RL1xx: formula level ---------------------------------------------------------
    CodeInfo(
        "RL101",
        WARNING,
        "variable occurs exactly once",
        "a single-occurrence variable matches anything and projects nothing"
        " — likely a typo; prefix it with '_' if a wildcard is intended",
    ),
    CodeInfo(
        "RL102",
        ERROR,
        "$parameter inside a rule can never be bound",
        "parameters are bound when a prepared query executes; rules evaluate"
        " without bindings — inline the constant instead",
    ),
    CodeInfo(
        "RL103",
        ERROR,
        "formula requires the inconsistent object ⊤",
        "matching forces ⊤ into the database, so the formula is"
        " unsatisfiable against every consistent database; remove the 'top'"
        " literal",
    ),
    CodeInfo(
        "RL104",
        WARNING,
        "vacuous ⊥ constraint",
        "a ⊥-valued attribute equals an absent attribute and ⊥ is dropped"
        " from sets, so this constraint is always satisfied; drop it",
    ),
    CodeInfo(
        "RL105",
        WARNING,
        "empty set formula as a set element",
        "'{}' as an element matches every set object and binds nothing;"
        " drop it or spell out the element it should match",
    ),
    # -- RL2xx: shape analysis --------------------------------------------------------
    CodeInfo(
        "RL201",
        WARNING,
        "no derivable object can match this literal",
        "the program's facts and rules never place a matching object at this"
        " path (producer/consumer shape mismatch); fix the literal's"
        " structure or the producing rule's head",
    ),
    CodeInfo(
        "RL202",
        WARNING,
        "rule reads a provably-empty region",
        "every producer of this region is itself statically empty, so the"
        " rule can never fire — the transitive dead chain RL005's"
        " reachability cannot see; fix the producing chain or remove the"
        " rule",
    ),
    CodeInfo(
        "RL203",
        WARNING,
        "contradictory shape requirements on one variable",
        "two body literals constrain this variable to shapes with an empty"
        " intersection, so no substitution satisfies the body; make the"
        " occurrences consistent",
    ),
    CodeInfo(
        "RL204",
        WARNING,
        "$parameter bound to a shape-impossible constant",
        "no derivable object admits this value at the parameter's slot, so"
        " the execution is guaranteed to return nothing; bind a value that"
        " fits the inferred slot shape",
    ),
    # -- RL3xx: plan level ------------------------------------------------------------
    CodeInfo(
        "RL301",
        WARNING,
        "index-free cross product",
        "this scan shares no bound variable with the leaves placed before"
        " it and has no usable key, so the join degenerates to a cross"
        " product; add a join variable or a ground key the planner can probe",
    ),
    CodeInfo(
        "RL302",
        INFO,
        "scan leaf has no access path",
        "no ground, parameter or join key is available at this path, so"
        " every execution is a full scan; add a selective attribute or"
        " create an index on the key path",
    ),
    CodeInfo(
        "RL303",
        WARNING,
        "scanned path matches nothing in the database",
        "the database has no set at this path and no rule head writes"
        " below it, so the leaf can never produce a row; fix the attribute"
        " path",
    ),
    CodeInfo(
        "RL304",
        WARNING,
        "prepared query compiles no static probe",
        "every scan leaf of this query keys only on join variables, so a"
        " prepared plan has nothing to compile into a fixed index probe and"
        " each execution re-probes per batch of bindings; pin a selective"
        " attribute with a $parameter (bound at execute time) to give the"
        " prepared plan a static key",
    ),
)

#: The stable code registry: code → :class:`CodeInfo`.
CODES: Dict[str, CodeInfo] = {info.code: info for info in _REGISTRY}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: code, severity, message, location, fix hint."""

    code: str
    severity: str
    message: str
    hint: str
    #: 1-based clause index inside the linted program (``None`` for
    #: query-level or program-level findings).
    rule_index: Optional[int] = None
    #: The offending clause rendered back to source text.
    rule: Optional[str] = None
    #: The sub-formula (or variable / parameter / path) the finding is about.
    formula: Optional[str] = None
    line: Optional[int] = None
    column: Optional[int] = None

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    @property
    def is_warning(self) -> bool:
        return self.severity == WARNING

    def location(self) -> str:
        """A human-readable location: ``rule 2 (line 3, column 1)`` or ``query``."""
        parts = []
        if self.rule_index is not None:
            parts.append(f"rule {self.rule_index}")
        if self.line is not None:
            parts.append(f"line {self.line}, column {self.column}")
        return " (".join(parts) + ")" if len(parts) == 2 else (parts[0] if parts else "query")

    def render(self) -> str:
        """One line per finding plus an indented fix hint."""
        subject = f" [{self.formula}]" if self.formula else ""
        lines = [f"{self.code} {self.severity:7s} {self.location()}: {self.message}{subject}"]
        if self.rule:
            lines.append(f"    | {self.rule}")
        lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        record = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
        }
        for name in ("rule_index", "rule", "formula", "line", "column"):
            value = getattr(self, name)
            if value is not None:
                record[name] = value
        return record


def new_diagnostic(code: str, *, message: Optional[str] = None, **location) -> Diagnostic:
    """Build a diagnostic from the registry, with an optional message override."""
    info = CODES[code]
    return Diagnostic(
        code=code,
        severity=info.severity,
        message=message if message is not None else info.title,
        hint=info.hint,
        **location,
    )


def _sort_key(diagnostic: Diagnostic):
    return (
        diagnostic.rule_index if diagnostic.rule_index is not None else 0,
        diagnostic.code,
        diagnostic.formula or "",
    )


@dataclass(frozen=True)
class LintReport:
    """The result of one analysis run: findings plus the program's shape.

    ``strata`` is the stratification report — one entry per scheduling
    stratum, producers first, each naming its (1-based) rule indices and
    whether the stratum is recursive (must be iterated to a local fixpoint).
    Reports are deterministic: diagnostics are sorted by (rule, code,
    subject) and carry no timestamps or ids.
    """

    diagnostics: Tuple[Diagnostic, ...] = ()
    strata: Tuple[dict, ...] = ()
    rules: int = 0
    facts: int = 0
    #: Inferred shape summaries as ``(subject, shape)`` pairs — the database
    #: first, then each non-fact rule's contribution (empty when the shape
    #: pass did not run, e.g. query-only reports).
    shapes: Tuple[Tuple[str, str], ...] = ()

    # -- aggregation ------------------------------------------------------------------
    @property
    def errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == WARNING)

    def by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return counts

    def ok(self, *, strict: bool = False) -> bool:
        """``True`` when the program should be accepted.

        Errors always reject; under ``strict`` warnings reject too (info
        never does) — the CLI's ``--strict`` and the session's
        ``lint="strict"`` semantics.
        """
        if self.errors:
            return False
        return not (strict and self.warnings)

    # -- suppression ------------------------------------------------------------------
    def suppress(self, patterns: Iterable[str]) -> "LintReport":
        """Drop findings matched by suppression patterns.

        A pattern is either a bare code (``RL003`` — suppress it everywhere)
        or ``N:RLxxx`` (suppress the code for clause ``N`` only, 1-based) —
        the per-rule suppression story documented in the README.
        """
        wanted = set(patterns)
        if not wanted:
            return self
        kept = tuple(
            d
            for d in self.diagnostics
            if d.code not in wanted and f"{d.rule_index}:{d.code}" not in wanted
        )
        return LintReport(
            diagnostics=kept,
            strata=self.strata,
            rules=self.rules,
            facts=self.facts,
            shapes=self.shapes,
        )

    # -- rendering --------------------------------------------------------------------
    def render(self) -> str:
        """The human-readable report the CLI prints in text mode."""
        lines = []
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.render())
        if self.strata:
            parts = []
            for stratum in self.strata:
                indices = ",".join(str(i) for i in stratum["rules"])
                parts.append(f"{{{indices}}}{'*' if stratum['recursive'] else ''}")
            lines.append(f"strata (producers first, * = recursive): {' -> '.join(parts)}")
        if self.shapes:
            lines.append("inferred shapes:")
            for subject, shape in self.shapes:
                lines.append(f"  {subject}: {shape}")
        lines.append(
            f"{self.rules} rule(s), {self.facts} fact(s):"
            f" {self.errors} error(s), {self.warnings} warning(s),"
            f" {len(self.diagnostics) - self.errors - self.warnings} info"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The machine-readable report (``repro lint --format json``)."""
        return {
            "schema": "repro-lint/v1",
            "summary": {
                "rules": self.rules,
                "facts": self.facts,
                "errors": self.errors,
                "warnings": self.warnings,
                "info": len(self.diagnostics) - self.errors - self.warnings,
                "by_code": self.by_code(),
            },
            "strata": list(self.strata),
            "shapes": [
                {"subject": subject, "shape": shape} for subject, shape in self.shapes
            ],
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


def finish_report(
    diagnostics: Iterable[Diagnostic],
    *,
    strata: Tuple[dict, ...] = (),
    rules: int = 0,
    facts: int = 0,
    shapes: Tuple[Tuple[str, str], ...] = (),
) -> LintReport:
    """Order findings deterministically and assemble the report."""
    ordered = tuple(sorted(diagnostics, key=_sort_key))
    return LintReport(
        diagnostics=ordered, strata=strata, rules=rules, facts=facts, shapes=shapes
    )
