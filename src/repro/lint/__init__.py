"""repro.lint — whole-program static analysis for rule programs and queries.

The paper's calculus is deliberately liberal: any pair of well-formed
formulae with the containment condition is a rule, and nothing stops an
author from writing a program that diverges (Example 4.6), contradicts the
sub-object lattice, or joins without a single usable index.  This package is
the static gate a database system runs before evaluation — three analyses
over one shared :class:`~repro.lint.diagnostics.LintReport`:

* **program graph** (:mod:`repro.lint.graph`) — recursion and divergence
  heuristics on the engine's dependency relation, duplicate clauses, rules
  unreachable from a query head, and the stratification report;
* **formula level** (:mod:`repro.lint.formulas`) — unsatisfiability via ⊥/⊤
  propagation through the sub-object lattice, parameters in rules, and
  single-use variables;
* **plan level** (:mod:`repro.lint.plans`) — the optimizer's own view:
  index-free cross products, keyless scans, and paths that match nothing in
  a profiled database.

Every finding carries a stable ``RLxxx`` code, a severity, the offending
clause's location, and a one-line fix hint (:data:`CODES` is the registry).
Surfaces: the ``repro lint`` CLI subcommand, ``Session.prepare(lint=...)``,
``Program.lint()``, and the ``lint.*`` counters in :mod:`repro.obs`.
"""

from repro.lint.analyzer import check_containment, lint_query, lint_rules, lint_source
from repro.lint.diagnostics import (
    CODES,
    CodeInfo,
    Diagnostic,
    ERROR,
    INFO,
    LintReport,
    WARNING,
)

__all__ = [
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "ERROR",
    "INFO",
    "LintReport",
    "WARNING",
    "check_containment",
    "lint_query",
    "lint_rules",
    "lint_source",
]
