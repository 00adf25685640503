"""The object calculus (Section 4 of the paper).

* :mod:`repro.calculus.terms` -- well-formed formulae (Definition 4.1).
* :mod:`repro.calculus.substitution` -- substitutions and instantiation.
* :mod:`repro.calculus.matching` -- the matching engine that enumerates the
  derivation-maximal substitutions ``σ`` with ``σE ≤ O``.
* :mod:`repro.calculus.interpretation` -- ``E(O) = ⋃ {σE | σE ≤ O}``
  (Definition 4.2), plus a brute-force oracle used by tests.
* :mod:`repro.calculus.rules` -- rules and rule sets (Definitions 4.3--4.5),
  including monotonicity helpers (Lemma 4.1).
* :mod:`repro.calculus.fixpoint` -- closure of an object under a rule set
  (Definition 4.6, Theorem 4.1), with divergence guards for programs with no
  finite closure (Example 4.6).
* :mod:`repro.calculus.dependency` -- the rule dependency graph and its
  strata (strongly-connected components, producers first).
"""

from repro.calculus.fixpoint import ClosureResult, close, closure_series
from repro.calculus.interpretation import interpret, interpret_bruteforce
from repro.calculus.matching import match
from repro.calculus.rules import Rule, RuleSet, apply_rule, apply_rules
from repro.calculus.substitution import Substitution
from repro.calculus.terms import (
    Constant,
    Formula,
    Parameter,
    SetFormula,
    TupleFormula,
    Variable,
    bind_parameters,
    formula,
    param,
    var,
)

__all__ = [
    "ClosureResult",
    "Constant",
    "Formula",
    "Parameter",
    "Rule",
    "RuleSet",
    "SetFormula",
    "Substitution",
    "TupleFormula",
    "Variable",
    "apply_rule",
    "apply_rules",
    "bind_parameters",
    "close",
    "closure_series",
    "formula",
    "interpret",
    "interpret_bruteforce",
    "match",
    "param",
    "var",
]
