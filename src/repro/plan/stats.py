"""Instrumentation for plan execution and the closure engine.

Every engine run and every query cursor fills an :class:`EngineStats` record
so benchmarks, the CLI and tests can see *why* a strategy was fast or slow:
how many rounds ran, how many formula-against-witness match attempts were
made, how often a match index answered a lookup, and how much the scheduler
could avoid re-iterating.

The record is deliberately a plain mutable dataclass of counters — the
executor increments fields directly on its hot path, and :meth:`EngineStats.as_dict`
snapshots them for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["EngineStats"]


@dataclass
class EngineStats:
    """Counters collected while evaluating a rule set.

    Attributes
    ----------
    iterations:
        Total evaluation rounds, counting each application of a stratum's
        rules (recursive strata contribute one round per fixpoint iteration,
        non-recursive strata one round each).
    strata:
        Number of strongly-connected components the scheduler evaluated.
    recursive_strata:
        How many of those required fixpoint iteration.
    delta_matches:
        Rule-body evaluations restricted to the previous round's delta.
    full_matches:
        Rule-body evaluations against the whole database (round one of each
        recursive stratum, non-recursive rules, and correctness fallbacks for
        bodies that cannot be delta-decomposed).
    match_attempts:
        Candidate witnesses handed to a scan leaf's compiled matcher: one per
        (scan leaf, candidate witness), whatever the element's shape — the
        elements of a witness's nested sets are matched inside that attempt.
    substitutions:
        Derivation-maximal substitutions found across all rule evaluations.
    subobjects_derived:
        Head instantiations contributed to the database (before the union
        absorbs duplicates and dominated results).
    index_hits:
        Match-index lookups that answered with a candidate list.
    index_misses:
        Lookups where keys existed but no index could answer (full scan).
    full_match_fallbacks:
        Delta rounds that had to fall back to full matching because the rule
        body could not be delta-decomposed (or no sound per-path delta
        existed) — the silent de-optimizations ``fallback_rules`` attributes
        to individual rules.
    fallback_rules:
        Per-rule fallback counts, keyed by the rule's name (or its text when
        unnamed); empty when every body ran delta-incrementally.
    rules_pruned:
        Rules the shape analysis proved statically empty against the input
        database: their bodies were never executed in any round.
    """

    iterations: int = 0
    strata: int = 0
    recursive_strata: int = 0
    delta_matches: int = 0
    full_matches: int = 0
    match_attempts: int = 0
    substitutions: int = 0
    subobjects_derived: int = 0
    index_hits: int = 0
    index_misses: int = 0
    full_match_fallbacks: int = 0
    fallback_rules: Dict[str, int] = field(default_factory=dict)
    rules_pruned: int = 0

    def count_fallback(self, rule) -> None:
        """Record one full-matching fallback attributed to ``rule``."""
        self.full_match_fallbacks += 1
        label = getattr(rule, "name", None) or rule.to_text()
        self.fallback_rules[label] = self.fallback_rules.get(label, 0) + 1

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot of every counter (stable key order)."""
        return {
            "iterations": self.iterations,
            "strata": self.strata,
            "recursive_strata": self.recursive_strata,
            "delta_matches": self.delta_matches,
            "full_matches": self.full_matches,
            "match_attempts": self.match_attempts,
            "substitutions": self.substitutions,
            "subobjects_derived": self.subobjects_derived,
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
            "full_match_fallbacks": self.full_match_fallbacks,
            "rules_pruned": self.rules_pruned,
        }

    def summary(self) -> str:
        """One-line human-readable rendering used by the CLI."""
        text = (
            f"{self.iterations} rounds over {self.strata} strata"
            f" ({self.recursive_strata} recursive),"
            f" {self.match_attempts} match attempts,"
            f" {self.delta_matches} delta / {self.full_matches} full rule evaluations,"
            f" {self.index_hits} index hits"
        )
        if self.rules_pruned:
            text += f", {self.rules_pruned} rules pruned by shape analysis"
        if self.full_match_fallbacks:
            worst = sorted(
                self.fallback_rules.items(), key=lambda item: (-item[1], item[0])
            )
            detail = ", ".join(f"{label}: {count}" for label, count in worst[:3])
            text += (
                f", {self.full_match_fallbacks} full-matching fallbacks ({detail})"
            )
        return text
