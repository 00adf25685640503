"""Rules and rule sets (Definitions 4.3–4.5, Lemma 4.1).

A well-formed formula can only extract a sub-structure of the database; to
rename attributes, drop attributes, introduce constants, build new nesting —
in short to *restructure* — the paper introduces rules.  A rule is a pair
``head :- body`` of well-formed formulae whose head variables all occur in the
body (Definition 4.3).  Its effect on an object ``O`` (Definition 4.4) is

    ``r(O) = ⋃ { σ(head) | σ such that σ(body) ≤ O }``

i.e. every substitution that makes the body a sub-object of the database
contributes its instantiated head, and the contributions are joined.  A
*fact* is represented as a rule with no body: it contributes its (ground)
head unconditionally.

Rule application is monotone in ``O`` (Lemma 4.1), which is what makes the
fixpoint semantics of :mod:`repro.calculus.fixpoint` well defined.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.lattice import union, union_all
from repro.core.objects import BOTTOM, ComplexObject
from repro.calculus.matching import match_all
from repro.calculus.substitution import Substitution
from repro.calculus.terms import formula as to_formula, within_budget

__all__ = ["Rule", "RuleSet", "apply_rule", "apply_rules"]


class Rule:
    """A rule ``head :- body`` (Definition 4.3), or a fact when ``body`` is ``None``.

    ``span`` is optional source-location metadata (a
    :class:`repro.parser.SourceSpan`) attached by the parser so static
    diagnostics (:mod:`repro.lint`) can point at the offending clause; like
    ``name`` it does not participate in equality or hashing, which compare
    the (hash-consed) head and body by identity.  A head or body deeper than
    the formula depth budget raises :class:`~repro.core.errors.NestingError`.
    """

    __slots__ = ("head", "body", "name", "span")

    def __init__(self, head, body=None, name: Optional[str] = None, span=None):
        head_formula = to_formula(head)
        body_formula = None if body is None else to_formula(body)
        parts = [head_formula] if body_formula is None else [head_formula, body_formula]
        within_budget(max(parts, key=lambda part: part._depth), "make a rule")
        head_variables = head_formula.variables()
        body_variables = None if body_formula is None else body_formula.variables()
        if body_variables is not None:
            extra = head_variables - body_variables
            if extra:
                missing = ", ".join(sorted(extra))
                raise ValueError(
                    f"head variables must occur in the body (Definition 4.3); unbound: {missing}"
                )
        elif head_variables:
            free = ", ".join(sorted(head_variables))
            raise ValueError(f"a fact must be ground; free variables: {free}")
        object.__setattr__(self, "head", head_formula)
        object.__setattr__(self, "body", body_formula)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "span", span)

    def __setattr__(self, key, value):
        raise AttributeError("Rule is immutable")

    @property
    def is_fact(self) -> bool:
        """``True`` when the rule has no body and fires unconditionally."""
        return self.body is None

    def variables(self):
        """All variables of the rule (those of the body; facts have none)."""
        if self.body is None:
            return frozenset()
        return self.body.variables()

    def substitutions(
        self, database: ComplexObject, *, allow_bottom: bool = False
    ) -> List[Substitution]:
        """The derivation-maximal substitutions that satisfy the body against ``database``."""
        if self.body is None:
            return [Substitution()]
        return match_all(self.body, database, allow_bottom=allow_bottom)

    def apply(self, database: ComplexObject, *, allow_bottom: bool = False) -> ComplexObject:
        """The effect ``r(O)`` of the rule on ``database`` (Definition 4.4).

        ``allow_bottom`` selects the literal semantics (⊥ bindings permitted)
        instead of the default strict semantics; see
        :mod:`repro.calculus.matching`.
        """
        contributions = [
            substitution.apply(self.head)
            for substitution in self.substitutions(database, allow_bottom=allow_bottom)
        ]
        return union_all(contributions)

    def __call__(self, database: ComplexObject, *, allow_bottom: bool = False) -> ComplexObject:
        return self.apply(database, allow_bottom=allow_bottom)

    def to_text(self) -> str:
        if self.body is None:
            return f"{self.head.to_text()}."
        return f"{self.head.to_text()} :- {self.body.to_text()}."

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Rule{label} {self.to_text()}>"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self.head is other.head and self.body is other.body

    def __hash__(self) -> int:
        return hash((self.head, self.body))


class RuleSet:
    """An ordered collection of rules, applied jointly.

    The effect of a rule set on an object is the union of the effects of its
    rules: ``R(O) = ⋃ { r(O) | r ∈ R }`` (Section 4, just after Lemma 4.1).
    """

    __slots__ = ("rules",)

    def __init__(self, rules: Iterable[Union[Rule, Tuple]] = ()):
        collected: List[Rule] = []
        for entry in rules:
            if isinstance(entry, Rule):
                collected.append(entry)
            elif isinstance(entry, tuple) and len(entry) == 2:
                collected.append(Rule(entry[0], entry[1]))
            else:
                raise TypeError(
                    "RuleSet entries must be Rule instances or (head, body) pairs"
                )
        object.__setattr__(self, "rules", tuple(collected))

    def __setattr__(self, key, value):
        raise AttributeError("RuleSet is immutable")

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, index: int) -> Rule:
        return self.rules[index]

    def apply(self, database: ComplexObject, *, allow_bottom: bool = False) -> ComplexObject:
        """The joint effect ``R(O)`` of every rule in the set."""
        return union_all(rule.apply(database, allow_bottom=allow_bottom) for rule in self.rules)

    def __call__(self, database: ComplexObject, *, allow_bottom: bool = False) -> ComplexObject:
        return self.apply(database, allow_bottom=allow_bottom)

    def is_closed(self, database: ComplexObject, *, allow_bottom: bool = False) -> bool:
        """``True`` when ``database`` is closed under the rule set (Definition 4.5)."""
        from repro.core.order import is_subobject

        return is_subobject(self.apply(database, allow_bottom=allow_bottom), database)

    def extend(self, rules: Iterable[Rule]) -> "RuleSet":
        """Return a new rule set with the additional rules appended."""
        return RuleSet(tuple(self.rules) + tuple(rules))

    def to_text(self) -> str:
        return "\n".join(rule.to_text() for rule in self.rules)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<RuleSet of {len(self.rules)} rules>"


def apply_rule(
    rule: Rule, database: ComplexObject, *, allow_bottom: bool = False
) -> ComplexObject:
    """Functional form of :meth:`Rule.apply` (Definition 4.4)."""
    return rule.apply(database, allow_bottom=allow_bottom)


def apply_rules(
    rules: Sequence[Rule], database: ComplexObject, *, allow_bottom: bool = False
) -> ComplexObject:
    """Apply several rules jointly and union the results."""
    if isinstance(rules, RuleSet):
        return rules.apply(database, allow_bottom=allow_bottom)
    return RuleSet(rules).apply(database, allow_bottom=allow_bottom)
