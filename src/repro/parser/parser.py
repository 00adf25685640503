"""Recursive-descent parser for objects, formulae, rules and programs.

Grammar (EBNF, whitespace and comments implicit):

.. code-block:: text

    program   ::= { clause }
    clause    ::= rule | fact
    rule      ::= term ":-" term "."
    fact      ::= term "."
    term      ::= tuple | set | scalar
    tuple     ::= "[" [ pair { "," pair } ] "]"
    pair      ::= attribute ":" term
    attribute ::= IDENT | STRING
    set       ::= "{" [ term { "," term } ] "}"
    scalar    ::= INTEGER | FLOAT | STRING | IDENT | PARAM

An IDENT in term position is interpreted by the Prolog convention: ``top``,
``bottom``, ``true`` and ``false`` are the special constants, an identifier
starting with an upper-case letter or ``_`` is a variable (only legal in
formulae), anything else is a string constant.  A PARAM (``$name``) is a
named constant slot bound at execute time; parameters are only legal in
query formulae (:func:`parse_formula`), not in objects, rules or programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.errors import ParseError
from repro.core.objects import BOTTOM, TOP, Atom, ComplexObject, SetObject, TupleObject
from repro.calculus.rules import Rule
from repro.calculus.terms import (
    Constant,
    Formula,
    Parameter,
    SetFormula,
    TupleFormula,
    Variable,
    formula as to_formula,
    within_budget,
)
from repro.parser.lexer import Token, TokenType, tokenize

__all__ = ["SourceSpan", "parse_object", "parse_formula", "parse_rule", "parse_program"]


@dataclass(frozen=True)
class SourceSpan:
    """Source location of one parsed clause: character range plus line/column.

    ``start``/``end`` are character offsets into the parsed text (end is
    exclusive); ``line``/``column`` locate ``start``, 1-based, the convention
    :class:`~repro.core.errors.ParseError` already reports.  Attached to
    :class:`~repro.calculus.rules.Rule` instances by :func:`parse_rule` and
    :func:`parse_program` so static diagnostics (:mod:`repro.lint`) can point
    at the offending clause.
    """

    start: int
    end: int
    line: int
    column: int

    def describe(self) -> str:
        return f"line {self.line}, column {self.column}"


def parse_object(text: str) -> ComplexObject:
    """Parse a ground complex object written in the paper's notation.

    Variables are rejected: an object is a formula without variables
    (Definition 4.1 shares its syntax with Definition 2.1).
    """
    parser = _Parser(text, allow_variables=False)
    formula = parser.parse_single_term()
    try:
        return _to_object(formula)
    except RecursionError:
        raise parser.too_deep() from None


def parse_formula(text: str) -> Formula:
    """Parse a well-formed formula (objects with Prolog-style variables).

    Query formulae may additionally contain named ``$parameter`` slots,
    constants whose values are supplied at execute time (see
    :meth:`repro.api.Session.prepare`).
    """
    parser = _Parser(text, allow_variables=True, allow_parameters=True)
    return parser.parse_single_term()


def as_formula(query, to: str) -> Formula:
    """The intake of a query or clause: parsed or converted, within the depth budget."""
    return within_budget(parse_formula(query) if isinstance(query, str) else to_formula(query), to)


def parse_rule(text: str) -> Rule:
    """Parse one rule ``head :- body.`` or fact ``head.`` (period optional)."""
    parser = _Parser(text, allow_variables=True)
    rule = parser.parse_clause(require_period=False)
    parser.expect_end()
    return rule


def parse_program(text: str) -> List[Rule]:
    """Parse a whole program: a sequence of period-terminated clauses."""
    parser = _Parser(text, allow_variables=True)
    clauses: List[Rule] = []
    while not parser.at_end():
        clauses.append(parser.parse_clause(require_period=True))
    return clauses


class _Parser:
    """Stateful cursor over the token list; one instance per parse call."""

    def __init__(self, text: str, allow_variables: bool, allow_parameters: bool = False):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.allow_variables = allow_variables
        self.allow_parameters = allow_parameters

    # -- token plumbing -----------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def expect(self, token_type: TokenType) -> Token:
        token = self.peek()
        if token.type is not token_type:
            raise ParseError(
                f"expected {token_type.value!r} but found {token.text or 'end of input'!r}",
                self.text,
                token.position,
            )
        return self.advance()

    def at_end(self) -> bool:
        return self.peek().type is TokenType.EOF

    def expect_end(self) -> None:
        token = self.peek()
        if token.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input {token.text!r}", self.text, token.position
            )

    # -- grammar ------------------------------------------------------------------
    # The descent recurses once per nesting level, so hostile nesting runs the
    # interpreter out of stack.  The two grammar entries (and parse_object's
    # conversion) turn that into the typed error; nothing is counted per token.
    def too_deep(self) -> ParseError:
        """The error for input nested deeper than the recursive descent can go."""
        depth = deepest = position = 0
        for token in self.tokens:
            if token.type in (TokenType.LBRACKET, TokenType.LBRACE):
                depth += 1
                if depth > deepest:
                    deepest, position = depth, token.position
            elif token.type in (TokenType.RBRACKET, TokenType.RBRACE):
                depth -= 1
        return ParseError(
            f"input is nested {deepest} levels deep, too deep to parse", self.text, position
        )

    def parse_single_term(self) -> Formula:
        try:
            term = self.parse_term()
        except RecursionError:
            raise self.too_deep() from None
        self.expect_end()
        return term

    def parse_clause(self, require_period: bool) -> Rule:
        start_token = self.peek()
        try:
            head, body = self._parse_clause(require_period)
        except RecursionError:
            raise self.too_deep() from None
        # Outside the guard: a clause too deep for the formula budget is Rule's error.
        return Rule(head, body, span=self._span_from(start_token))

    def _parse_clause(self, require_period: bool) -> Tuple[object, Optional[Formula]]:
        head = self.parse_term()
        body: Optional[Formula] = None
        if self.peek().type is TokenType.ARROW:
            self.advance()
            body = self.parse_term()
        if self.peek().type is TokenType.PERIOD:
            self.advance()
        elif require_period:
            token = self.peek()
            raise ParseError("expected '.' at the end of the clause", self.text, token.position)
        return (head, body) if body is not None else (_to_object(head), None)

    def _span_from(self, start_token: Token) -> SourceSpan:
        """The span from ``start_token`` through the last consumed token."""
        start = start_token.position
        last = self.tokens[self.index - 1] if self.index else start_token
        end = last.position + len(last.text or "")
        line = self.text.count("\n", 0, start) + 1
        column = start - (self.text.rfind("\n", 0, start) + 1) + 1
        return SourceSpan(start=start, end=end, line=line, column=column)

    def parse_term(self) -> Formula:
        token = self.peek()
        if token.type is TokenType.LBRACKET:
            return self.parse_tuple()
        if token.type is TokenType.LBRACE:
            return self.parse_set()
        return self.parse_scalar()

    def parse_tuple(self) -> Formula:
        self.expect(TokenType.LBRACKET)
        attributes = {}
        if self.peek().type is not TokenType.RBRACKET:
            while True:
                name_token = self.peek()
                if name_token.type not in (TokenType.IDENT, TokenType.STRING):
                    raise ParseError(
                        "expected an attribute name", self.text, name_token.position
                    )
                self.advance()
                name = str(name_token.value)
                if name in attributes:
                    raise ParseError(
                        f"duplicate attribute name {name!r}", self.text, name_token.position
                    )
                self.expect(TokenType.COLON)
                attributes[name] = self.parse_term()
                if self.peek().type is TokenType.COMMA:
                    self.advance()
                    continue
                break
        self.expect(TokenType.RBRACKET)
        return TupleFormula(attributes)

    def parse_set(self) -> Formula:
        self.expect(TokenType.LBRACE)
        elements = []
        if self.peek().type is not TokenType.RBRACE:
            while True:
                elements.append(self.parse_term())
                if self.peek().type is TokenType.COMMA:
                    self.advance()
                    continue
                break
        self.expect(TokenType.RBRACE)
        return SetFormula(elements)

    def parse_scalar(self) -> Formula:
        token = self.peek()
        if token.type is TokenType.PARAM:
            if not self.allow_parameters:
                raise ParseError(
                    f"parameters are only allowed in query formulae: ${token.value}",
                    self.text,
                    token.position,
                )
            self.advance()
            return Parameter(str(token.value))
        if token.type in (TokenType.INTEGER, TokenType.FLOAT):
            self.advance()
            return Constant(Atom(token.value))
        if token.type is TokenType.STRING:
            self.advance()
            return Constant(Atom(str(token.value)))
        if token.type is TokenType.IDENT:
            self.advance()
            name = str(token.value)
            if name == "top":
                return Constant(TOP)
            if name == "bottom":
                return Constant(BOTTOM)
            if name == "true":
                return Constant(Atom(True))
            if name == "false":
                return Constant(Atom(False))
            if name[0].isupper() or name[0] == "_":
                if not self.allow_variables:
                    raise ParseError(
                        f"variables are not allowed in ground objects: {name!r}",
                        self.text,
                        token.position,
                    )
                return Variable(name)
            return Constant(Atom(name))
        raise ParseError(
            f"expected a term but found {token.text or 'end of input'!r}",
            self.text,
            token.position,
        )


def _to_object(formula: Formula) -> ComplexObject:
    """Convert a variable-free formula into the complex object it denotes."""
    if isinstance(formula, Constant):
        return formula.value
    if isinstance(formula, Parameter):
        raise ParseError(f"unexpected parameter ${formula.name} in a ground object")
    if isinstance(formula, Variable):
        raise ParseError(f"unexpected variable {formula.name!r} in a ground object")
    if isinstance(formula, TupleFormula):
        return TupleObject({name: _to_object(child) for name, child in formula.items()})
    if isinstance(formula, SetFormula):
        return SetObject(_to_object(child) for child in formula.elements)
    raise TypeError(f"not a formula: {formula!r}")
