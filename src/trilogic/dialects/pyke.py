"""Parser for the rule-engine dialect: typed facts, && rules, one query.

The dialect is deliberately small. Truth shows up only as an explicit
True/False slot on each literal, conjunction is `&&`, implication is `>>>`,
and that is the whole connective vocabulary: anything resembling Xor,
Exists, or a disjunction symbol is rejected at parse time. Declared-arity
violations are deliberately NOT parse errors; they surface later when the
rule base is compiled, mirroring an engine that only type-checks on load.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..fol import (
    MAX_NESTING_DEPTH, Constant, ParseError, SourceSpan, Term, Variable,
    too_deep,
)
from ._lex import (
    NAME, PUNCTUATION, Cursor, Reject, Token, end_span, lexer, section_lines,
)

_CONNECTIVE_WORDS = ("Xor", "Exists", "ForAll", "Or", "And", "Not",
                     "Implies", "Iff")
_CONNECTIVE_CHARS = "|^∨⊕∧¬→↔∀∃"
_SECTIONS = ("predicates", "facts", "rules", "query")


@dataclass(frozen=True)
class PykeLiteral:
    """One typed literal: predicate, term arguments, and a truth slot."""

    predicate: str
    args: tuple[Term, ...]
    value: bool


@dataclass(frozen=True)
class PykeRule:
    body: tuple[PykeLiteral, ...]
    head: PykeLiteral


@dataclass(frozen=True)
class PykeProgram:
    """A parsed rule-engine program, before any compilation checks."""

    predicates: tuple[tuple[str, int], ...]
    facts: tuple[tuple[str, tuple[str, ...], bool], ...]
    rules: tuple[PykeRule, ...]
    query: tuple[str, tuple[str, ...]]


_CONNECTIVE = Reject("unsupported connective {!r}")
_tokenize = lexer([
    ("[" + re.escape(_CONNECTIVE_CHARS) + "]", _CONNECTIVE),
    (">>>", "arrow"),
    ("&&", "andand"),
    *PUNCTUATION,
    (r"\$\w+", "var"),
    (r"\$", Reject("'$' must introduce a variable name")),
    (NAME, dict.fromkeys(_CONNECTIVE_WORDS, _CONNECTIVE)),
])


class _LineParser(Cursor):
    def raw_call(self) -> tuple[Token, list[Token]]:
        """Parse name(arg, ..., arg) into the name token and arg tokens."""
        name = self.expect("ident", "a predicate name")
        self.expect("lparen", "'('")
        args: list[Token] = []
        if self.accept("rparen"):
            return name, args
        while True:
            tok = self.advance()
            if tok.kind not in ("ident", "var"):
                raise ParseError(f"expected an argument, found {tok.text!r}",
                                 tok.span())
            args.append(tok)
            if not self.accept("comma"):
                self.expect("rparen", "')'")
                return name, args

    def literal(self) -> PykeLiteral:
        """A rule or fact literal; the last argument is its truth slot."""
        name, args = self.raw_call()
        if not args or args[-1].text not in ("True", "False"):
            raise ParseError(
                f"literal '{name.text}' needs a final True/False slot",
                name.span())
        value = args[-1].text == "True"
        terms: list[Term] = []
        for tok in args[:-1]:
            if tok.text in ("True", "False"):
                raise ParseError("truth value in argument position",
                                 tok.span())
            if tok.text == "bool":
                raise ParseError("'bool' is only valid in declarations",
                                 tok.span())
            if tok.kind == "var":
                terms.append(Variable(tok.text[1:]))
            else:
                terms.append(Constant(tok.text))
        return PykeLiteral(name.text, tuple(terms), value)


def _parse_declaration(parser: _LineParser) -> tuple[str, int]:
    name, args = parser.raw_call()
    parser.done()
    if not args or args[-1].text != "bool":
        raise ParseError(
            f"declaration of '{name.text}' needs a final 'bool' slot",
            name.span())
    for tok in args[:-1]:
        if tok.text in ("True", "False", "bool"):
            raise ParseError(f"unexpected {tok.text!r} in declaration",
                             tok.span())
    return name.text, len(args) - 1


def _parse_fact(parser: _LineParser) -> tuple[str, tuple[str, ...], bool]:
    lit = parser.literal()
    parser.done()
    names = []
    for term in lit.args:
        if isinstance(term, Variable):
            raise ParseError(f"variable '${term.name}' in a fact",
                             SourceSpan(parser.line_no, 1))
        names.append(term.name)
    return lit.predicate, tuple(names), lit.value


def _parse_rule(parser: _LineParser) -> PykeRule:
    # the engine's join nests one level per body literal
    body = [parser.literal()]
    while tok := parser.accept("andand"):
        if len(body) == MAX_NESTING_DEPTH:
            raise too_deep(tok.span())
        body.append(parser.literal())
    parser.expect("arrow", "'>>>'")
    head_start = parser.peek()
    head = parser.literal()
    # Tolerate a single stray ')' after the head; some emitters add one.
    if parser.pos == len(parser.tokens) - 1:
        parser.accept("rparen")
    parser.done()
    bound = {t.name for lit in body for t in lit.args if isinstance(t, Variable)}
    for term in head.args:
        if isinstance(term, Variable) and term.name not in bound:
            raise ParseError(
                f"head variable '${term.name}' not bound in the rule body",
                head_start.span())
    return PykeRule(tuple(body), head)


def _parse_query(parser: _LineParser) -> tuple[str, tuple[str, ...]]:
    if len(parser.tokens) == 1 and (tok := parser.accept("ident")):
        return tok.text, ()
    name, args = parser.raw_call()
    parser.done()
    names = []
    for tok in args:
        if tok.text in ("True", "False"):
            raise ParseError("the query takes no truth value", tok.span())
        if tok.kind == "var":
            raise ParseError(f"variable {tok.text!r} in the query", tok.span())
        names.append(tok.text)
    return name.text, tuple(names)


def parse_pyke(text: str) -> PykeProgram:
    """Parse the rule-engine dialect into a PykeProgram.

    Sections are Predicates (optional), Facts, Rules (optional; rule lines
    may also sit inside Facts), and Query. Raises ParseError with a source
    span on malformed or out-of-fragment input.
    """
    declarations: list[tuple[str, int]] = []
    facts: list[tuple[str, tuple[str, ...], bool]] = []
    rules: list[PykeRule] = []
    query: tuple[str, tuple[str, ...]] | None = None
    for section, line_no, raw, content in section_lines(text, _SECTIONS):
        tokens = _tokenize(content, line_no)
        parser = _LineParser(tokens, line_no, len(raw))
        has_arrow = any(t.kind == "arrow" for t in tokens)
        if section == "predicates":
            declarations.append(_parse_declaration(parser))
        elif section == "rules" or (section == "facts" and has_arrow):
            if not has_arrow:
                raise ParseError("expected a rule (missing '>>>')",
                                 SourceSpan(line_no, 1))
            rules.append(_parse_rule(parser))
        elif section == "facts":
            facts.append(_parse_fact(parser))
        else:
            if query is not None:
                raise ParseError("multiple query lines",
                                 SourceSpan(line_no, 1))
            query = _parse_query(parser)

    if query is None:
        raise ParseError("missing Query section", end_span(text))
    return PykeProgram(tuple(declarations), tuple(facts), tuple(rules), query)
