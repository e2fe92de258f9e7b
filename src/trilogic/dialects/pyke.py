"""Parser for the rule-engine dialect: typed facts, && rules, one query.

The dialect is deliberately small. Truth shows up only as an explicit
True/False slot on each literal, conjunction is `&&`, implication is `>>>`,
and that is the whole connective vocabulary: anything resembling Xor,
Exists, or a disjunction symbol is rejected at parse time. Declared-arity
violations are deliberately NOT parse errors; they surface later when the
rule base is compiled, mirroring an engine that only type-checks on load.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fol import (
    MAX_NESTING_DEPTH, Constant, ParseError, SourceSpan, Term, Variable,
    too_deep,
)
from ._lex import (
    PUNCTUATION, Cursor, Lexer, end_span, section_lines,
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


_LEXER = Lexer((">>>", "&&", r"\$\w+"), {
    ">>>": "arrow", "&&": "andand", **PUNCTUATION,
}, rejects={
    **{c: f"unsupported connective {c!r}"
       for c in (*_CONNECTIVE_CHARS, *_CONNECTIVE_WORDS)},
    "$": "'$' must introduce a variable name",
})


class _LineParser(Cursor):
    def raw_call(self) -> tuple[int, list[int]]:
        """Parse name(arg, ..., arg) into the indices of the name and of
        the args."""
        name = self.expect("ident", "a predicate name")
        self.expect("lparen", "'('")
        args: list[int] = []
        if self.accept("rparen"):
            return name, args
        while True:
            at = self.advance()
            if self.kinds[at] not in ("ident", "var"):
                raise self.error(
                    f"expected an argument, found {self.tokens[at]!r}", at)
            args.append(at)
            if not self.accept("comma"):
                self.expect("rparen", "')'")
                return name, args

    def literal(self) -> PykeLiteral:
        """A rule or fact literal; the last argument is its truth slot."""
        name, args = self.raw_call()
        tokens = self.tokens
        if not args or tokens[args[-1]] not in ("True", "False"):
            raise self.error(
                f"literal '{tokens[name]}' needs a final True/False slot",
                name)
        value = tokens[args[-1]] == "True"
        terms: list[Term] = []
        for at in args[:-1]:
            text = tokens[at]
            if text in ("True", "False"):
                raise self.error("truth value in argument position", at)
            if text == "bool":
                raise self.error("'bool' is only valid in declarations", at)
            if self.kinds[at] == "var":
                terms.append(Variable(text[1:]))
            else:
                terms.append(Constant(text))
        return PykeLiteral(tokens[name], tuple(terms), value)


def _parse_declaration(parser: _LineParser) -> tuple[str, int]:
    name, args = parser.raw_call()
    parser.done()
    tokens = parser.tokens
    if not args or tokens[args[-1]] != "bool":
        raise parser.error(
            f"declaration of '{tokens[name]}' needs a final 'bool' slot",
            name)
    for at in args[:-1]:
        if tokens[at] in ("True", "False", "bool"):
            raise parser.error(f"unexpected {tokens[at]!r} in declaration",
                               at)
    return tokens[name], len(args) - 1


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
    while parser.peek() == "andand":
        at = parser.advance()
        if len(body) == MAX_NESTING_DEPTH:
            raise too_deep(parser.span(at))
        body.append(parser.literal())
    parser.expect("arrow", "'>>>'")
    head_start = parser.pos
    head = parser.literal()
    # Tolerate a single stray ')' after the head; some emitters add one.
    if parser.pos == len(parser.tokens) - 1:
        parser.accept("rparen")
    parser.done()
    bound = {t.name for lit in body for t in lit.args if isinstance(t, Variable)}
    for term in head.args:
        if isinstance(term, Variable) and term.name not in bound:
            raise parser.error(
                f"head variable '${term.name}' not bound in the rule body",
                head_start)
    return PykeRule(tuple(body), head)


def _parse_query(parser: _LineParser) -> tuple[str, tuple[str, ...]]:
    if len(parser.tokens) == 1 and parser.accept("ident"):
        return parser.tokens[0], ()
    name, args = parser.raw_call()
    parser.done()
    names = []
    for at in args:
        text = parser.tokens[at]
        if text in ("True", "False"):
            raise parser.error("the query takes no truth value", at)
        if parser.kinds[at] == "var":
            raise parser.error(f"variable {text!r} in the query", at)
        names.append(text)
    return parser.tokens[name], tuple(names)


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
        parser = _LineParser(_LEXER, content, line_no, len(raw))
        has_arrow = "arrow" in parser.kinds
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
