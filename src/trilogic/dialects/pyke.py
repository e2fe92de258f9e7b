"""Parser for the rule-engine dialect: typed facts, && rules, one query.

The dialect is deliberately small. Truth shows up only as an explicit
True/False slot on each literal, conjunction is `&&`, implication is `>>>`,
and that is the whole connective vocabulary: anything resembling Xor,
Exists, or a disjunction symbol is rejected at parse time.

A program parses to a Problem, as the other dialects do: a fact is a
ground literal (a False slot is a Not), a rule is ForAll over its
variables, in order of first use, around Implies(body, head), and the
query is an atom. Declaration and arity checks run once the whole text
has parsed, and they raise ExecError, not ParseError: the text was well
formed, the program it described was not, as for an engine that only
type-checks on load.
"""

from __future__ import annotations

from typing import Iterable

from ..fol import (
    MAX_NESTING_DEPTH, And, Atom, ExecError, ForAll, Formula, Implies, Not,
    ParseError, Problem, SourceSpan, too_deep,
)
from ._lex import (
    PUNCTUATION, Cursor, Lexer, TermTable, end_span, section_lines,
)

_CONNECTIVE_WORDS = ("Xor", "Exists", "ForAll", "Or", "And", "Not",
                     "Implies", "Iff")
_CONNECTIVE_CHARS = "|^∨⊕∧¬→↔∀∃"
_SECTIONS = ("predicates", "facts", "rules", "query")

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

    def literal(self) -> Formula:
        """A rule or fact literal; the last argument is its truth slot,
        and a False slot makes it a Not."""
        name, args = self.raw_call()
        tokens = self.tokens
        if not args or tokens[args[-1]] not in ("True", "False"):
            raise self.error(
                f"literal '{tokens[name]}' needs a final True/False slot",
                name)
        value = tokens[args[-1]] == "True"
        keys = []
        for at in args[:-1]:
            text = tokens[at]
            if text in ("True", "False"):
                raise self.error("truth value in argument position", at)
            if text == "bool":
                raise self.error("'bool' is only valid in declarations", at)
            if self.kinds[at] == "var":
                keys.append(self.terms.variable(text[1:]))
            else:
                keys.append(self.terms.constant(text))
        atom = self.terms.atom(tokens[name], keys)
        return atom if value else Not(atom)


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


def _parse_fact(parser: _LineParser) -> Formula:
    fact = parser.literal()
    parser.done()
    if "var" in parser.kinds:
        name = parser.tokens[parser.kinds.index("var")]
        raise ParseError(f"variable '{name}' in a fact",
                         SourceSpan(parser.line_no, 1))
    return fact


def _parse_rule(parser: _LineParser) -> tuple[Formula, list[Formula]]:
    """The rule, and its literals: the body's in order, then the head."""
    # the engine's join nests one level per body literal
    body = [parser.literal()]
    while parser.peek() == "andand":
        at = parser.advance()
        if len(body) == MAX_NESTING_DEPTH:
            raise too_deep(parser.span(at))
        body.append(parser.literal())
    arrow = parser.expect("arrow", "'>>>'")
    head = parser.literal()
    # Tolerate a single stray ')' after the head; some emitters add one.
    if parser.pos == len(parser.tokens) - 1:
        parser.accept("rparen")
    parser.done()
    # the body's variables, in order of first use, each at its first token
    variables: dict[str, int] = {}
    for at, kind in enumerate(parser.kinds):
        if kind != "var":
            continue
        name = parser.tokens[at][1:]
        if at < arrow:
            variables.setdefault(name, at)
        elif name not in variables:
            raise parser.error(
                f"head variable '${name}' not bound in the rule body",
                arrow + 1)
    if len(variables) > MAX_NESTING_DEPTH:
        # each variable is one more quantifier around the rule
        raise too_deep(
            parser.span(list(variables.values())[MAX_NESTING_DEPTH]))
    rule: Formula = Implies(body[0] if len(body) == 1 else And(body), head)
    for name in reversed(variables):
        rule = ForAll(name, rule)
    return rule, [*body, head]


def _parse_query(parser: _LineParser) -> Atom:
    if len(parser.tokens) == 1 and parser.accept("ident"):
        return parser.terms.atom(parser.tokens[0], [])
    name, args = parser.raw_call()
    parser.done()
    keys = []
    for at in args:
        text = parser.tokens[at]
        if text in ("True", "False"):
            raise parser.error("the query takes no truth value", at)
        if parser.kinds[at] == "var":
            raise parser.error(f"variable {text!r} in the query", at)
        keys.append(parser.terms.constant(text))
    return parser.terms.atom(parser.tokens[name], keys)


def _check_arities(declarations: list[tuple[str, int]],
                   uses: Iterable[tuple[Formula, str]]) -> None:
    """ExecError at the first literal of uses, a (literal, where) pair
    whose literal is an atom or a negated atom, whose arity clashes with
    its predicate's declaration or, with no declarations, with the
    predicate's first use."""
    declared: dict[str, int] = {}
    for name, arity in declarations:
        if declared.setdefault(name, arity) != arity:
            raise ExecError(f"predicate '{name}' declared twice with "
                            f"different arities")
    inferred: dict[str, int] = {}
    for literal, where in uses:
        atom = literal.body if isinstance(literal, Not) else literal
        name, arity = atom.predicate, len(atom.args)
        if declared:
            if name not in declared:
                raise ExecError(f"undeclared predicate '{name}' in {where}")
            if declared[name] != arity:
                raise ExecError(
                    f"arity mismatch for '{name}' in {where}: declared "
                    f"{declared[name]}, used with {arity}")
        elif inferred.setdefault(name, arity) != arity:
            raise ExecError(
                f"arity mismatch for '{name}' in {where}: earlier use had "
                f"{inferred[name]}, this one has {arity}")


def parse_pyke(text: str) -> Problem:
    """Parse the rule-engine dialect into a Problem: the facts, then the
    rules, as premises, and the query as the conclusion.

    Sections are Predicates (optional), Facts, Rules (optional; rule lines
    may also sit inside Facts), and Query. Raises ParseError with a source
    span on malformed or out-of-fragment input, then ExecError on an
    undeclared predicate or an arity clash.
    """
    declarations: list[tuple[str, int]] = []
    facts: list[Formula] = []
    rules: list[Formula] = []
    # the rules' literals, rule by rule, for the arity check
    rule_literals: list[Formula] = []
    query: Atom | None = None
    terms = TermTable()
    for section, line_no, raw, content in section_lines(text, _SECTIONS):
        parser = _LineParser(_LEXER, content, line_no, len(raw), terms=terms)
        has_arrow = "arrow" in parser.kinds
        if section == "predicates":
            declarations.append(_parse_declaration(parser))
        elif section == "rules" or (section == "facts" and has_arrow):
            if not has_arrow:
                raise ParseError("expected a rule (missing '>>>')",
                                 SourceSpan(line_no, 1))
            rule, literals = _parse_rule(parser)
            rules.append(rule)
            rule_literals += literals
        elif section == "facts":
            facts.append(_parse_fact(parser))
        else:
            if query is not None:
                raise ParseError("multiple query lines",
                                 SourceSpan(line_no, 1))
            query = _parse_query(parser)

    if query is None:
        raise ParseError("missing Query section", end_span(text))
    _check_arities(declarations, [
        *((f, "a fact") for f in facts),
        *((f, "a rule") for f in rule_literals),
        (query, "the query")])
    # facts and the query are ground, and a rule quantifies its variables
    return Problem._closed((*facts, *rules), query)
