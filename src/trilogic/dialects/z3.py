"""Parser for the solver-API dialect: one assertion expression per line.

The surface is the call style of a Python SMT binding: And/Or/Not/Xor/
Implies calls, == for equivalence, ForAll/Exists with a bracketed variable
list, and a final `return <expr>` naming the conclusion. An optional
`def solution():` wrapper line is tolerated because prompt templates differ
on whether they include it. Nothing is evaluated; lines are parsed
structurally, so an unknown callee is a parse error rather than a NameError.
"""

from __future__ import annotations

import re

from ..fol import (
    And, Atom, Constant, Exists, ForAll, Formula, Iff, Implies, Not, Or,
    ParseError, Problem, SourceSpan, Term, Variable, Xor,
)
from ._lex import (
    NAME, PUNCTUATION, Cursor, Reject, Token, content_lines, end_span,
    indent_span, lexer,
)

_DEF_LINE = re.compile(r"^def\s+[A-Za-z_]\w*\s*\(\s*\)\s*:\s*$")
_OPERATORS = ("And", "Or", "Not", "Xor", "Implies", "ForAll", "Exists")
_BOOLEANS = ("True", "False")
_tokenize = lexer([
    ("==", "iff"),
    ("=", Reject("assignment is not supported")),
    (r"\[", "lbracket"),
    (r"\]", "rbracket"),
    *PUNCTUATION,
    (NAME, {}),
])


class _LineParser(Cursor):
    end_message = "unbalanced brackets"

    def __init__(self, tokens: list[Token], line_no: int, line_len: int,
                 arities: dict[str, int]) -> None:
        super().__init__(tokens, line_no, line_len)
        self.arities = arities
        self.scope: list[str] = []

    def parse(self) -> Formula:
        f = self.expression()
        self.done()
        return f

    def expression(self) -> Formula:
        outer = self.depth
        units = [self.unit()]
        while (tok := self.accept("iff")) is not None:
            # each link nests the rest of the chain one level deeper
            self.deeper(tok)
            units.append(self.unit())
        self.depth = outer
        node = units[-1]
        for left in reversed(units[:-1]):
            node = Iff(left, node)
        return node

    def unit(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise self.end_of_line()
        if tok.kind == "lparen":
            self.advance()
            self.deeper(tok)
            inner = self.expression()
            self.expect("rparen", "')'")
            self.depth -= 1
            return inner
        if tok.kind == "lbracket":
            raise ParseError("unexpected '['", tok.span())
        if tok.kind == "ident":
            return self.name_or_call()
        raise ParseError(f"unexpected token {tok.text!r}", tok.span())

    def name_or_call(self) -> Formula:
        name_tok = self.advance()
        name = name_tok.text
        nxt = self.peek()
        if nxt is None or nxt.kind != "lparen":
            if name in _OPERATORS:
                raise ParseError(f"operator '{name}' needs arguments",
                                 name_tok.span())
            if name in _BOOLEANS:
                raise ParseError("boolean literal is not supported",
                                 name_tok.span())
            if name in self.scope:
                raise ParseError(f"variable '{name}' used as a formula",
                                 name_tok.span())
            self.check_arity(name, 0, name_tok)
            return Atom(name)
        if name in ("ForAll", "Exists"):
            return self.quantifier_call(name_tok)
        if name in _OPERATORS:
            return self.operator_call(name_tok)
        return self.atom_call(name_tok)

    def operator_call(self, name_tok: Token) -> Formula:
        name = name_tok.text
        self.expect("lparen", "'('")
        self.deeper(name_tok)
        args = [self.expression()]
        while self.accept("comma"):
            args.append(self.expression())
        self.expect("rparen", "')'")
        self.depth -= 1
        if name == "Not":
            if len(args) != 1:
                raise ParseError("Not takes exactly 1 argument", name_tok.span())
            return Not(args[0])
        if name in ("Xor", "Implies"):
            if len(args) != 2:
                raise ParseError(f"{name} takes exactly 2 arguments",
                                 name_tok.span())
            cls = Xor if name == "Xor" else Implies
            return cls(args[0], args[1])
        if len(args) < 2:
            raise ParseError(f"{name} takes at least 2 arguments",
                             name_tok.span())
        cls = And if name == "And" else Or
        return cls(tuple(args))

    def quantifier_call(self, name_tok: Token) -> Formula:
        self.expect("lparen", "'('")
        self.deeper(name_tok)
        self.expect("lbracket", "'['")
        variables = [self.expect("ident", "a variable name")]
        while self.accept("comma"):
            variables.append(self.expect("ident", "a variable name"))
        self.expect("rbracket", "']'")
        self.expect("comma", "','")
        for v in variables:
            self.scope.append(v.text)
        try:
            body = self.expression()
        finally:
            del self.scope[len(self.scope) - len(variables):]
        self.expect("rparen", "')'")
        self.depth -= 1
        cls = ForAll if name_tok.text == "ForAll" else Exists
        for v in reversed(variables):
            body = cls(v.text, body)
        return body

    def atom_call(self, name_tok: Token) -> Formula:
        name = name_tok.text
        self.expect("lparen", "'('")
        args = [self.term(name_tok)]
        while self.accept("comma"):
            args.append(self.term(name_tok))
        self.expect("rparen", "')'")
        self.check_arity(name, len(args), name_tok)
        return Atom(name, tuple(args))

    def term(self, callee: Token) -> Term:
        tok = self.peek()
        if tok is not None and tok.kind == "lbracket":
            # A bracketed list marks a quantifier-style call, so the callee
            # was meant to be an operator and is not one we know.
            raise ParseError(f"unknown operator '{callee.text}'", callee.span())
        tok = self.expect("ident", "a term")
        nxt = self.peek()
        if nxt is not None and nxt.kind == "lparen":
            raise ParseError("function application in term position is not "
                             "supported", tok.span())
        if tok.text in _BOOLEANS:
            raise ParseError("boolean literal is not supported", tok.span())
        if tok.text in self.scope:
            return Variable(tok.text)
        return Constant(tok.text)

    def check_arity(self, name: str, arity: int, tok: Token) -> None:
        known = self.arities.get(name)
        if known is None:
            self.arities[name] = arity
        elif known != arity:
            raise ParseError(
                f"inconsistent arity for predicate '{name}': {known} vs {arity}",
                tok.span())


def parse_z3(text: str) -> Problem:
    """Parse the solver-API dialect into a Problem.

    Every non-comment line is one assertion; the final line must be
    `return <expr>` and names the conclusion.
    """
    arities: dict[str, int] = {}
    premises: list[Formula] = []
    conclusion: Formula | None = None
    for index, (line_no, raw, content) in enumerate(
            content_lines(text, ("#",))):
        if index == 0 and _DEF_LINE.match(content.strip()):
            continue
        if conclusion is not None:
            raise ParseError("content after the return line",
                             indent_span(line_no, content))
        tokens = _tokenize(content, line_no)
        is_return = tokens[0].text == "return"  # a content line has a token
        if is_return:
            tokens = tokens[1:]
            if not tokens:
                raise ParseError("return without an expression",
                                 SourceSpan(line_no, max(1, len(raw))))
        formula = _LineParser(tokens, line_no, len(raw), arities).parse()
        if is_return:
            conclusion = formula
        else:
            premises.append(formula)

    if conclusion is None:
        raise ParseError("missing return line", end_span(text))
    return Problem(tuple(premises), conclusion)
