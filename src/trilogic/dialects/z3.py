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
from dataclasses import dataclass

from ..fol import (
    And, Atom, Constant, Exists, ForAll, Formula, Iff, Implies, Not, Or,
    ParseError, Problem, SourceSpan, Term, Variable, WorldAssumption, Xor,
    MAX_NESTING_DEPTH, too_deep,
)

_DEF_LINE = re.compile(r"^def\s+[A-Za-z_]\w*\s*\(\s*\)\s*:\s*$")
_OPERATORS = ("And", "Or", "Not", "Xor", "Implies", "ForAll", "Exists")
_BOOLEANS = ("True", "False")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int

    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, max(1, len(self.text)))


def _strip_comment(raw: str) -> str:
    pos = raw.find("#")
    if pos == -1:
        return raw
    return raw[:pos]


def _tokenize(content: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(content)
    while i < n:
        ch = content[i]
        col = i + 1
        if ch.isspace():
            i += 1
            continue
        if content.startswith("==", i):
            tokens.append(_Token("iff", "==", line_no, col))
            i += 2
            continue
        if ch == "=":
            raise ParseError("assignment is not supported",
                             SourceSpan(line_no, col))
        if ch in "()[],":
            kinds = {"(": "lparen", ")": "rparen",
                     "[": "lbracket", "]": "rbracket", ",": "comma"}
            tokens.append(_Token(kinds[ch], ch, line_no, col))
            i += 1
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (content[j].isalnum() or content[j] == "_"):
                j += 1
            tokens.append(_Token("ident", content[i:j], line_no, col))
            i = j
            continue
        if ch == "_":
            raise ParseError("reserved identifier starting with '_'",
                             SourceSpan(line_no, col))
        raise ParseError(f"unexpected character {ch!r}", SourceSpan(line_no, col))
    return tokens


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int,
                 arities: dict[str, int]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.line_len = line_len
        self.arities = arities
        self.scope: list[str] = []
        self.depth = 0

    def deeper(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise too_deep(tok.span())

    def peek(self) -> _Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def advance(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unbalanced brackets",
                             SourceSpan(self.line_no, max(1, self.line_len)))
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unbalanced brackets",
                             SourceSpan(self.line_no, max(1, self.line_len)))
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.span())
        return self.advance()

    def parse(self) -> Formula:
        f = self.expression()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.span())
        return f

    def expression(self) -> Formula:
        units = [self.unit()]
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "iff":
                break
            self.advance()
            units.append(self.unit())
        node = units[-1]
        for left in reversed(units[:-1]):
            node = Iff(left, node)
        return node

    def unit(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unbalanced brackets",
                             SourceSpan(self.line_no, max(1, self.line_len)))
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

    def operator_call(self, name_tok: _Token) -> Formula:
        name = name_tok.text
        self.expect("lparen", "'('")
        self.deeper(name_tok)
        args = [self.expression()]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "comma":
                self.advance()
                args.append(self.expression())
            else:
                break
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

    def quantifier_call(self, name_tok: _Token) -> Formula:
        self.expect("lparen", "'('")
        self.deeper(name_tok)
        self.expect("lbracket", "'['")
        variables = [self.expect("ident", "a variable name")]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "comma":
                self.advance()
                variables.append(self.expect("ident", "a variable name"))
            else:
                break
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

    def atom_call(self, name_tok: _Token) -> Formula:
        name = name_tok.text
        self.expect("lparen", "'('")
        args = [self.term(name_tok)]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "comma":
                self.advance()
                args.append(self.term(name_tok))
            else:
                break
        self.expect("rparen", "')'")
        self.check_arity(name, len(args), name_tok)
        return Atom(name, tuple(args))

    def term(self, callee: _Token) -> Term:
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

    def check_arity(self, name: str, arity: int, tok: _Token) -> None:
        known = self.arities.get(name)
        if known is None:
            self.arities[name] = arity
        elif known != arity:
            raise ParseError(
                f"inconsistent arity for predicate '{name}': {known} vs {arity}",
                tok.span())


def parse_z3(text: str,
             assumption: WorldAssumption = WorldAssumption.OWA,
             problem_id: str = "") -> Problem:
    """Parse the solver-API dialect into a Problem.

    Every non-comment line is one assertion; the final line must be
    `return <expr>` and names the conclusion.
    """
    lines = text.split("\n")
    arities: dict[str, int] = {}
    premises: list[Formula] = []
    conclusion: Formula | None = None
    saw_content = False
    last_line = max(1, len(lines))

    for line_no, raw in enumerate(lines, start=1):
        content = _strip_comment(raw)
        stripped = content.strip()
        if not stripped:
            continue
        if not saw_content and _DEF_LINE.match(stripped):
            saw_content = True
            continue
        saw_content = True
        if conclusion is not None:
            col = len(content) - len(content.lstrip()) + 1
            raise ParseError("content after the return line",
                             SourceSpan(line_no, col))
        tokens = _tokenize(content, line_no)
        is_return = bool(tokens) and tokens[0].kind == "ident" \
            and tokens[0].text == "return"
        if is_return:
            tokens = tokens[1:]
            if not tokens:
                raise ParseError("return without an expression",
                                 SourceSpan(line_no, max(1, len(raw))))
        parser = _LineParser(tokens, line_no, len(raw), arities)
        formula = parser.parse()
        if is_return:
            conclusion = formula
        else:
            premises.append(formula)

    if conclusion is None:
        raise ParseError("missing return line", SourceSpan(last_line, 1))
    return Problem(tuple(premises), conclusion, assumption=assumption,
                   id=problem_id, dialect="z3")
