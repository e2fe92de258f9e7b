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
    And, Exists, ForAll, Formula, Iff, Implies, Not, Or, ParseError, Problem,
    SourceSpan, Xor,
)
from ._lex import (
    PUNCTUATION, ArityTable, Cursor, Lexer, TermTable, content_lines,
    end_span, indent_span,
)

_DEF_LINE = re.compile(r"^def\s+[A-Za-z_]\w*\s*\(\s*\)\s*:\s*$")
_OPERATORS = ("And", "Or", "Not", "Xor", "Implies", "ForAll", "Exists")
_BOOLEANS = ("True", "False")
_LEXER = Lexer(("==",), {
    "==": "iff", "[": "lbracket", "]": "rbracket", **PUNCTUATION,
}, rejects={"=": "assignment is not supported"})


class _LineParser(Cursor):
    end_message = "unbalanced brackets"

    def parse(self) -> Formula:
        f = self.expression()
        self.done()
        return f

    def expression(self) -> Formula:
        outer = self.depth
        units = [self.unit()]
        while self.peek() == "iff":
            # each link nests the rest of the chain one level deeper
            self.deeper(self.advance())
            units.append(self.unit())
        self.depth = outer
        node = units[-1]
        for left in reversed(units[:-1]):
            node = Iff(left, node)
        return node

    def unit(self) -> Formula:
        kind = self.peek()
        if kind is None:
            raise self.end_of_line()
        if kind == "lparen":
            self.deeper(self.advance())
            inner = self.expression()
            self.expect("rparen", "')'")
            self.depth -= 1
            return inner
        if kind == "lbracket":
            raise self.error("unexpected '['", self.pos)
        if kind != "ident":
            raise self.unexpected()
        at = self.advance()
        name = self.tokens[at]
        if not self.accept("lparen"):
            if name in _OPERATORS:
                raise self.error(f"operator '{name}' needs arguments", at)
            if name in _BOOLEANS:
                raise self.error("boolean literal is not supported", at)
            if name in self.scope:
                raise self.error(f"variable '{name}' used as a formula", at)
            self.arities.check_use(name, 0, self, at)
            return self.terms.atom(name, [])
        if name in ("ForAll", "Exists"):
            return self.quantifier_call(at)
        if name in _OPERATORS:
            return self.operator_call(at)
        args = [self.term(at)]
        while self.accept("comma"):
            args.append(self.term(at))
        self.expect("rparen", "')'")
        self.arities.check_use(name, len(args), self, at)
        return self.terms.atom(name, args)

    def operator_call(self, at: int) -> Formula:
        name = self.tokens[at]
        self.deeper(at)
        args = [self.expression()]
        while self.accept("comma"):
            args.append(self.expression())
        self.expect("rparen", "')'")
        self.depth -= 1
        if name == "Not":
            if len(args) != 1:
                raise self.error("Not takes exactly 1 argument", at)
            return Not(args[0])
        if name in ("Xor", "Implies"):
            if len(args) != 2:
                raise self.error(f"{name} takes exactly 2 arguments", at)
            cls = Xor if name == "Xor" else Implies
            return cls(args[0], args[1])
        if len(args) < 2:
            raise self.error(f"{name} takes at least 2 arguments", at)
        cls = And if name == "And" else Or
        return cls(tuple(args))

    def quantifier_call(self, at: int) -> Formula:
        self.deeper(at)
        self.expect("lbracket", "'['")
        variables = [self.tokens[self.expect("ident", "a variable name")]]
        while self.accept("comma"):
            # each further variable is one more quantifier around the body
            i = self.expect("ident", "a variable name")
            self.deeper(i)
            variables.append(self.tokens[i])
        self.expect("rbracket", "']'")
        self.expect("comma", "','")
        self.scope += variables
        body = self.expression()
        del self.scope[len(self.scope) - len(variables):]
        self.expect("rparen", "')'")
        self.depth -= len(variables)
        cls = ForAll if self.tokens[at] == "ForAll" else Exists
        for v in reversed(variables):
            body = cls(v, body)
        return body

    def term(self, callee: int) -> str | tuple:
        """The next term's key in the text's term table."""
        if self.peek() == "lbracket":
            # A bracketed list marks a quantifier-style call, so the callee
            # was meant to be an operator and is not one we know.
            raise self.error(f"unknown operator '{self.tokens[callee]}'",
                             callee)
        at = self.expect("ident", "a term")
        name = self.tokens[at]
        if self.peek() == "lparen":
            raise self.error("function application in term position is not "
                             "supported", at)
        if name in _BOOLEANS:
            raise self.error("boolean literal is not supported", at)
        if name in self.scope:
            return self.terms.variable(name)
        return self.terms.constant(name)


def parse_z3(text: str) -> Problem:
    """Parse the solver-API dialect into a Problem.

    Every non-comment line is one assertion; the final line must be
    `return <expr>` and names the conclusion.
    """
    arities, terms = ArityTable(), TermTable()
    premises: list[Formula] = []
    conclusion: Formula | None = None
    for index, (line_no, raw, content) in enumerate(
            content_lines(text, ("#",))):
        if index == 0 and _DEF_LINE.match(content.strip()):
            continue
        if conclusion is not None:
            raise ParseError("content after the return line",
                             indent_span(line_no, content))
        parser = _LineParser(_LEXER, content, line_no, len(raw), arities,
                             terms)
        # a content line has a token
        is_return = parser.tokens[0] == "return"
        if is_return:
            parser.pos = 1
            if len(parser.tokens) == 1:
                raise ParseError("return without an expression",
                                 SourceSpan(line_no, max(1, len(raw))))
        formula = parser.parse()
        if is_return:
            conclusion = formula
        else:
            premises.append(formula)

    if conclusion is None:
        raise ParseError("missing return line", end_span(text))
    # a name outside every quantifier for it is a constant: closed
    return Problem._closed(tuple(premises), conclusion)
