"""Parser for the sectioned first-order dialect (Predicates/Premises/Conclusion).

Accepts both the Unicode connective spellings seen in model output and the
ASCII spellings of the pretty printer, so printed formulas parse back.
Identifiers are classified positionally: quantifier-bound names are
variables, everything else in term position is a constant.
"""

from __future__ import annotations

from ..fol import (
    And, Formula, ForAll, Exists, Iff, Implies, Not, Or, ParseError, Problem,
    Xor,
)
from ._lex import (
    PUNCTUATION, ArityTable, Cursor, Lexer, TermTable, end_span,
    section_lines,
)

_LEXER = Lexer(("<->", "->"), {
    "<->": "iff", "↔": "iff", "->": "implies", "→": "implies",
    "-": "not", "¬": "not", "&": "and", "∧": "and", "|": "or", "∨": "or",
    "^": "xor", "⊕": "xor", "all": "forall", "∀": "forall",
    "exists": "exists", "∃": "exists", **PUNCTUATION,
})
_SECTIONS = ("predicates", "premises", "conclusion")


class _FormulaParser(Cursor):
    def parse(self) -> Formula:
        f = self.formula()
        self.done()
        return f

    def formula(self) -> Formula:
        """`&` chains of unary formulas joined left to right by `|` and
        `^`, then at most one right-nested `->` or `<->`."""
        outer = self.depth
        link = None
        while True:
            parts = [self.unary()]
            while self.accept("and"):
                parts.append(self.unary())
            right = parts[0] if len(parts) == 1 else And(tuple(parts))
            if link is None:
                node = right
            elif link == "xor":
                node = Xor(node, right)
            elif merged_or and isinstance(node, Or):
                node = Or(node.parts + (right,))
            else:
                node = Or((node, right))
            merged_or = link == "or"
            link = self.peek()
            if link != "or" and link != "xor":
                break
            i = self.advance()
            if not (merged_or and link == "or"):
                # this link wraps the node built so far one level deeper
                self.deeper(i)
        self.depth = outer
        if link != "implies" and link != "iff":
            return node
        self.deeper(self.advance())
        right = self.formula()
        self.depth -= 1
        return (Implies if link == "implies" else Iff)(node, right)

    def unary(self) -> Formula:
        kind = self.peek()
        if kind is None:
            raise self.end_of_line("a formula")
        if kind == "ident":
            at = self.advance()
            name = self.tokens[at]
            args = []
            if self.accept("lparen"):
                args.append(self.term())
                while self.accept("comma"):
                    args.append(self.term())
                self.expect("rparen", "')'")
            self.arities.check_use(name, len(args), self, at)
            return self.terms.atom(name, args)
        if kind not in ("not", "forall", "exists", "lparen"):
            raise self.unexpected()
        self.deeper(self.advance())
        if kind == "not":
            f: Formula = Not(self.unary())
        elif kind == "lparen":
            f = self.formula()
            self.expect("rparen", "')'")
        else:
            var = self.tokens[self.expect("ident", "a quantified variable name")]
            self.scope.append(var)
            body = self.unary()
            self.scope.pop()
            cls = ForAll if kind == "forall" else Exists
            f = cls(var, body)
        self.depth -= 1
        return f

    def term(self) -> str | tuple:
        """The next term's key in the text's term table."""
        at = self.expect("ident", "a term")
        name = self.tokens[at]
        if self.peek() == "lparen":
            if name in self.scope:
                raise self.error(
                    f"variable '{name}' applied as a function", at)
            self.deeper(self.advance())
            args = [self.term()]
            while self.accept("comma"):
                args.append(self.term())
            self.expect("rparen", "')'")
            self.depth -= 1
            return self.terms.function(name, args)
        if name in self.scope:
            return self.terms.variable(name)
        return self.terms.constant(name)


class _DeclarationCursor(Cursor):
    end_message = "unbalanced parentheses in declaration"


def _parse_declaration(line: Cursor, arities: ArityTable) -> None:
    if not line.accept("ident"):  # a content line has a token
        raise line.error("expected a predicate declaration", 0)
    arity = 0
    if line.peek() is not None:
        line.expect("lparen", "'(' in declaration")
        line.expect("ident", "a placeholder name")
        arity = 1
        while not line.accept("rparen"):
            if not line.accept("comma"):
                at = line.advance()  # raises at the end of the line
                raise line.error(
                    f"unexpected token {line.tokens[at]!r} in declaration", at)
            line.expect("ident", "a placeholder name")
            arity += 1
        line.done()
    arities.declare(line.tokens[0], arity, line, 0)


def parse_prover9(text: str) -> Problem:
    """Parse the sectioned dialect into a Problem.

    Raises ParseError with a source span on malformed input: untranslated
    prose, unknown characters, arity clashes, or a missing conclusion.
    """
    arities, terms = ArityTable(), TermTable()
    premises: list[Formula] = []
    conclusion: Formula | None = None
    for section, line_no, raw, content in section_lines(text, _SECTIONS):
        if section == "predicates":
            _parse_declaration(
                _DeclarationCursor(_LEXER, content, line_no, len(raw)),
                arities)
            continue
        parser = _FormulaParser(_LEXER, content, line_no, len(raw), arities,
                                terms)
        formula = parser.parse()
        if section == "premises":
            premises.append(formula)
        else:
            if conclusion is not None:
                raise parser.error("multiple conclusion formulas", 0)
            conclusion = formula

    if conclusion is None:
        raise ParseError("missing Conclusion section", end_span(text))
    # a name outside every quantifier for it is a constant: closed
    return Problem._closed(tuple(premises), conclusion)
