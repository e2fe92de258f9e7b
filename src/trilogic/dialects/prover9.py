"""Parser for the sectioned first-order dialect (Predicates/Premises/Conclusion).

Accepts both the Unicode connective spellings seen in model output and the
ASCII spellings of the pretty printer, so printed formulas parse back.
Identifiers are classified positionally: quantifier-bound names are
variables, everything else in term position is a constant.
"""

from __future__ import annotations

from ..fol import (
    And, Atom, Constant, Formula, ForAll, Exists, Function, Iff, Implies,
    Not, Or, ParseError, Problem, SourceSpan, Term, Variable, Xor,
)
from ._lex import (
    NAME, PUNCTUATION, Cursor, Token, end_span, lexer, section_lines,
)

_tokenize = lexer([
    ("<->|↔", "iff"),
    ("->|→", "implies"),
    ("-|¬", "not"),
    ("&|∧", "and"),
    (r"\||∨", "or"),
    (r"\^|⊕", "xor"),
    ("∀", "forall"),
    ("∃", "exists"),
    *PUNCTUATION,
    (NAME, {"all": "forall", "exists": "exists"}),
])
_SECTIONS = ("predicates", "premises", "conclusion")


class _ArityTable:
    """Predicate arities: declared ones are enforced, the rest inferred."""

    def __init__(self) -> None:
        self.declared: dict[str, int] = {}
        self.inferred: dict[str, int] = {}

    def declare(self, name: str, arity: int, tok: Token) -> None:
        known = self.declared.get(name)
        if known is not None and known != arity:
            raise ParseError(
                f"conflicting declaration for '{name}': {known} vs {arity}",
                tok.span())
        self.declared[name] = arity

    def check_use(self, name: str, arity: int, tok: Token) -> None:
        if name in self.declared:
            if self.declared[name] != arity:
                raise ParseError(
                    f"arity mismatch for predicate '{name}': declared "
                    f"{self.declared[name]}, used with {arity}", tok.span())
            return
        known = self.inferred.get(name)
        if known is None:
            self.inferred[name] = arity
        elif known != arity:
            raise ParseError(
                f"inconsistent arity for predicate '{name}': {known} vs {arity}",
                tok.span())


class _FormulaParser(Cursor):
    def __init__(self, tokens: list[Token], line_no: int, line_len: int,
                 arities: _ArityTable) -> None:
        super().__init__(tokens, line_no, line_len)
        self.arities = arities
        self.scope: list[str] = []

    def parse(self) -> Formula:
        f = self.implication()
        self.done()
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        tok = self.accept("implies") or self.accept("iff")
        if tok is None:
            return left
        self.deeper(tok)
        right = self.implication()
        self.depth -= 1
        return (Implies if tok.kind == "implies" else Iff)(left, right)

    def disjunction(self) -> Formula:
        node = self.conjunction()
        outer = self.depth
        merged_or = False
        while True:
            tok = self.accept("or") or self.accept("xor")
            if tok is None:
                self.depth = outer
                return node
            if not (merged_or and tok.kind == "or"):
                # this link wraps the node built so far one level deeper
                self.deeper(tok)
            right = self.conjunction()
            if tok.kind == "or":
                if merged_or and isinstance(node, Or):
                    node = Or(node.parts + (right,))
                else:
                    node = Or((node, right))
                merged_or = True
            else:
                node = Xor(node, right)
                merged_or = False

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.accept("and"):
            parts.append(self.unary())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise self.end_of_line("a formula")
        if tok.kind == "ident":
            return self.atom()
        if tok.kind not in ("not", "forall", "exists", "lparen"):
            raise ParseError(f"unexpected token {tok.text!r}", tok.span())
        self.advance()
        self.deeper(tok)
        if tok.kind == "not":
            f: Formula = Not(self.unary())
        elif tok.kind == "lparen":
            f = self.implication()
            self.expect("rparen", "')'")
        else:
            var = self.expect("ident", "a quantified variable name")
            self.scope.append(var.text)
            try:
                body = self.unary()
            finally:
                self.scope.pop()
            cls = ForAll if tok.kind == "forall" else Exists
            f = cls(var.text, body)
        self.depth -= 1
        return f

    def atom(self) -> Formula:
        name_tok = self.advance()
        name = name_tok.text
        if not self.accept("lparen"):
            self.arities.check_use(name, 0, name_tok)
            return Atom(name)
        args = [self.term()]
        while self.accept("comma"):
            args.append(self.term())
        self.expect("rparen", "')'")
        self.arities.check_use(name, len(args), name_tok)
        return Atom(name, tuple(args))

    def term(self) -> Term:
        tok = self.expect("ident", "a term")
        nxt = self.peek()
        if nxt is not None and nxt.kind == "lparen":
            if tok.text in self.scope:
                raise ParseError(
                    f"variable '{tok.text}' applied as a function", tok.span())
            self.advance()
            self.deeper(nxt)
            args = [self.term()]
            while self.accept("comma"):
                args.append(self.term())
            self.expect("rparen", "')'")
            self.depth -= 1
            return Function(tok.text, tuple(args))
        if tok.text in self.scope:
            return Variable(tok.text)
        return Constant(tok.text)


def _parse_declaration(tokens: list[Token], line_no: int, line_len: int,
                       arities: _ArityTable) -> None:
    if tokens[0].kind != "ident":  # a content line has a token
        raise ParseError("expected a predicate declaration", tokens[0].span())
    name_tok = tokens[0]
    if len(tokens) == 1:
        arities.declare(name_tok.text, 0, name_tok)
        return
    if tokens[1].kind != "lparen":
        raise ParseError(f"expected '(' in declaration, found {tokens[1].text!r}",
                         tokens[1].span())
    arity = 0
    expect_arg = True
    i = 2
    while i < len(tokens):
        tok = tokens[i]
        if expect_arg:
            if tok.kind != "ident":
                raise ParseError(
                    f"expected a placeholder name, found {tok.text!r}", tok.span())
            arity += 1
            expect_arg = False
        elif tok.kind == "comma":
            expect_arg = True
        elif tok.kind == "rparen":
            if i != len(tokens) - 1:
                extra = tokens[i + 1]
                raise ParseError(f"unexpected token {extra.text!r}", extra.span())
            arities.declare(name_tok.text, arity, name_tok)
            return
        else:
            raise ParseError(f"unexpected token {tok.text!r} in declaration",
                             tok.span())
        i += 1
    raise ParseError("unbalanced parentheses in declaration",
                     SourceSpan(line_no, max(1, line_len)))


def parse_prover9(text: str) -> Problem:
    """Parse the sectioned dialect into a Problem.

    Raises ParseError with a source span on malformed input: untranslated
    prose, unknown characters, arity clashes, or a missing conclusion.
    """
    arities = _ArityTable()
    premises: list[Formula] = []
    conclusion: Formula | None = None
    for section, line_no, raw, content in section_lines(text, _SECTIONS):
        tokens = _tokenize(content, line_no)
        if section == "predicates":
            _parse_declaration(tokens, line_no, len(raw), arities)
            continue
        formula = _FormulaParser(tokens, line_no, len(raw), arities).parse()
        if section == "premises":
            premises.append(formula)
        else:
            if conclusion is not None:
                raise ParseError("multiple conclusion formulas",
                                 tokens[0].span())
            conclusion = formula

    if conclusion is None:
        raise ParseError("missing Conclusion section", end_span(text))
    return Problem(tuple(premises), conclusion)
