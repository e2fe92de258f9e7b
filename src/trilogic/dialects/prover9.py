"""Parser for the sectioned first-order dialect (Predicates/Premises/Conclusion).

Accepts both the Unicode connective spellings seen in model output and the
ASCII spellings of the pretty printer, so printed formulas parse back.
Identifiers are classified positionally: quantifier-bound names are
variables, everything else in term position is a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fol import (
    And, Atom, Constant, Formula, ForAll, Exists, Function, Iff, Implies,
    Not, Or, ParseError, Problem, SourceSpan, Term, Variable, WorldAssumption,
    Xor, MAX_NESTING_DEPTH, too_deep,
)

_UNICODE_OPS = {
    "∀": "forall",   # for-all quantifier
    "∃": "exists",   # exists quantifier
    "¬": "not",
    "∧": "and",
    "∨": "or",
    "⊕": "xor",
    "→": "implies",
    "↔": "iff",
}
_KEYWORDS = {"all": "forall", "exists": "exists"}
_SECTIONS = ("predicates", "premises", "conclusion")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int

    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, max(1, len(self.text)))


def _strip_comment(raw: str) -> str:
    cut = len(raw)
    for marker in (":::", "#"):
        pos = raw.find(marker)
        if pos != -1:
            cut = min(cut, pos)
    return raw[:cut]


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
        if ch in _UNICODE_OPS:
            tokens.append(_Token(_UNICODE_OPS[ch], ch, line_no, col))
            i += 1
            continue
        if content.startswith("<->", i):
            tokens.append(_Token("iff", "<->", line_no, col))
            i += 3
            continue
        if content.startswith("->", i):
            tokens.append(_Token("implies", "->", line_no, col))
            i += 2
            continue
        if ch == "-":
            tokens.append(_Token("not", "-", line_no, col))
            i += 1
            continue
        if ch == "&":
            tokens.append(_Token("and", "&", line_no, col))
            i += 1
            continue
        if ch == "|":
            tokens.append(_Token("or", "|", line_no, col))
            i += 1
            continue
        if ch == "^":
            tokens.append(_Token("xor", "^", line_no, col))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", "(", line_no, col))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ")", line_no, col))
            i += 1
            continue
        if ch == ",":
            tokens.append(_Token("comma", ",", line_no, col))
            i += 1
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (content[j].isalnum() or content[j] == "_"):
                j += 1
            word = content[i:j]
            tokens.append(_Token(_KEYWORDS.get(word, "ident"), word, line_no, col))
            i = j
            continue
        if ch == "_":
            raise ParseError("reserved identifier starting with '_'",
                             SourceSpan(line_no, col))
        raise ParseError(f"unexpected character {ch!r}", SourceSpan(line_no, col))
    return tokens


class _ArityTable:
    """Predicate arities: declared ones are enforced, the rest inferred."""

    def __init__(self) -> None:
        self.declared: dict[str, int] = {}
        self.inferred: dict[str, int] = {}

    def declare(self, name: str, arity: int, tok: _Token) -> None:
        known = self.declared.get(name)
        if known is not None and known != arity:
            raise ParseError(
                f"conflicting declaration for '{name}': {known} vs {arity}",
                tok.span())
        self.declared[name] = arity

    def check_use(self, name: str, arity: int, tok: _Token) -> None:
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


class _FormulaParser:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int,
                 arities: _ArityTable) -> None:
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
            raise ParseError("unexpected end of line",
                             SourceSpan(self.line_no, max(1, self.line_len)))
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            if tok is None:
                raise ParseError(f"expected {what}",
                                 SourceSpan(self.line_no, max(1, self.line_len)))
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.span())
        return self.advance()

    def parse(self) -> Formula:
        f = self.implication()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.span())
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        tok = self.peek()
        if tok is None or tok.kind not in ("implies", "iff"):
            return left
        self.advance()
        self.deeper(tok)
        right = self.implication()
        self.depth -= 1
        return (Implies if tok.kind == "implies" else Iff)(left, right)

    def disjunction(self) -> Formula:
        node = self.conjunction()
        merged_or = False
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("or", "xor"):
                return node
            self.advance()
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
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "and":
                break
            self.advance()
            parts.append(self.unary())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a formula",
                             SourceSpan(self.line_no, max(1, self.line_len)))
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
        tok = self.peek()
        if tok is None or tok.kind != "lparen":
            self.arities.check_use(name, 0, name_tok)
            return Atom(name)
        self.advance()
        args = [self.term()]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "comma":
                self.advance()
                args.append(self.term())
            else:
                break
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
            while True:
                nxt = self.peek()
                if nxt is not None and nxt.kind == "comma":
                    self.advance()
                    args.append(self.term())
                else:
                    break
            self.expect("rparen", "')'")
            self.depth -= 1
            return Function(tok.text, tuple(args))
        if tok.text in self.scope:
            return Variable(tok.text)
        return Constant(tok.text)


def _section_header(content: str) -> str | None:
    word = content.strip()
    if word.endswith(":"):
        word = word[:-1].rstrip()
    low = word.lower()
    if low in _SECTIONS and " " not in word:
        return low
    return None


def _parse_declaration(tokens: list[_Token], line_no: int, line_len: int,
                       arities: _ArityTable) -> None:
    if not tokens or tokens[0].kind != "ident":
        span = tokens[0].span() if tokens else SourceSpan(line_no, 1)
        raise ParseError("expected a predicate declaration", span)
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


def parse_prover9(text: str,
                  assumption: WorldAssumption = WorldAssumption.OWA,
                  problem_id: str = "") -> Problem:
    """Parse the sectioned dialect into a Problem.

    Raises ParseError with a source span on malformed input: untranslated
    prose, unknown characters, arity clashes, or a missing conclusion.
    """
    lines = text.split("\n")
    arities = _ArityTable()
    premises: list[Formula] = []
    conclusion: Formula | None = None
    section: str | None = None
    last_line = max(1, len(lines))

    for line_no, raw in enumerate(lines, start=1):
        content = _strip_comment(raw)
        if not content.strip():
            continue
        header = _section_header(content)
        if header is not None:
            section = header
            continue
        if section is None:
            col = len(content) - len(content.lstrip()) + 1
            raise ParseError("content before any section header",
                             SourceSpan(line_no, col))
        tokens = _tokenize(content, line_no)
        if section == "predicates":
            _parse_declaration(tokens, line_no, len(raw), arities)
            continue
        parser = _FormulaParser(tokens, line_no, len(raw), arities)
        formula = parser.parse()
        if section == "premises":
            premises.append(formula)
        else:
            if conclusion is not None:
                raise ParseError("multiple conclusion formulas",
                                 tokens[0].span())
            conclusion = formula

    if conclusion is None:
        raise ParseError("missing Conclusion section", SourceSpan(last_line, 1))
    return Problem(tuple(premises), conclusion, assumption=assumption,
                   id=problem_id, dialect="prover9")
