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
        if ch in _CONNECTIVE_CHARS:
            raise ParseError(f"unsupported connective {ch!r}",
                             SourceSpan(line_no, col))
        if content.startswith(">>>", i):
            tokens.append(_Token("arrow", ">>>", line_no, col))
            i += 3
            continue
        if content.startswith("&&", i):
            tokens.append(_Token("andand", "&&", line_no, col))
            i += 2
            continue
        if ch in "&>":
            raise ParseError(f"unexpected character {ch!r}",
                             SourceSpan(line_no, col))
        if ch in "(),":
            kinds = {"(": "lparen", ")": "rparen", ",": "comma"}
            tokens.append(_Token(kinds[ch], ch, line_no, col))
            i += 1
            continue
        if ch == "$":
            j = i + 1
            while j < n and (content[j].isalnum() or content[j] == "_"):
                j += 1
            if j == i + 1:
                raise ParseError("'$' must introduce a variable name",
                                 SourceSpan(line_no, col))
            tokens.append(_Token("var", content[i:j], line_no, col))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (content[j].isalnum() or content[j] == "_"):
                j += 1
            word = content[i:j]
            if word in _CONNECTIVE_WORDS:
                raise ParseError(f"unsupported connective '{word}'",
                                 SourceSpan(line_no, col))
            tokens.append(_Token("ident", word, line_no, col))
            i = j
            continue
        if ch == "_":
            raise ParseError("reserved identifier starting with '_'",
                             SourceSpan(line_no, col))
        raise ParseError(f"unexpected character {ch!r}", SourceSpan(line_no, col))
    return tokens


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.line_len = line_len

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
        if tok is None:
            raise ParseError(f"expected {what}",
                             SourceSpan(self.line_no, max(1, self.line_len)))
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.span())
        return self.advance()

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.span())

    def raw_call(self) -> tuple[_Token, list[_Token]]:
        """Parse name(arg, ..., arg) into the name token and arg tokens."""
        name = self.expect("ident", "a predicate name")
        self.expect("lparen", "'('")
        args = []
        tok = self.peek()
        if tok is not None and tok.kind == "rparen":
            self.advance()
            return name, args
        while True:
            tok = self.advance()
            if tok.kind not in ("ident", "var"):
                raise ParseError(f"expected an argument, found {tok.text!r}",
                                 tok.span())
            args.append(tok)
            tok = self.peek()
            if tok is not None and tok.kind == "comma":
                self.advance()
                continue
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
    while True:
        tok = parser.peek()
        if tok is not None and tok.kind == "andand":
            parser.advance()
            if len(body) == MAX_NESTING_DEPTH:
                raise too_deep(tok.span())
            body.append(parser.literal())
        else:
            break
    arrow = parser.expect("arrow", "'>>>'")
    head_start = parser.peek()
    head = parser.literal()
    # Tolerate a single stray ')' after the head; some emitters add one.
    tok = parser.peek()
    if tok is not None and tok.kind == "rparen" and parser.pos == len(parser.tokens) - 1:
        parser.advance()
    parser.done()
    bound = {t.name for lit in body for t in lit.args if isinstance(t, Variable)}
    for term in head.args:
        if isinstance(term, Variable) and term.name not in bound:
            span = head_start.span() if head_start is not None else arrow.span()
            raise ParseError(
                f"head variable '${term.name}' not bound in the rule body",
                span)
    return PykeRule(tuple(body), head)


def _parse_query(parser: _LineParser) -> tuple[str, tuple[str, ...]]:
    tok = parser.peek()
    if tok is not None and tok.kind == "ident" \
            and (parser.pos + 1 == len(parser.tokens)):
        parser.advance()
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
    lines = text.split("\n")
    declarations: list[tuple[str, int]] = []
    facts: list[tuple[str, tuple[str, ...], bool]] = []
    rules: list[PykeRule] = []
    query: tuple[str, tuple[str, ...]] | None = None
    section: str | None = None
    last_line = max(1, len(lines))

    for line_no, raw in enumerate(lines, start=1):
        content = _strip_comment(raw)
        stripped = content.strip()
        if not stripped:
            continue
        header = stripped[:-1].rstrip() if stripped.endswith(":") else stripped
        if header.lower() in _SECTIONS and " " not in header:
            section = header.lower()
            continue
        if section is None:
            col = len(content) - len(content.lstrip()) + 1
            raise ParseError("content before any section header",
                             SourceSpan(line_no, col))
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
        raise ParseError("missing Query section", SourceSpan(last_line, 1))
    return PykeProgram(tuple(declarations), tuple(facts), tuple(rules), query)
