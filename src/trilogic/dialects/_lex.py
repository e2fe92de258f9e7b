"""What the three dialect parsers share: tokens, comments, sections, cursor.

Each dialect lists its tokens as an ordered table of (regex, action) rows,
and `lexer` compiles the table into one master pattern, as in the "writing
a tokenizer" recipe of the `re` documentation. An action is one of:

- a token kind (a str);
- a `Reject`, whose message, formatted with the matched text, is raised as
  a ParseError at the match;
- a dict of reserved words, which makes the row the name row: a name found
  in it takes its action, any other name is an "ident".

Every table ends with the shared rows for '_' and for any other character.
A name starts with a letter (by `str.isalpha`) and goes on with letters,
digits and '_'; a name starting with '_' is reserved.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, NamedTuple, Union

from ..fol import MAX_NESTING_DEPTH, ParseError, SourceSpan, too_deep

NAME = r"[^\W\d_]\w*"
PUNCTUATION = [(r"\(", "lparen"), (r"\)", "rparen"), (",", "comma")]


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int

    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, max(1, len(self.text)))


class Reject(NamedTuple):
    message: str

    def at(self, text: str, line: int, col: int) -> ParseError:
        return ParseError(self.message.format(text), SourceSpan(line, col))


Action = Union[str, Reject, dict]
_UNEXPECTED = Reject("unexpected character {!r}")
_TAIL = [("_", Reject("reserved identifier starting with '_'")),
         (".", _UNEXPECTED)]


def lexer(rows: list[tuple[str, Action]]
          ) -> Callable[[str, int], list[Token]]:
    """Compile a dialect's token table into tokenize(content, line_no)."""
    rows = rows + _TAIL
    # Blanks before a token are part of its match, and trailing blanks
    # are cut off before matching, or the last row would take one.
    # Group i is row i - 1.
    master = re.compile(r"\s*(?:" + "|".join(f"({rx})" for rx, _ in rows)
                        + ")", re.DOTALL)
    if master.groups != len(rows):
        raise ValueError("a token pattern may not hold a capturing group")
    actions: list = [None] + [action for _, action in rows]
    make = tuple.__new__  # Token(...) without its Python-level __new__

    def tokenize(content: str, line_no: int) -> list[Token]:
        tokens = []
        for m in master.finditer(content, 0, len(content.rstrip())):
            i = m.lastindex
            action, text, col = actions[i], m.group(i), m.start(i) + 1
            if type(action) is dict:
                if not text[0].isalpha():
                    raise _UNEXPECTED.at(text[0], line_no, col)
                action = action.get(text, "ident")
            if type(action) is Reject:
                raise action.at(text, line_no, col)
            tokens.append(make(Token, (action, text, line_no, col)))
        return tokens

    return tokenize


def strip_comment(raw: str, markers: tuple[str, ...]) -> str:
    cut = len(raw)
    for marker in markers:
        pos = raw.find(marker)
        if pos != -1:
            cut = min(cut, pos)
    return raw[:cut]


def content_lines(text: str, markers: tuple[str, ...]
                  ) -> Iterator[tuple[int, str, str]]:
    """(line number, raw line, content without comment) per non-blank line."""
    for line_no, raw in enumerate(text.split("\n"), start=1):
        content = strip_comment(raw, markers)
        if content.strip():
            yield line_no, raw, content


def indent_span(line_no: int, content: str) -> SourceSpan:
    """The first non-blank character of a line."""
    return SourceSpan(line_no, len(content) - len(content.lstrip()) + 1)


def end_span(text: str) -> SourceSpan:
    """Where a missing section or line is reported: the start of the last."""
    return SourceSpan(text.count("\n") + 1, 1)


def section_lines(text: str, sections: tuple[str, ...]
                  ) -> Iterator[tuple[str, int, str, str]]:
    """(section, line number, raw line, content) per line under a header.

    A header is a line holding one section name, in any case, with an
    optional trailing ':'.
    """
    section = None
    for line_no, raw, content in content_lines(text, (":::", "#")):
        word = content.strip()
        if word.endswith(":"):
            word = word[:-1].rstrip()
        if word.lower() in sections and " " not in word:
            section = word.lower()
        elif section is None:
            raise ParseError("content before any section header",
                             indent_span(line_no, content))
        else:
            yield section, line_no, raw, content


class Cursor:
    """peek/accept/advance/expect over one line's tokens; the nesting cap."""

    # set where every early end of line means one thing
    end_message: str | None = None

    def __init__(self, tokens: list[Token], line_no: int,
                 line_len: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.line_len = line_len
        self.depth = 0

    def end_of_line(self, what: str | None = None) -> ParseError:
        """The error for a line that ends where `what` was expected."""
        message = self.end_message or (
            "unexpected end of line" if what is None else f"expected {what}")
        return ParseError(message,
                          SourceSpan(self.line_no, max(1, self.line_len)))

    def peek(self) -> Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.end_of_line()
        self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        """The next token if it is a `kind`, consumed; else None."""
        tok = self.peek()
        if tok is None or tok.kind != kind:
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.end_of_line(what)
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.span())
        self.pos += 1
        return tok

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.span())

    def deeper(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise too_deep(tok.span())
