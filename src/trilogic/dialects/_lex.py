"""What the dialect parsers share: lexer, comments, sections, cursor,
arity table, term table.

A dialect's lexer is one compiled pattern and a kind table, as `Lexer`
describes. One `findall` per line gives the line's tokens as plain
strings, and the kind table gives each its kind. A token's column is
worked out only when an error is raised at it, by scanning its line again
with the same pattern.

A name starts with a letter (by `str.isalpha`) and goes on with letters,
digits and '_'; a name starting with '_' is reserved.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterator

from ..fol import (
    MAX_NESTING_DEPTH, Atom, Constant, Function, ParseError, SourceSpan,
    Term, Variable, too_deep,
)

# also takes a non-decimal numeral such as '²', which the name rule rejects
NAME = r"[^\W\d_]\w*"
PUNCTUATION = {"(": "lparen", ")": "rparen", ",": "comma"}
REJECT = "reject"  # the kind of a token that is an error wherever it stands


def _other_kind(text: str) -> str:
    """The kind of a token that is not in the kind table and does not
    start with a letter."""
    if text[0] == "$" and len(text) > 1:  # only pyke's pattern makes one
        return "var"
    return REJECT


class Lexer:
    """One dialect's tokens.

    The pattern is `\\s*(...)` over the dialect's own token patterns (its
    tokens of two or more characters, longest first, and pyke's
    variables), then a name, then any other single character. `kinds`
    maps a token's text to its kind and `rejects` a rejected token's text
    to its message; any other text starting with a letter is an `ident`,
    and the rest take `_other_kind`.
    """

    def __init__(self, patterns: tuple[str, ...], kinds: dict[str, str],
                 rejects: dict[str, str] | None = None) -> None:
        # blanks before a token are part of its match
        self.pattern = re.compile(
            r"\s*(" + "|".join((*patterns, NAME, r"\S")) + ")")
        if self.pattern.groups != 1:
            raise ValueError("a token pattern may not hold a capturing group")
        self.rejects = rejects or {}
        self.kinds = {**kinds, **dict.fromkeys(self.rejects, REJECT)}

    def tokenize(self, content: str, line_no: int
                 ) -> tuple[list[str], list[str]]:
        """A line's tokens and their kinds; a ParseError at the first
        rejected token."""
        # Trailing blanks are cut off: findall would try the pattern again
        # at each of them, and each try scans to the end of the line.
        tokens = self.pattern.findall(content, 0, len(content.rstrip()))
        get = self.kinds.get
        kinds = [get(text) or ("ident" if text[0].isalpha()
                               else _other_kind(text)) for text in tokens]
        if REJECT in kinds:
            i = kinds.index(REJECT)
            text = tokens[i]
            message = self.rejects.get(text) or (
                "reserved identifier starting with '_'" if text == "_"
                else f"unexpected character {text[0]!r}")
            raise ParseError(message,
                             SourceSpan(line_no, self.column(content, i)))
        return tokens, kinds

    def column(self, content: str, i: int) -> int:
        """The 1-based column of token i of a line."""
        matches = self.pattern.finditer(content, 0, len(content.rstrip()))
        return next(islice(matches, i, None)).start(1) + 1


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
    """One line's tokens and kinds, read by index from `pos`; error spans;
    the nesting cap.

    `peek` is the next token's kind, None past the last token. `advance`
    and `expect` return the index of the token they consume, which
    `span` and `error` take.

    A formula line also holds the text's arity table, `arities`, its
    term table, `terms`, and `scope`, the quantifier-bound names around
    the current token.
    """

    # set where every early end of line means one thing
    end_message: str | None = None

    def __init__(self, lexer: Lexer, content: str, line_no: int,
                 line_len: int, arities: ArityTable | None = None,
                 terms: TermTable | None = None) -> None:
        self.lexer = lexer
        self.content = content
        self.tokens, self.kinds = lexer.tokenize(content, line_no)
        self.kinds.append(None)
        self.pos = 0
        self.line_no = line_no
        self.line_len = line_len
        self.depth = 0
        self.arities = arities
        self.terms = terms
        self.scope: list[str] = []

    def span(self, i: int) -> SourceSpan:
        return SourceSpan(self.line_no, self.lexer.column(self.content, i),
                          len(self.tokens[i]))

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, self.span(i))

    def unexpected(self) -> ParseError:
        """The error for the next token, which does not fit here."""
        return self.error(f"unexpected token {self.tokens[self.pos]!r}",
                          self.pos)

    def end_of_line(self, what: str | None = None) -> ParseError:
        """The error for a line that ends where `what` was expected."""
        message = self.end_message or (
            "unexpected end of line" if what is None else f"expected {what}")
        return ParseError(message,
                          SourceSpan(self.line_no, max(1, self.line_len)))

    def peek(self) -> str | None:
        return self.kinds[self.pos]

    def advance(self) -> int:
        if self.kinds[self.pos] is None:
            raise self.end_of_line()
        self.pos += 1
        return self.pos - 1

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is a `kind`."""
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str) -> int:
        found = self.kinds[self.pos]
        if found != kind:
            if found is None:
                raise self.end_of_line(what)
            raise self.error(
                f"expected {what}, found {self.tokens[self.pos]!r}", self.pos)
        self.pos += 1
        return self.pos - 1

    def done(self) -> None:
        if self.kinds[self.pos] is not None:
            raise self.unexpected()

    def deeper(self, i: int) -> None:
        """One level deeper, at token i."""
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise too_deep(self.span(i))


class ArityTable:
    """Predicate arities: declared ones are enforced, the rest inferred.

    A clash is raised at token `at` of `line`. The solver-API dialect
    declares nothing, so all its arities are inferred.
    """

    def __init__(self) -> None:
        self.declared: dict[str, int] = {}
        self.inferred: dict[str, int] = {}

    def declare(self, name: str, arity: int, line: Cursor, at: int) -> None:
        known = self.declared.get(name)
        if known is not None and known != arity:
            raise line.error(
                f"conflicting declaration for '{name}': {known} vs {arity}",
                at)
        self.declared[name] = arity

    def check_use(self, name: str, arity: int, line: Cursor, at: int
                  ) -> None:
        if name in self.declared:
            if self.declared[name] != arity:
                raise line.error(
                    f"arity mismatch for predicate '{name}': declared "
                    f"{self.declared[name]}, used with {arity}", at)
            return
        known = self.inferred.get(name)
        if known is None:
            self.inferred[name] = arity
        elif known != arity:
            raise line.error(
                f"inconsistent arity for predicate '{name}': {known} vs {arity}",
                at)


class TermTable:
    """One text's terms and atoms: each distinct Constant, Variable,
    Function and Atom is built, and its name checked, once, and every
    occurrence in the text shares it.

    A parser makes one per text and never keeps it, so two parses share
    nothing. It passes terms around as keys, which hash without a call
    into Python: a constant's key is its name, a variable's the 1-tuple
    of its name, and a function application's the tuple of its name and
    its arguments' keys. `terms` maps each key to its term.
    """

    def __init__(self) -> None:
        self.terms: dict[str | tuple, Term] = {}
        self.atoms: dict[tuple, Atom] = {}

    def constant(self, name: str) -> str:
        if name not in self.terms:
            self.terms[name] = Constant(name)
        return name

    def variable(self, name: str) -> tuple[str]:
        key = (name,)
        if key not in self.terms:
            self.terms[key] = Variable(name)
        return key

    def function(self, name: str, args: list[str | tuple]) -> tuple:
        key = (name, *args)
        if key not in self.terms:
            self.terms[key] = Function(name, tuple(map(self.terms.get, args)))
        return key

    def atom(self, predicate: str, args: list[str | tuple]) -> Atom:
        key = (predicate, *args)
        atom = self.atoms.get(key)
        if atom is None:
            atom = self.atoms[key] = Atom(
                predicate, tuple(map(self.terms.get, args)))
        return atom
