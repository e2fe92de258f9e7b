"""Shared first-order logic syntax and the problem/verdict data model.

Everything here is an immutable value. Terms, formulas, literals and
clauses compare and hash structurally, so they are safe to share across
threads and usable as dict keys. Clauses keep their literals in a fixed
sorted order so that iteration is deterministic regardless of
PYTHONHASHSEED.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Iterator, Mapping


def _check_name(name: str) -> None:
    # names are non-empty and contain no whitespace
    if not name or any(ch.isspace() for ch in name):
        raise ValueError(f"bad identifier: {name!r}")


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Variable(Term):
    name: str

    def __post_init__(self):
        _check_name(self.name)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Constant(Term):
    name: str

    def __post_init__(self):
        _check_name(self.name)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Function(Term):
    """A function application; zero-ary symbols are Constants, not Functions."""

    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        _check_name(self.name)
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) < 1:
            raise ValueError("Function arity must be >= 1; use Constant")

    def __str__(self):
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def subterms(t: Term) -> list[Term]:
    """t and every term inside it, preorder, left to right."""
    if not isinstance(t, Function):  # most terms: skip the stack
        return [t]
    out: list[Term] = []
    stack = [t]
    while stack:
        u = stack.pop()
        out.append(u)
        if isinstance(u, Function):
            stack.extend(reversed(u.args))
    return out


def substitute_term(t: Term, s: Mapping[str, Term]) -> Term:
    if isinstance(t, Variable):
        return s.get(t.name, t)
    if isinstance(t, Function):
        return Function(t.name, tuple(substitute_term(a, s) for a in t.args))
    return t


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Formula:
    def __str__(self):
        return pretty(self)


@dataclass(frozen=True)
class Atom(Formula):
    predicate: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        _check_name(self.predicate)
        object.__setattr__(self, "args", tuple(self.args))

    def __str__(self):
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) < 2:
            raise ValueError("And needs at least 2 conjuncts")


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) < 2:
            raise ValueError("Or needs at least 2 disjuncts")


@dataclass(frozen=True)
class Xor(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ForAll(Formula):
    var: str
    body: Formula

    def __post_init__(self):
        _check_name(self.var)


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula

    def __post_init__(self):
        _check_name(self.var)


def children(f: Formula) -> tuple[Formula, ...]:
    """The formulas directly inside f, left to right."""
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (Not, ForAll, Exists)):
        return (f.body,)
    if isinstance(f, (And, Or)):
        return f.parts
    if isinstance(f, (Xor, Implies, Iff)):
        return (f.left, f.right)
    raise TypeError(f"not a formula: {f!r}")


def subformulas(*roots: Formula) -> list[Formula]:
    """Each root and every formula inside it, preorder, left to right.

    An explicit stack, not recursion: every parsed text is walked, and a
    walk stays linear in the size of the formula however deep it nests.
    Several roots share one walk, which costs less than one per root."""
    out: list[Formula] = []
    stack = list(reversed(roots))
    while stack:
        g = stack.pop()
        out.append(g)
        if not isinstance(g, Atom):  # most nodes are atoms: skip the call
            stack.extend(reversed(children(g)))
    return out


def free_variables(f: Formula) -> set[str]:
    """Variables occurring outside any binder for them."""
    out: set[str] = set()
    stack: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        if isinstance(g, Atom):
            for a in g.args:
                for t in subterms(a):
                    if isinstance(t, Variable) and t.name not in bound:
                        out.add(t.name)
        elif isinstance(g, (ForAll, Exists)):
            stack.append((g.body, bound | {g.var}))
        else:
            for c in children(g):
                stack.append((c, bound))
    return out


# ---------------------------------------------------------------------------
# Pretty printing (the ASCII round-trip syntax)

_LEVEL_IMP = 0  # -> and <->
_LEVEL_DIS = 1  # | and ^
_LEVEL_CON = 2  # &
_LEVEL_UNARY = 3  # -, quantifiers


def pretty(f: Formula) -> str:
    """Canonical ASCII rendering; reparses to a structurally equal formula."""
    return _pretty(f, _LEVEL_IMP)


def _pretty(f: Formula, level: int) -> str:
    if isinstance(f, Atom):
        return str(f)
    if isinstance(f, Not):
        return _wrap(f"-{_pretty(f.body, _LEVEL_UNARY)}", _LEVEL_UNARY, level)
    if isinstance(f, (ForAll, Exists)):
        word = "all" if isinstance(f, ForAll) else "exists"
        return _wrap(f"{word} {f.var} ({pretty(f.body)})", _LEVEL_UNARY, level)
    if isinstance(f, And):
        body = " & ".join(_pretty(p, _LEVEL_UNARY) for p in f.parts)
        return _wrap(body, _LEVEL_CON, level)
    if isinstance(f, Or):
        body = " | ".join(_pretty(p, _LEVEL_CON) for p in f.parts)
        return _wrap(body, _LEVEL_DIS, level)
    if isinstance(f, Xor):
        # left may sit at the same level (left-associative), right must bind tighter
        body = f"{_pretty(f.left, _LEVEL_DIS)} ^ {_pretty(f.right, _LEVEL_CON)}"
        return _wrap(body, _LEVEL_DIS, level)
    if isinstance(f, Implies):
        # right-associative
        body = f"{_pretty(f.left, _LEVEL_DIS)} -> {_pretty(f.right, _LEVEL_IMP)}"
        return _wrap(body, _LEVEL_IMP, level)
    if isinstance(f, Iff):
        body = f"{_pretty(f.left, _LEVEL_DIS)} <-> {_pretty(f.right, _LEVEL_IMP)}"
        return _wrap(body, _LEVEL_IMP, level)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str, have: int, need: int) -> str:
    return text if have >= need else f"({text})"


# ---------------------------------------------------------------------------
# Literals and clauses


@dataclass(frozen=True)
class Literal:
    positive: bool
    atom: Atom

    def __str__(self):
        return str(self.atom) if self.positive else f"-{self.atom}"

    def sort_key(self):
        return (self.atom.predicate, str(self.atom), self.positive)


@dataclass(frozen=True)
class Clause:
    """A duplicate-free disjunction of literals, kept in sorted order.

    The empty clause is representable and denotes contradiction. All
    variables are implicitly universally quantified.
    """

    literals: tuple[Literal, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(set(self.literals), key=Literal.sort_key))
        object.__setattr__(self, "literals", ordered)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __contains__(self, lit: Literal) -> bool:
        return lit in self.literals

    def is_empty(self) -> bool:
        return not self.literals

    def is_tautology(self) -> bool:
        pos = {l.atom for l in self.literals if l.positive}
        neg = {l.atom for l in self.literals if not l.positive}
        return bool(pos & neg)

    @cached_property
    def variables(self) -> frozenset[str]:
        """Names of the variables in the clause, computed once per clause:
        resolution renames every pair of parents apart."""
        return frozenset(t.name for lit in self.literals
                         for a in lit.atom.args for t in subterms(a)
                         if isinstance(t, Variable))

    def __str__(self):
        if not self.literals:
            return "$false"
        return " | ".join(str(l) for l in self.literals)


def clause_substitute(literals: Iterable[Literal], s: Mapping[str, Term]) -> Clause:
    """The clause of the given literals (a Clause or any iterable) under s."""
    return Clause(tuple(
        Literal(l.positive, Atom(l.atom.predicate,
                                 tuple(substitute_term(a, s) for a in l.atom.args)))
        for l in literals
    ))


# ---------------------------------------------------------------------------
# Problems, verdicts, outcomes


class Truth(enum.Enum):
    TRUE = "True"
    FALSE = "False"
    UNKNOWN = "Unknown"

    def __str__(self):
        return self.value


class WorldAssumption(enum.Enum):
    OWA = "OWA"
    CWA = "CWA"

    def firm(self, truth: Truth) -> Truth:
        """The truth value under this assumption: the closed world reads
        Unknown as False. The one place that rule is written; apply it
        only to the answer of a complete search (see
        harness.apply_world_assumption)."""
        if self is WorldAssumption.CWA and truth is Truth.UNKNOWN:
            return Truth.FALSE
        return truth


@dataclass(frozen=True)
class Verdict:
    value: Truth
    resource_limited: bool = False

    def __post_init__(self):
        # the flag marks an inconclusive search, so it only makes sense on Unknown
        if self.resource_limited and self.value is not Truth.UNKNOWN:
            raise ValueError("resource_limited requires an Unknown verdict")

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Problem:
    premises: tuple[Formula, ...]
    conclusion: Formula

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))
        for f in (*self.premises, self.conclusion):
            if free_variables(f):
                raise ValueError(f"formula has free variables: {f}")

    def constants(self) -> set[str]:
        """Names of all constants mentioned anywhere in the problem."""
        return {t.name for g in subformulas(*self.premises, self.conclusion)
                if isinstance(g, Atom) for a in g.args for t in subterms(a)
                if isinstance(t, Constant)}


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int = 1

    def __post_init__(self):
        if self.line < 1 or self.column < 1 or self.length < 1:
            raise ValueError("spans are 1-based and non-empty")

    def __str__(self):
        return f"line {self.line}, column {self.column}"


@dataclass(frozen=True)
class Outcome:
    pass


@dataclass(frozen=True)
class Answered(Outcome):
    verdict: Verdict

    def __str__(self):
        return str(self.verdict)


@dataclass(frozen=True)
class ParseFailed(Outcome):
    detail: str
    span: SourceSpan

    def __post_init__(self):
        if not self.detail:
            raise ValueError("detail must be non-empty")

    def __str__(self):
        return f"ParseError: {self.detail} ({self.span})"


@dataclass(frozen=True)
class ExecFailed(Outcome):
    detail: str

    def __post_init__(self):
        if not self.detail:
            raise ValueError("detail must be non-empty")

    def __str__(self):
        return f"ExecError: {self.detail}"


@dataclass(frozen=True)
class Inconsistent(Outcome):
    def __str__(self):
        return "Inconsistent"


# ---------------------------------------------------------------------------
# Errors and limits


class ParseError(Exception):
    """Raised by the dialect parsers; carries a position in the source text."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.message = message
        self.span = span


# How deep the dialect parsers let input nest: formulas and terms in the
# prover9 and z3 dialects, rule bodies in pyke. Parsing and every engine
# recurse once per level, so deeper input is a ParseError rather than a
# RecursionError.
MAX_NESTING_DEPTH = 200


def too_deep(span: SourceSpan) -> ParseError:
    return ParseError(f"nested deeper than {MAX_NESTING_DEPTH} levels", span)


class ExecError(Exception):
    """Raised when solving fails for a reason other than syntax."""


class DeadlineExceeded(Exception):
    """Raised by a search that ran past its wall-clock deadline.

    Not an ExecError: the problem itself was fine, the search just did not
    finish, so the engine answers a resource-limited Unknown.
    """


@dataclass(frozen=True)
class ResourceLimits:
    max_generated_clauses: int = 200_000
    max_clause_literals: int = 64
    wall_ms: int = 10_000
    max_cnf_clauses: int = 100_000
    max_ground_literals: int = 1_000_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ValueError(f"{f.name} must be a positive integer")

    def deadline(self, share: float = 1.0) -> float:
        """The time.monotonic() instant share of wall_ms from now; see
        resolution.dual_run for how its two runs share one budget."""
        return time.monotonic() + share * self.wall_ms / 1000.0


DEFAULT_LIMITS = ResourceLimits()
