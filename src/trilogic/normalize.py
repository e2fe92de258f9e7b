"""Clausification in one walk per formula that carries the polarity, the
enclosing universal variables and the substitution and returns CNF rows:
no intermediate formula is built, and a formula whose CNF explodes stops
at the CNF budget.

Skolemization is structural rather than prenex-based: an existential is
replaced by a fresh symbol applied to exactly the universal variables
that actually enclose it. Prenexing first would inflate skolem arities
(for example `(all x p(x)) & (exists y q(y))` has a plain witness
constant, not a witness depending on x), and the finite-domain engine
only accepts constant skolems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .fol import (
    And, Atom, Clause, Constant, DeadlineExceeded, ExecError, Exists, ForAll,
    Formula, Function, Implies, Iff, Literal, Not, Or, ResourceLimits,
    DEFAULT_LIMITS, Term, Variable, Xor, substitute_term,
)

# inner formula nodes visited between two looks at the clock
_NODES_PER_CHECK = 1024

# the literals of each clause of a CNF, in order
Rows = list[tuple[Literal, ...]]


@dataclass
class NameSupply:
    """Counter-backed source of fresh reserved identifiers.

    Generated names start with `_` (`_sk0`, `_v1`, ...), which the dialect
    parsers reject in user input, so collisions are impossible.
    """

    prefix: str
    next_index: int = 0

    def fresh(self) -> str:
        name = f"{self.prefix}{self.next_index}"
        self.next_index += 1
        return name


# the dialects reject names starting with '_', so a text cannot write one
SKOLEM_PREFIX = "_sk"


def skolem_supply() -> NameSupply:
    return NameSupply(SKOLEM_PREFIX)


def variable_supply() -> NameSupply:
    return NameSupply("_v")


def clock(deadline: float) -> Callable[[], None]:
    """The tick that clausify_all calls at every inner node it visits and
    at every literal it puts in a clause.

    Once per _NODES_PER_CHECK ticks it reads the clock, and past deadline
    (a time.monotonic() instant) it raises DeadlineExceeded. The walk
    visits both sides of an Iff or Xor twice, once under each polarity,
    so a chain of them costs time exponential in its length until the
    CNF budget stops it, and an Or of Ands can put that budget's worth of
    long clauses out; the tick bounds that time.
    """
    visits = 0

    def tick() -> None:
        nonlocal visits
        visits += 1
        if visits == _NODES_PER_CHECK:
            visits = 0
            if time.monotonic() > deadline:
                raise DeadlineExceeded("wall clock budget")

    return tick


def clausify_all(formulas: Iterable[Formula], var_supply: NameSupply,
                 sk_supply: NameSupply,
                 limits: ResourceLimits = DEFAULT_LIMITS,
                 deadline: Optional[float] = None) -> list[Clause]:
    """Clausify several formulas with shared name supplies, deduplicated.

    Universal quantifiers are dropped (clause variables are implicitly
    universal), Or is distributed over And, duplicate literals collapse,
    and tautologies are removed. A formula whose CNF passes
    max_cnf_clauses raises ExecError. The returned list is duplicate-free
    in first-occurrence order.

    deadline is a time.monotonic() instant, by default wall_ms from now,
    one instant for all the formulas; past it the walk raises
    DeadlineExceeded.
    """
    tick = clock(limits.deadline() if deadline is None else deadline)
    budget = limits.max_cnf_clauses

    def combine(left: Rows, right: Rows, conj: bool) -> Rows:
        # a conjunction extends left, a list that only its caller holds
        if (len(left) + len(right) if conj else len(left) * len(right)) > budget:
            raise ExecError("clause explosion")
        if conj:
            left.extend(right)
            return left
        return [a + b for a in left for b in right]

    def cnf(f: Formula, pos: bool, univ: tuple[Variable, ...],
            sub: dict[str, Term]) -> Rows:
        """The CNF rows of f, or of its negation unless pos, under the
        universal variables univ and the renaming and witnesses sub.

        Under a negation every connective is its De Morgan dual: a -> b
        is -a | b, a <-> b is (-a | b) & (-b | a) and a ^ b is
        (a | b) & (-a | -b). The operands are walked in that order, and
        every binder draws a fresh variable name, an existential before
        its witness, so both supplies number the binders in that order.
        Each level recurses straight into the next, one frame a level.
        """
        if isinstance(f, Atom):
            if sub:
                f = Atom(f.predicate, tuple(substitute_term(a, sub) for a in f.args))
            return [(Literal(pos, f),)]
        tick()
        neg = not pos
        if isinstance(f, Not):
            return cnf(f.body, neg, univ, sub)
        if isinstance(f, (And, Or)):
            conj = isinstance(f, And) == pos
            rows: Rows = [] if conj else [()]
            for p in f.parts:
                rows = combine(rows, cnf(p, pos, univ, sub), conj)
            return rows
        if isinstance(f, (ForAll, Exists)):
            v = Variable(var_supply.fresh())
            if isinstance(f, ForAll) == pos:
                return cnf(f.body, pos, univ + (v,), {**sub, f.var: v})
            name = sk_supply.fresh()
            witness = Function(name, univ) if univ else Constant(name)
            return cnf(f.body, pos, univ, {**sub, f.var: witness})
        if not isinstance(f, (Implies, Iff, Xor)):
            raise TypeError(f"not a formula: {f!r}")
        a, b = f.left, f.right
        if isinstance(f, Implies):
            return combine(cnf(a, neg, univ, sub), cnf(b, pos, univ, sub), neg)
        if isinstance(f, Iff):
            return combine(
                combine(cnf(a, neg, univ, sub), cnf(b, pos, univ, sub), neg),
                combine(cnf(b, neg, univ, sub), cnf(a, pos, univ, sub), neg),
                pos)
        return combine(
            combine(cnf(a, pos, univ, sub), cnf(b, pos, univ, sub), neg),
            combine(cnf(a, neg, univ, sub), cnf(b, neg, univ, sub), neg),
            pos)

    clauses: list[Clause] = []
    seen: set[Clause] = set()
    try:
        for f in formulas:
            for lits in cnf(f, True, (), {}):
                for _ in lits:
                    tick()
                c = Clause(lits)
                if c not in seen and not c.is_tautology():
                    seen.add(c)
                    clauses.append(c)
    finally:
        # cnf calls itself through its own cell; emptying the cell breaks
        # that cycle, so reference counting frees the walk on return or
        # raise
        del cnf
    return clauses
