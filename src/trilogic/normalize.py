"""Clausification: NNF, standardize-apart with skolemization, and
distribution to CNF clauses, each formula in two walks and a CNF pass.

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


def skolem_supply() -> NameSupply:
    return NameSupply("_sk")


def variable_supply() -> NameSupply:
    return NameSupply("_v")


def clock(deadline: float) -> Callable[[], None]:
    """The tick that the walks below call at every inner node they visit,
    and clausify at every literal it puts in a clause.

    Once per _NODES_PER_CHECK ticks it reads the clock, and past deadline
    (a time.monotonic() instant) it raises DeadlineExceeded. The walks
    visit a tree, and to_nnf walks both sides of an Iff or Xor twice,
    once under each polarity, so a chain of them costs time exponential
    in its length; the tick bounds that time.
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


def _no_tick() -> None:
    pass


def to_nnf(f: Formula, tick: Callable[[], None] = _no_tick) -> Formula:
    """Rewrite ->, <-> and ^ and push every negation down to an atom, in
    one walk: a -> b becomes -a | b, a <-> b becomes (-a | b) & (-b | a)
    and a ^ b becomes (a | b) & (-a | -b), each its De Morgan dual under a
    negation."""

    def walk(f: Formula, positive: bool) -> Formula:
        if isinstance(f, Atom):
            return f if positive else Not(f)
        tick()
        if isinstance(f, Not):
            return walk(f.body, not positive)
        conj: type[And] | type[Or] = And if positive else Or
        disj: type[And] | type[Or] = Or if positive else And
        if isinstance(f, And):
            return conj(tuple(walk(p, positive) for p in f.parts))
        if isinstance(f, Or):
            return disj(tuple(walk(p, positive) for p in f.parts))
        if isinstance(f, Implies):
            return disj((walk(f.left, not positive), walk(f.right, positive)))
        if isinstance(f, Iff):
            a, b = f.left, f.right
            return conj((disj((walk(a, not positive), walk(b, positive))),
                         disj((walk(b, not positive), walk(a, positive)))))
        if isinstance(f, Xor):
            a, b = f.left, f.right
            return conj((disj((walk(a, positive), walk(b, positive))),
                         disj((walk(a, not positive), walk(b, not positive)))))
        if isinstance(f, ForAll):
            return (ForAll if positive else Exists)(f.var, walk(f.body, positive))
        if isinstance(f, Exists):
            return (Exists if positive else ForAll)(f.var, walk(f.body, positive))
        raise TypeError(f"not a formula: {f!r}")

    return walk(f, True)


def skolemize(f: Formula, var_supply: NameSupply, sk_supply: NameSupply,
              tick: Callable[[], None] = _no_tick) -> Formula:
    """Standardize apart and drop existentials from an NNF formula.

    Every binder gets its own fresh variable name. An existential under k
    universals becomes a fresh k-ary symbol applied to those universal
    variables; under none it becomes a fresh constant. An existential
    draws a variable name before its witness, as every binder does, so
    the numbering of both supplies follows the binders in tree order.
    """

    def walk(f: Formula, univ: tuple[str, ...], sub: dict[str, Term]) -> Formula:
        if isinstance(f, Atom):
            if not sub:
                return f
            return Atom(f.predicate, tuple(substitute_term(a, sub) for a in f.args))
        tick()
        if isinstance(f, Not):
            return Not(walk(f.body, univ, sub))
        if isinstance(f, And):
            return And(tuple(walk(p, univ, sub) for p in f.parts))
        if isinstance(f, Or):
            return Or(tuple(walk(p, univ, sub) for p in f.parts))
        if isinstance(f, (ForAll, Exists)):
            new = var_supply.fresh()
            inner = dict(sub)
            if isinstance(f, ForAll):
                inner[f.var] = Variable(new)
                return ForAll(new, walk(f.body, univ + (new,), inner))
            name = sk_supply.fresh()
            inner[f.var] = (Function(name, tuple(Variable(u) for u in univ))
                            if univ else Constant(name))
            return walk(f.body, univ, inner)
        raise TypeError(f"not a formula: {f!r}")

    return walk(f, (), {})


def clausify(f: Formula, limits: ResourceLimits = DEFAULT_LIMITS,
             tick: Callable[[], None] = _no_tick) -> list[Clause]:
    """Distribute a skolemized NNF formula into clauses.

    Universal quantifiers are dropped (clause variables are implicitly
    universal), Or is distributed over And under a clause budget, duplicate
    literals collapse, and tautologies are removed. The returned list is
    duplicate-free in first-occurrence order.
    """
    budget = limits.max_cnf_clauses

    def cnf(f: Formula) -> list[tuple[Literal, ...]]:
        if isinstance(f, Atom):
            return [(Literal(True, f),)]
        if isinstance(f, Not):
            if not isinstance(f.body, Atom):
                raise ValueError(f"input is not in NNF: {f!r}")
            return [(Literal(False, f.body),)]
        tick()
        if isinstance(f, ForAll):
            return cnf(f.body)
        if isinstance(f, And):
            out: list[tuple[Literal, ...]] = []
            for p in f.parts:
                out.extend(cnf(p))
                if len(out) > budget:
                    raise ExecError("clause explosion")
            return out
        if isinstance(f, Or):
            acc: list[tuple[Literal, ...]] = [()]
            for p in f.parts:
                rows = cnf(p)
                if len(acc) * len(rows) > budget:
                    raise ExecError("clause explosion")
                acc = [a + r for a in acc for r in rows]
            return acc
        if isinstance(f, Exists):
            raise ValueError("skolemize before clausify")
        raise TypeError(f"not a formula: {f!r}")

    clauses: list[Clause] = []
    seen: set[Clause] = set()
    for lits in cnf(f):
        for _ in lits:
            tick()
        c = Clause(lits)
        if c.is_tautology() or c in seen:
            continue
        seen.add(c)
        clauses.append(c)
    return clauses


def clausify_all(formulas: Iterable[Formula], var_supply: NameSupply,
                 sk_supply: NameSupply,
                 limits: ResourceLimits = DEFAULT_LIMITS,
                 deadline: Optional[float] = None) -> list[Clause]:
    """Clausify several formulas with shared name supplies, deduplicated.

    deadline is a time.monotonic() instant, by default wall_ms from now,
    one instant for all the formulas; past it the pipeline raises
    DeadlineExceeded.
    """
    tick = clock(limits.deadline() if deadline is None else deadline)
    clauses: list[Clause] = []
    seen: set[Clause] = set()
    for f in formulas:
        g = skolemize(to_nnf(f, tick), var_supply, sk_supply, tick)
        for c in clausify(g, limits, tick):
            if c not in seen:
                seen.add(c)
                clauses.append(c)
    return clauses
