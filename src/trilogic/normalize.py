"""Clausification: connective elimination, NNF, standardize-apart,
skolemization, and distribution to CNF clauses.

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
    visit a tree, and the two sides of an Iff or Xor each appear twice in
    eliminate_connectives' output, so a chain of them costs time
    exponential in its length; the tick bounds that time.
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


def eliminate_connectives(f: Formula, tick: Callable[[], None] = _no_tick
                          ) -> Formula:
    """Rewrite Implies/Iff/Xor in terms of And/Or/Not."""
    if isinstance(f, Atom):
        return f
    tick()
    if isinstance(f, Not):
        return Not(eliminate_connectives(f.body, tick))
    if isinstance(f, And):
        return And(tuple(eliminate_connectives(p, tick) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(eliminate_connectives(p, tick) for p in f.parts))
    if isinstance(f, Implies):
        return Or((Not(eliminate_connectives(f.left, tick)),
                   eliminate_connectives(f.right, tick)))
    if isinstance(f, Iff):
        a = eliminate_connectives(f.left, tick)
        b = eliminate_connectives(f.right, tick)
        return And((Or((Not(a), b)), Or((Not(b), a))))
    if isinstance(f, Xor):
        a = eliminate_connectives(f.left, tick)
        b = eliminate_connectives(f.right, tick)
        return And((Or((a, b)), Or((Not(a), Not(b)))))
    if isinstance(f, (ForAll, Exists)):
        return type(f)(f.var, eliminate_connectives(f.body, tick))
    raise TypeError(f"not a formula: {f!r}")


def to_nnf(f: Formula, tick: Callable[[], None] = _no_tick) -> Formula:
    """Push negations down to atoms. Input must be free of ->, <-> and ^."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not) and isinstance(f.body, Atom):
        return f
    tick()
    if isinstance(f, And):
        return And(tuple(to_nnf(p, tick) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(to_nnf(p, tick) for p in f.parts))
    if isinstance(f, (ForAll, Exists)):
        return type(f)(f.var, to_nnf(f.body, tick))
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, Not):
            return to_nnf(g.body, tick)
        if isinstance(g, And):
            return Or(tuple(to_nnf(Not(p), tick) for p in g.parts))
        if isinstance(g, Or):
            return And(tuple(to_nnf(Not(p), tick) for p in g.parts))
        if isinstance(g, ForAll):
            return Exists(g.var, to_nnf(Not(g.body), tick))
        if isinstance(g, Exists):
            return ForAll(g.var, to_nnf(Not(g.body), tick))
        raise ValueError(f"eliminate connectives before NNF: {g!r}")
    raise ValueError(f"eliminate connectives before NNF: {f!r}")


def standardize_apart(f: Formula, supply: NameSupply,
                      tick: Callable[[], None] = _no_tick) -> Formula:
    """Give every binder its own fresh variable name."""

    def walk(f: Formula, ren: dict[str, Term]) -> Formula:
        if isinstance(f, Atom):
            if not ren:
                return f
            return Atom(f.predicate, tuple(substitute_term(a, ren) for a in f.args))
        tick()
        if isinstance(f, Not):
            return Not(walk(f.body, ren))
        if isinstance(f, And):
            return And(tuple(walk(p, ren) for p in f.parts))
        if isinstance(f, Or):
            return Or(tuple(walk(p, ren) for p in f.parts))
        if isinstance(f, (ForAll, Exists)):
            new = supply.fresh()
            inner = dict(ren)
            inner[f.var] = Variable(new)
            return type(f)(new, walk(f.body, inner))
        raise TypeError(f"not a formula: {f!r}")

    return walk(f, {})


def skolemize(f: Formula, supply: NameSupply,
              tick: Callable[[], None] = _no_tick) -> Formula:
    """Drop existentials from a standardized NNF formula.

    An existential under k universals becomes a fresh k-ary symbol applied
    to those universal variables; under none it becomes a fresh constant.
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
        if isinstance(f, ForAll):
            return ForAll(f.var, walk(f.body, univ + (f.var,), sub))
        if isinstance(f, Exists):
            name = supply.fresh()
            witness: Term
            if univ:
                witness = Function(name, tuple(Variable(u) for u in univ))
            else:
                witness = Constant(name)
            inner = dict(sub)
            inner[f.var] = witness
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


def clausify_formula(f: Formula, var_supply: NameSupply, sk_supply: NameSupply,
                     limits: ResourceLimits = DEFAULT_LIMITS,
                     deadline: Optional[float] = None) -> list[Clause]:
    """Run the whole pipeline on one formula.

    deadline is a time.monotonic() instant, by default wall_ms from now;
    past it the pipeline raises DeadlineExceeded.
    """
    return clausify_all([f], var_supply, sk_supply, limits, deadline)


def clausify_all(formulas: Iterable[Formula], var_supply: NameSupply,
                 sk_supply: NameSupply,
                 limits: ResourceLimits = DEFAULT_LIMITS,
                 deadline: Optional[float] = None) -> list[Clause]:
    """Clausify several formulas with shared name supplies, deduplicated.

    deadline is as in clausify_formula, one instant for all the formulas.
    """
    tick = clock(limits.deadline() if deadline is None else deadline)
    clauses: list[Clause] = []
    seen: set[Clause] = set()
    for f in formulas:
        g = eliminate_connectives(f, tick)
        g = to_nnf(g, tick)
        g = standardize_apart(g, var_supply, tick)
        g = skolemize(g, sk_supply, tick)
        for c in clausify(g, limits, tick):
            if c not in seen:
                seen.add(c)
                clauses.append(c)
    return clauses
