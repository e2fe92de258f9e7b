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

from dataclasses import dataclass
from typing import Iterable

from .fol import (
    And, Atom, Clause, Constant, ExecError, Exists, ForAll, Formula, Function,
    Implies, Iff, Literal, Not, Or, ResourceLimits, DEFAULT_LIMITS, Term,
    Variable, Xor, substitute_term,
)


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


def eliminate_connectives(f: Formula) -> Formula:
    """Rewrite Implies/Iff/Xor in terms of And/Or/Not."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(eliminate_connectives(f.body))
    if isinstance(f, And):
        return And(tuple(eliminate_connectives(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(eliminate_connectives(p) for p in f.parts))
    if isinstance(f, Implies):
        return Or((Not(eliminate_connectives(f.left)), eliminate_connectives(f.right)))
    if isinstance(f, Iff):
        a = eliminate_connectives(f.left)
        b = eliminate_connectives(f.right)
        return And((Or((Not(a), b)), Or((Not(b), a))))
    if isinstance(f, Xor):
        a = eliminate_connectives(f.left)
        b = eliminate_connectives(f.right)
        return And((Or((a, b)), Or((Not(a), Not(b)))))
    if isinstance(f, (ForAll, Exists)):
        return type(f)(f.var, eliminate_connectives(f.body))
    raise TypeError(f"not a formula: {f!r}")


def to_nnf(f: Formula) -> Formula:
    """Push negations down to atoms. Input must be free of ->, <-> and ^."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, And):
        return And(tuple(to_nnf(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(to_nnf(p) for p in f.parts))
    if isinstance(f, (ForAll, Exists)):
        return type(f)(f.var, to_nnf(f.body))
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, Atom):
            return f
        if isinstance(g, Not):
            return to_nnf(g.body)
        if isinstance(g, And):
            return Or(tuple(to_nnf(Not(p)) for p in g.parts))
        if isinstance(g, Or):
            return And(tuple(to_nnf(Not(p)) for p in g.parts))
        if isinstance(g, ForAll):
            return Exists(g.var, to_nnf(Not(g.body)))
        if isinstance(g, Exists):
            return ForAll(g.var, to_nnf(Not(g.body)))
        raise ValueError(f"eliminate connectives before NNF: {g!r}")
    raise ValueError(f"eliminate connectives before NNF: {f!r}")


def standardize_apart(f: Formula, supply: NameSupply) -> Formula:
    """Give every binder its own fresh variable name."""

    def walk(f: Formula, ren: dict[str, Term]) -> Formula:
        if isinstance(f, Atom):
            if not ren:
                return f
            return Atom(f.predicate, tuple(substitute_term(a, ren) for a in f.args))
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


def skolemize(f: Formula, supply: NameSupply) -> Formula:
    """Drop existentials from a standardized NNF formula.

    An existential under k universals becomes a fresh k-ary symbol applied
    to those universal variables; under none it becomes a fresh constant.
    """

    def walk(f: Formula, univ: tuple[str, ...], sub: dict[str, Term]) -> Formula:
        if isinstance(f, Atom):
            if not sub:
                return f
            return Atom(f.predicate, tuple(substitute_term(a, sub) for a in f.args))
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


def clausify(f: Formula, limits: ResourceLimits = DEFAULT_LIMITS) -> list[Clause]:
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
        c = Clause(lits)
        if c.is_tautology() or c in seen:
            continue
        seen.add(c)
        clauses.append(c)
    return clauses


def clausify_formula(f: Formula, var_supply: NameSupply, sk_supply: NameSupply,
                     limits: ResourceLimits = DEFAULT_LIMITS) -> list[Clause]:
    """Run the whole pipeline on one formula."""
    g = eliminate_connectives(f)
    g = to_nnf(g)
    g = standardize_apart(g, var_supply)
    g = skolemize(g, sk_supply)
    return clausify(g, limits)


def clausify_all(formulas: Iterable[Formula], var_supply: NameSupply,
                 sk_supply: NameSupply,
                 limits: ResourceLimits = DEFAULT_LIMITS) -> list[Clause]:
    """Clausify several formulas with shared name supplies, deduplicated."""
    clauses: list[Clause] = []
    seen: set[Clause] = set()
    for f in formulas:
        for c in clausify_formula(f, var_supply, sk_supply, limits):
            if c not in seen:
                seen.add(c)
                clauses.append(c)
    return clauses
