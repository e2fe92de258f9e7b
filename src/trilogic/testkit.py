"""Model-enumeration oracle, seeded problem generator, differential runner.

The oracle decides entailment exactly on the function-free fragment by
enumerating every interpretation over a finite universe: the named
constants plus one fresh witness constant per quantifier occurrence that
could demand a new individual. Witnesses cover existential strength in the
premises and every quantifier of the conclusion (the conclusion is used
both asserted and refuted, so each of its quantifiers flips existential in
one of the two checks). Extra witnesses never change the verdict; missing
ones could, which is why the counting errs wide.

Truth tables are bit-parallel: a column of 2^n assignment bits per ground
atom, held as a Python int, with blocking over the highest-indexed atoms to
bound the working-set size. Only free atoms are enumerated: a ground literal
premise fixes its atom, and an atom that no occurrence can name is left out.
The max_atoms limit still counts every ground atom.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .fol import (
    And, Answered, Atom, Constant, ExecError, Exists, ForAll, Formula,
    Iff, Implies, Inconsistent, Not, Or, Outcome, Problem,
    ResourceLimits, DEFAULT_LIMITS, Term, Truth, Variable, Verdict,
    WorldAssumption, Xor, pretty, subformulas,
)
from .harness import ENGINES, run_translation
# not called here; kept importable because perfbench/tracer.py wraps them
from .chaining import entail_chaining
from .dialects import parse_prover9, parse_pyke, parse_z3
from .resolution import entail_resolution
from .sat import entail_sat

ORACLE_MAX_ATOMS = 24
# low atoms per block: 2^16-bit (8 kB) columns stay in cache, and the
# early exits fire per block; 16 beat 20, 14 and 12 on set-up time
_BLOCK_ATOMS = 16
_WITNESS_PREFIX = "_w"

HORN = "horn"
FULL_FOL = "full-fol"
FRAGMENTS = (HORN, FULL_FOL)


def _existential_witnesses(f: Formula, polarity: int) -> int:
    """Count quantifiers that act existentially at this polarity.

    polarity 0 means the subformula occurs under both polarities (inside
    an equivalence), so every quantifier there gets a witness.
    """
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return _existential_witnesses(f.body, -polarity)
    if isinstance(f, (And, Or)):
        return sum(_existential_witnesses(p, polarity) for p in f.parts)
    if isinstance(f, (Xor, Iff)):
        return (_existential_witnesses(f.left, 0)
                + _existential_witnesses(f.right, 0))
    if isinstance(f, Implies):
        return (_existential_witnesses(f.left, -polarity)
                + _existential_witnesses(f.right, polarity))
    if isinstance(f, ForAll):
        own = 1 if polarity in (-1, 0) else 0
        return own + _existential_witnesses(f.body, polarity)
    if isinstance(f, Exists):
        own = 1 if polarity in (1, 0) else 0
        return own + _existential_witnesses(f.body, polarity)
    raise TypeError(f"unexpected formula node {type(f).__name__}")


def oracle_universe(p: Problem) -> list[str]:
    named = sorted(p.constants())
    witnesses = sum(_existential_witnesses(f, 1) for f in p.premises)
    witnesses += sum(isinstance(g, (ForAll, Exists))
                     for g in subformulas(p.conclusion))
    universe = named + [f"{_WITNESS_PREFIX}{i}" for i in range(witnesses)]
    if not universe:
        universe = [f"{_WITNESS_PREFIX}0"]
    return universe


def _collect_atoms(p: Problem) -> tuple[list[tuple[str, int]],
                                        dict[str, set[tuple]]]:
    """Predicate arities, and per predicate the argument patterns of its
    occurrences: a constant's name, or None for a variable.

    Raises ExecError on a function term.
    """
    arities: dict[str, int] = {}
    patterns: dict[str, set[tuple]] = {}
    for g in subformulas(*p.premises, p.conclusion):
        if isinstance(g, Atom):
            arities.setdefault(g.predicate, len(g.args))
            patterns.setdefault(g.predicate, set()).add(tuple(
                None if isinstance(a, Variable) else _term_name(a, {})
                for a in g.args))
    return sorted(arities.items()), patterns


def _tiled_column(i: int, block_len: int) -> int:
    run = (1 << (1 << i)) - 1
    value = run << (1 << i)
    span = 1 << (i + 1)
    while span < block_len:
        value |= value << span
        span <<= 1
    return value


def _term_name(t: Term, env: Mapping[str, str]) -> str:
    if isinstance(t, Variable):
        return env[t.name]
    if isinstance(t, Constant):
        return t.name
    raise ExecError("function terms are outside the oracle fragment")


class _Evaluator:
    def __init__(self, universe: Sequence[str], full: int,
                 columns: Mapping[tuple[str, tuple[str, ...]], int]) -> None:
        self.universe = universe
        self.full = full
        self.columns = columns

    def eval(self, f: Formula, env: dict[str, str]) -> int:
        full = self.full
        if isinstance(f, Atom):
            key = (f.predicate, tuple(_term_name(a, env) for a in f.args))
            return self.columns[key]
        if isinstance(f, Not):
            return full ^ self.eval(f.body, env)
        if isinstance(f, And):
            acc = full
            for part in f.parts:
                acc &= self.eval(part, env)
                if not acc:
                    break
            return acc
        if isinstance(f, Or):
            acc = 0
            for part in f.parts:
                acc |= self.eval(part, env)
                if acc == full:
                    break
            return acc
        if isinstance(f, Xor):
            return self.eval(f.left, env) ^ self.eval(f.right, env)
        if isinstance(f, Implies):
            return (full ^ self.eval(f.left, env)) | self.eval(f.right, env)
        if isinstance(f, Iff):
            return full ^ self.eval(f.left, env) ^ self.eval(f.right, env)
        if isinstance(f, ForAll):
            acc = full
            for name in self.universe:
                env[f.var] = name
                acc &= self.eval(f.body, env)
                if not acc:
                    break
            env.pop(f.var, None)
            return acc
        if isinstance(f, Exists):
            acc = 0
            for name in self.universe:
                env[f.var] = name
                acc |= self.eval(f.body, env)
                if acc == full:
                    break
            env.pop(f.var, None)
            return acc
        raise TypeError(f"unexpected formula node {type(f).__name__}")


def enumerate_models(p: Problem, max_atoms: int = ORACLE_MAX_ATOMS) -> Outcome:
    """Exact entailment verdict by finite model enumeration.

    Raises ExecError on a function term, and when the ground atom count
    (every atom, enumerated or not) exceeds max_atoms.
    """
    arities, patterns = _collect_atoms(p)
    universe = oracle_universe(p)
    atom_keys = [(pred, combo) for pred, arity in arities
                 for combo in itertools.product(universe, repeat=arity)]
    n = len(atom_keys)
    if n > max_atoms:
        raise ExecError(f"oracle limit: {n} ground atoms exceeds {max_atoms}")

    # a ground literal premise fixes its atom; the rest are evaluated
    fixed: dict[tuple[str, tuple[str, ...]], bool] = {}
    premises = []
    for premise in p.premises:
        atom = premise.body if isinstance(premise, Not) else premise
        if isinstance(atom, Atom) and all(isinstance(a, Constant)
                                          for a in atom.args):
            key = (atom.predicate, tuple(a.name for a in atom.args))
            value = atom is premise
            if fixed.setdefault(key, value) is not value:
                return Inconsistent()
        else:
            premises.append(premise)
    # an atom no occurrence can name is never read, so it is left out
    free = [key for key in atom_keys if key not in fixed
            and any(all(a is None or a == c for a, c in zip(args, key[1]))
                    for args in patterns[key[0]])]

    low = min(len(free), _BLOCK_ATOMS)
    block_len = 1 << low
    full = (1 << block_len) - 1
    columns = {key: full if value else 0 for key, value in fixed.items()}
    for i, key in enumerate(free[:low]):
        columns[key] = _tiled_column(i, block_len)
    high = free[low:]
    ev = _Evaluator(universe, full, columns)

    any_premise = False
    any_with_neg = False
    any_with_pos = False
    for combo in range(1 << len(high)):
        for i, key in enumerate(high):
            columns[key] = full if (combo >> i) & 1 else 0
        mask = full
        for premise in premises:
            mask &= ev.eval(premise, {})
            if not mask:
                break
        if not mask:
            continue
        any_premise = True
        conclusion = ev.eval(p.conclusion, {})
        if mask & (full ^ conclusion):
            any_with_neg = True
        if mask & conclusion:
            any_with_pos = True
        if any_with_neg and any_with_pos:
            break

    if not any_premise:
        return Inconsistent()
    if not any_with_neg:
        return Answered(Verdict(Truth.TRUE))
    if not any_with_pos:
        return Answered(Verdict(Truth.FALSE))
    return Answered(Verdict(Truth.UNKNOWN))


# --- seeded generation ---


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the seeded problem generator."""

    constants: int = 3
    unary_predicates: int = 6
    depth: int = 3
    distractor_facts: int = 2
    distractor_rules: int = 2
    fragment: str = HORN
    assumption: WorldAssumption = WorldAssumption.OWA
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fragment not in FRAGMENTS:
            raise ValueError(f"unknown fragment {self.fragment!r}")
        if not 2 <= self.constants <= 8:
            raise ValueError("constants must be between 2 and 8")
        if self.unary_predicates < 1:
            raise ValueError("need at least one unary predicate")
        if self.distractor_facts < 0 or self.distractor_rules < 0:
            raise ValueError("counts must be nonnegative")
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.fragment == HORN and self.unary_predicates < self.depth + 1:
            raise ValueError("horn chains need unary_predicates > depth")
        base_atoms = self.unary_predicates * self.constants
        if base_atoms > ORACLE_MAX_ATOMS:
            raise ValueError(
                f"{base_atoms} base ground atoms exceeds the oracle "
                f"limit of {ORACLE_MAX_ATOMS}")


@dataclass(frozen=True)
class GeneratedProblem:
    id: str
    problem: Problem
    texts: Mapping[str, str]
    gold: Truth
    tags: Mapping[str, str]


def _generate_horn(cfg: GenConfig, rng: random.Random, shrink: int
                   ) -> tuple[list[Formula], Formula, list[Formula]]:
    """The shuffled premises, the conclusion, and the premises in the
    order of the rule-engine text: facts, then rules."""
    consts = [f"C{i}" for i in range(cfg.constants)]
    unary = [f"p{i}" for i in range(cfg.unary_predicates)]
    star = rng.choice(consts)
    chain = rng.sample(unary, cfg.depth + 1)
    non_chain = [u for u in unary if u not in chain]
    x = Variable("x")

    def fact(pred: str, const: str) -> Formula:
        return Atom(pred, (Constant(const),))

    def rule(body: list[str], head: str) -> Formula:
        parts = [Atom(p, (x,)) for p in body]
        return ForAll("x", Implies(parts[0] if len(parts) == 1
                                   else And(tuple(parts)), Atom(head, (x,))))

    facts = [fact(chain[0], star)]
    rules: list[Formula] = []
    for i in range(cfg.depth):
        body = [chain[i]]
        if non_chain and rng.random() < 0.4:
            side = rng.choice(non_chain)
            body.append(side)
            facts.append(fact(side, star))
        rules.append(rule(body, chain[i + 1]))

    n_facts = max(0, cfg.distractor_facts - shrink)
    n_rules = max(0, cfg.distractor_rules - shrink)
    for _ in range(n_facts):
        pool = non_chain if non_chain else unary
        distractor = fact(rng.choice(pool), rng.choice(consts))
        if distractor not in facts:
            facts.append(distractor)
    if non_chain:
        for _ in range(n_rules):
            body_pred = rng.choice(unary)
            head_pred = rng.choice(non_chain)
            if head_pred != body_pred:
                rules.append(rule([body_pred], head_pred))

    if rng.random() < 0.5:
        conclusion = fact(chain[-1], star)
    else:
        others = [c for c in consts if c != star]
        if others and (not non_chain or rng.random() < 0.5):
            conclusion = fact(chain[-1], rng.choice(others))
        else:
            pool = non_chain if non_chain else unary
            conclusion = fact(rng.choice(pool), star)

    premises = facts + rules
    rng.shuffle(premises)
    return premises, conclusion, facts + rules


def _generate_full_fol(cfg: GenConfig, rng: random.Random, shrink: int
                       ) -> tuple[list[Formula], Formula, None]:
    consts = [f"C{i}" for i in range(cfg.constants)]
    unary = [f"p{i}" for i in range(cfg.unary_predicates)]

    def atom(pred: str, const: str) -> Formula:
        return Atom(pred, (Constant(const),))

    def var_atom(pred: str) -> Formula:
        return Atom(pred, (Variable("x"),))

    def maybe_negated(f: Formula) -> Formula:
        return Not(f) if rng.random() < 0.35 else f

    premises: list[Formula] = []
    for _ in range(max(1, 2 - shrink)):
        premises.append(maybe_negated(atom(rng.choice(unary),
                                           rng.choice(consts))))
    for _ in range(cfg.depth):
        body = [maybe_negated(var_atom(rng.choice(unary)))]
        if rng.random() < 0.3:
            body.append(maybe_negated(var_atom(rng.choice(unary))))
        head = maybe_negated(var_atom(rng.choice(unary)))
        antecedent = body[0] if len(body) == 1 else And(tuple(body))
        premises.append(ForAll("x", Implies(antecedent, head)))

    special_budget = max(0, 2 - shrink)
    for _ in range(special_budget):
        shape = rng.randrange(4)
        a, b = rng.sample(unary, 2)
        if shape == 0:
            premises.append(Or((atom(a, rng.choice(consts)),
                                atom(b, rng.choice(consts)))))
        elif shape == 1:
            premises.append(Xor(atom(a, rng.choice(consts)),
                                atom(b, rng.choice(consts))))
        elif shape == 2:
            premises.append(ForAll("x", Iff(var_atom(a), var_atom(b))))
        else:
            premises.append(Exists("x", maybe_negated(var_atom(a))))

    for _ in range(max(0, cfg.distractor_facts - shrink)):
        premises.append(maybe_negated(atom(rng.choice(unary),
                                           rng.choice(consts))))

    kind = rng.randrange(4)
    pred = rng.choice(unary)
    if kind == 0:
        conclusion: Formula = atom(pred, rng.choice(consts))
    elif kind == 1:
        conclusion = Not(atom(pred, rng.choice(consts)))
    elif kind == 2:
        conclusion = Exists("x", var_atom(pred))
    else:
        conclusion = ForAll("x", var_atom(pred))

    rng.shuffle(premises)
    return premises, conclusion, None


def _render_prover9(p: Problem) -> str:
    lines = ["Predicates"]
    placeholders = ("x", "y", "z")
    for pred, arity in _collect_atoms(p)[0]:
        if arity == 0:
            lines.append(pred)
        else:
            args = ", ".join(placeholders[i % 3] for i in range(arity))
            lines.append(f"{pred}({args})")
    lines.append("Premises")
    lines.extend(pretty(f) for f in p.premises)
    lines.append("Conclusion:")
    lines.append(pretty(p.conclusion))
    return "\n".join(lines) + "\n"


def _z3_expr(f: Formula) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return f.predicate
        if not all(isinstance(t, (Variable, Constant)) for t in f.args):
            raise ExecError("function terms are outside the solver-API dialect")
        return f"{f.predicate}({', '.join(t.name for t in f.args)})"
    if isinstance(f, Not):
        return f"Not({_z3_expr(f.body)})"
    if isinstance(f, And):
        return f"And({', '.join(_z3_expr(x) for x in f.parts)})"
    if isinstance(f, Or):
        return f"Or({', '.join(_z3_expr(x) for x in f.parts)})"
    if isinstance(f, Xor):
        return f"Xor({_z3_expr(f.left)}, {_z3_expr(f.right)})"
    if isinstance(f, Implies):
        return f"Implies({_z3_expr(f.left)}, {_z3_expr(f.right)})"
    if isinstance(f, Iff):
        return f"({_z3_expr(f.left)}) == ({_z3_expr(f.right)})"
    if isinstance(f, ForAll):
        return f"ForAll([{f.var}], {_z3_expr(f.body)})"
    if isinstance(f, Exists):
        return f"Exists([{f.var}], {_z3_expr(f.body)})"
    raise TypeError(f"unexpected formula node {type(f).__name__}")


def _render_z3(p: Problem) -> str:
    lines = [_z3_expr(f) for f in p.premises]
    lines.append(f"return {_z3_expr(p.conclusion)}")
    return "\n".join(lines) + "\n"


def _render_pyke(p: Problem) -> str:
    """The rule-engine text of a problem, the inverse of parse_pyke: its
    literal premises are the facts and the others, each an implication
    under its `all`s, the rules, in order. Raises ExecError on any other
    premise and on a query that is not an atom."""
    def literal(f: Formula) -> str:
        a = f.body if isinstance(f, Not) else f
        if not isinstance(a, Atom):
            raise ExecError("formula outside the rule dialect")
        args = [f"${t}" if isinstance(t, Variable) else str(t)
                for t in a.args]
        slot = "False" if isinstance(f, Not) else "True"
        return f"{a.predicate}({', '.join(args + [slot])})"

    facts, rules = [], []
    for f in p.premises:
        if isinstance(f, (Atom, Not)):
            facts.append(literal(f))
            continue
        while isinstance(f, ForAll):
            f = f.body
        if not isinstance(f, Implies):
            raise ExecError("formula outside the rule dialect")
        parts = f.left.parts if isinstance(f.left, And) else (f.left,)
        rules.append(f"{' && '.join(map(literal, parts))} >>> "
                     f"{literal(f.right)}")
    if not isinstance(p.conclusion, Atom):
        raise ExecError("the query must be an atom")
    lines = ["Predicates:"]
    for pred, arity in _collect_atoms(p)[0]:
        slots = [f"$x{i}" for i in range(arity)] + ["bool"]
        lines.append(f"{pred}({', '.join(slots)})")
    return "\n".join([*lines, "Facts:", *facts, "Rules:", *rules,
                      "Query:", str(p.conclusion)]) + "\n"


# labels a definite-program or full-FOL draw can actually take under OWA
_ADMISSIBLE = {
    HORN: (Truth.TRUE, Truth.UNKNOWN),
    FULL_FOL: (Truth.TRUE, Truth.FALSE, Truth.UNKNOWN),
}


def _admissible_labels(cfg: GenConfig) -> tuple[Truth, ...]:
    return tuple(dict.fromkeys(map(cfg.assumption.firm,
                                   _ADMISSIBLE[cfg.fragment])))


def generate_problem(cfg: GenConfig, index: int = 0) -> GeneratedProblem:
    """One seeded problem with its dialect texts and an oracle gold label.

    The label is always computed by enumerate_models, never assumed from
    the construction. The wanted label cycles with the index so large
    suites come out balanced; drawing repeats until the oracle confirms
    the wanted label, settling for any clean draw when the budget runs
    out. Contradictory or oversized draws shrink the next instance.
    """
    rng = random.Random(f"{cfg.seed}:{index}")
    admissible = _admissible_labels(cfg)
    target = admissible[index % len(admissible)]
    build = _generate_horn if cfg.fragment == HORN else _generate_full_fol
    fallback = None
    shrink = 0
    for _ in range(60):
        premises, conclusion, ordered = build(cfg, rng, shrink)
        # every variable the builders write sits under its quantifier
        problem = Problem._closed(tuple(premises), conclusion)
        try:
            verdict = enumerate_models(problem)
        except ExecError:
            shrink += 1
            continue
        if isinstance(verdict, Inconsistent):
            shrink += 1
            continue
        assert isinstance(verdict, Answered)
        label = verdict.verdict.value
        candidate = (problem, ordered, label)
        if cfg.assumption.firm(label) is target:
            fallback = candidate
            break
        if fallback is None:
            fallback = candidate
    if fallback is None:
        raise ExecError(f"generator gave up on index {index} "
                        "after 60 attempts")
    problem, ordered, gold = fallback
    texts = {"prover9": _render_prover9(problem),
             "z3": _render_z3(problem)}
    if ordered is not None:
        texts["pyke"] = _render_pyke(Problem._closed(tuple(ordered),
                                                     problem.conclusion))
    pid = f"gen-{cfg.fragment}-s{cfg.seed}-{index:05d}"
    tags = {"dataset": "generated", "fragment": cfg.fragment,
            "depth": str(cfg.depth), "world": cfg.assumption.value}
    return GeneratedProblem(pid, problem, texts, gold, tags)


def generate_suite(cfg: GenConfig, n: int,
                   depths: Optional[Sequence[int]] = None
                   ) -> list[GeneratedProblem]:
    if depths is not None and not depths:
        raise ValueError("depths must name at least one depth")
    out = []
    for i in range(n):
        c = cfg if depths is None else dataclasses.replace(
            cfg, depth=depths[i % len(depths)])
        out.append(generate_problem(c, index=i))
    return out


# --- differential checking ---

# the dialect each engine reads in a differential check
_DIFF_DIALECTS = {"resolution": "prover9", "sat": "z3", "chaining": "pyke"}


@dataclass(frozen=True)
class DiffMismatch:
    problem_id: str
    engine: str
    expected: str
    got: str
    texts: Mapping[str, str]

    def __str__(self) -> str:
        return (f"{self.problem_id} [{self.engine}]: expected "
                f"{self.expected}, got {self.got}")


@dataclass(frozen=True)
class DiffReport:
    checked: int
    mismatches: tuple[DiffMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def differential_check(n: int, cfg: GenConfig,
                       engines: Sequence[str] = ENGINES,
                       depths: Optional[Sequence[int]] = None,
                       limits: ResourceLimits = DEFAULT_LIMITS) -> DiffReport:
    """Generate n problems and cross-check every engine against the oracle.

    engines names which of harness.ENGINES (resolution, sat, chaining) to
    check, each once in name order; all three by default. Each engine
    sees only the text of its own dialect, so this also exercises the
    emit/parse round trip. Chaining reads pyke text, which only horn
    problems have, so it checks no full-fol problem. Raises ValueError
    on an unknown name and when no engine is left to check.
    """
    unknown = sorted(set(engines) - set(ENGINES))
    if unknown:
        raise ValueError(f"unknown engine(s): {', '.join(unknown)}")
    names = [e for e in sorted(set(engines))
             if cfg.fragment == HORN or e != "chaining"]
    if not names:
        raise ValueError(f"no engine to check on {cfg.fragment} problems")
    mismatches: list[DiffMismatch] = []
    for gp in generate_suite(cfg, n, depths):
        for name in names:
            dialect = _DIFF_DIALECTS[name]
            outcome = run_translation(gp.texts[dialect], dialect, name, limits)
            good = (isinstance(outcome, Answered)
                    and outcome.verdict.value is gp.gold
                    and not outcome.verdict.resource_limited)
            if not good:
                mismatches.append(DiffMismatch(
                    gp.id, name, gp.gold.value, str(outcome), gp.texts))
    return DiffReport(n, tuple(mismatches))
