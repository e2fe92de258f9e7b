"""Entailment by grounding to propositional clauses and a CDCL SAT search.

Quantifiers are read over the closed universe of named constants (plus
skolem constants the clausifier introduced, plus one dummy constant when a
problem names nobody at all). This finite-domain reading matches the
benchmark fragments, where every individual is named up front; problems
that need skolem functions of arity one or more are out of this engine's
fragment and must go to the resolution engine instead. The two runs per
problem, their budgets and the verdict are resolution.dual_run's.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .fol import (
    Clause, Constant, DeadlineExceeded, ExecError, Function, Outcome,
    Problem, ResourceLimits, DEFAULT_LIMITS, Term, Variable, subterms,
)
# clausify_all is not called here; perfbench/tracer.py wraps it
from .normalize import SKOLEM_PREFIX, clausify_all
from .resolution import ProofResult, Proved, Refute, Saturated, dual_run

DUMMY_CONSTANT = "_c0"

# clause instances grounded between two looks at the clock
_COMBOS_PER_CHECK = 1024

# the highest atom a set's clauses name, its unit literals, and its
# clauses of two or more literals, each without repeats or tautologies
_Intake = tuple[int, list[int], list[tuple[int, ...]]]


@dataclass
class PropClauseSet:
    """Ground clauses as DIMACS-style signed 1-based indices.

    table maps each ground atom, as its plain (predicate, names) tuple, to
    its index, in the order the indices were handed out. A set is not
    changed once built: what ground and dpll read off a base set is
    worked out once, on first use, and kept on it.
    """

    clauses: list[tuple[int, ...]]
    atom_count: int
    table: dict[tuple[str, tuple[str, ...]], int]

    @cached_property
    def _instances(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.clauses)

    @cached_property
    def _literal_count(self) -> int:
        return sum(map(len, self.clauses))

    @cached_property
    def _intake(self) -> Optional[_Intake]:
        return _take_in(self.clauses)


# the base of a grounding or a search that extends no other
_EMPTY = PropClauseSet([], 0, {})


def ground(clauses: Iterable[Clause], constants: Iterable[str],
           limits: ResourceLimits = DEFAULT_LIMITS,
           deadline: Optional[float] = None,
           base: Optional[PropClauseSet] = None) -> PropClauseSet:
    """Instantiate every clause under every assignment of its variables.

    Each clause is compiled once into literal templates. Every argument
    reads either a variable's slot in the assignment or one of the clause's
    constants. Atoms are interned by their plain (predicate, names) key.
    deadline is a time.monotonic() instant, by default wall_ms from now,
    checked every _COMBOS_PER_CHECK assignments of a clause; past it
    grounding raises DeadlineExceeded.

    base is an earlier grounding over the same constants that these
    clauses extend, as a problem's goal extends its premises; none reads
    as a base with no clauses. The result numbers its atoms on from a
    copy of base's table and holds only the instances base lacks, and the
    literal budget counts base's literals too, so base's clauses followed
    by the result's are the grounding of base's clauses and these in one
    call.
    base's instance set and literal count are read in once per base, not
    once per call, so of the premises each goal grounded on them copies
    only the atom table.
    """
    if deadline is None:
        deadline = limits.deadline()
    universe = sorted(set(constants))
    if not universe:
        universe = [DUMMY_CONSTANT]
    base = base or _EMPTY
    table = dict(base.table)
    known = base._instances
    total_literals = base._literal_count
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    literal_budget = limits.max_ground_literals

    for clause in clauses:
        # a row holds the variables' values, then the clause's constants
        variables = sorted(clause.variables)
        fixed: list[str] = []
        template: list[tuple[bool, str, Callable[[tuple], tuple]]] = []
        for lit in clause:
            slots = []
            for arg in lit.atom.args:
                _reject_functions(arg)
                if isinstance(arg, Variable):
                    slots.append(variables.index(arg.name))
                else:
                    slots.append(len(variables) + len(fixed))
                    fixed.append(arg.name)
            template.append((lit.positive, lit.atom.predicate, _picker(slots)))
        constants_row = tuple(fixed)
        combos = itertools.product(universe, repeat=len(variables))
        for k, combo in enumerate(combos):
            if not k % _COMBOS_PER_CHECK and time.monotonic() > deadline:
                raise DeadlineExceeded("wall clock budget")
            row = combo + constants_row
            signed: list[int] = []
            for positive, predicate, pick in template:
                key = (predicate, pick(row))
                idx = table.get(key)
                if idx is None:
                    idx = table[key] = len(table) + 1
                s = idx if positive else -idx
                if -s in signed:
                    break  # a tautology
                if s not in signed:
                    signed.append(s)
            else:
                # no tautology, so abs alone orders the literals
                instance = tuple(sorted(signed, key=abs))
                if instance in seen or instance in known:
                    continue
                seen.add(instance)
                total_literals += len(instance)
                if total_literals > literal_budget:
                    raise ExecError("grounding budget exceeded")
                out.append(instance)
    return PropClauseSet(out, len(table), table)


def _picker(slots: list[int]) -> Callable[[tuple], tuple]:
    """A function taking a row of names to the tuple at these slots."""
    if not slots:
        return lambda row: ()
    if len(slots) == 1:
        (slot,) = slots
        return lambda row: (row[slot],)
    return itemgetter(*slots)


def _reject_functions(t: Term) -> None:
    if isinstance(t, Function):
        what = ("skolem functions of arity >= 1"
                if t.name.startswith(SKOLEM_PREFIX) else "function terms")
        raise ExecError(
            f"unsupported fragment: function term {t.name}/{len(t.args)} "
            f"({what} need the resolution engine)")


def _clause_constants(clauses: Iterable[Clause]) -> set[str]:
    return {t.name for c in clauses for lit in c for arg in lit.atom.args
            for t in subterms(arg) if isinstance(t, Constant)}


def _take_in(clauses: list[tuple[int, ...]]) -> Optional[_Intake]:
    """dpll's reading of clauses, in their order; None if one is empty.

    A clause with a repeated literal loses the repeats, and a tautology
    is dropped, before its atoms count towards the highest atom.
    """
    units: list[int] = []
    long_clauses: list[tuple[int, ...]] = []
    for c in clauses:
        if len(set(map(abs, c))) < len(c):  # a repeat, or a tautology
            c = tuple(dict.fromkeys(c))
            if any(-l in c for l in c):
                continue
        if len(c) > 1:
            long_clauses.append(c)
        elif c:
            units.append(c[0])
        else:
            return None
    top = max(map(abs, itertools.chain(
        units, itertools.chain.from_iterable(long_clauses))), default=0)
    return top, units, long_clauses


def dpll(cs: PropClauseSet, deadline: Optional[float] = None,
         base: Optional[PropClauseSet] = None) -> Optional[dict[int, bool]]:
    """Conflict-driven clause learning; a total model, or None if UNSAT.

    The search is iterative, after MiniSat (Een & Sorensson, SAT 2003): an
    explicit trail, two watched literals per clause, and first-UIP learning
    with non-chronological backjumping. There are no restarts, no activity
    scores and no clause deletion. Branching is deterministic: lowest
    unassigned index first, False first (MiniSat's default phase), so an
    atom that no clause forces comes out False. deadline is a
    time.monotonic() instant, checked once per conflict; past it the
    search raises DeadlineExceeded.

    base is the grounding that cs extends, as ground's base (none reads
    as a base with no clauses): the search reads base.clauses followed by
    cs.clauses. base is read in once, on its first search, and each
    search watches its own copies of base's clauses, so runs that share
    a base read it in once.
    """
    below = (base or _EMPTY)._intake
    own = _take_in(cs.clauses)
    if below is None or own is None:
        return None
    n = max(cs.atom_count, below[0], own[0])
    units = below[1] + own[1]
    # watching reorders a clause's literals, so each search gets lists of
    # its own
    long_clauses = list(map(list, itertools.chain(below[2], own[2])))

    # value[l] is 1 when literal l is true, -1 when false, 0 when unassigned.
    # With 2n + 1 slots, -l lands at index 2n + 1 - l, so value[-l] works.
    value = [0] * (2 * n + 1)
    level = [0] * (n + 1)
    reason: list[Optional[list[int]]] = [None] * (n + 1)
    # watches[l]: the clauses that watch l; a watched literal sits at
    # position 0 or 1, and position 0 holds the implied literal of a reason
    watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
    trail: list[int] = []
    trail_lim: list[int] = []  # trail length at each decision
    seen = [False] * (n + 1)
    qhead = 0
    next_var = 1

    def assign(lit: int, why: Optional[list[int]]) -> None:
        value[lit] = 1
        value[-lit] = -1
        v = abs(lit)
        level[v] = len(trail_lim)
        reason[v] = why
        trail.append(lit)

    def propagate() -> Optional[list[int]]:
        """Unit propagation from qhead; the conflicting clause, or None."""
        nonlocal qhead
        depth = len(trail_lim)
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            i = j = 0
            end = len(ws)
            while i < end:
                c = ws[i]
                i += 1
                if c[0] == false_lit:
                    c[0] = c[1]
                    c[1] = false_lit
                first = c[0]
                if value[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    other = c[k]
                    if value[other] != -1:
                        c[1] = other
                        c[k] = false_lit
                        watches[other].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if value[first] == -1:
                        del ws[j:i]
                        return c
                    value[first] = 1
                    value[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = depth
                    reason[v] = c
                    trail.append(first)
            del ws[j:]
        return None

    def analyze(conflict: list[int]) -> tuple[list[int], int]:
        """The first-UIP clause, asserting literal first, and its level."""
        depth = len(trail_lim)
        learnt = [0]
        pending = 0  # current-level literals not yet resolved away
        idx = len(trail) - 1
        lits = conflict
        while True:
            for q in lits:
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    if level[v] == depth:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            v = abs(p)
            seen[v] = False
            pending -= 1
            if not pending:
                break
            lits = reason[v][1:]
        learnt[0] = -p
        for q in learnt[1:]:
            seen[abs(q)] = False
        if len(learnt) == 1:
            return learnt, 0
        # watch the deepest of the rest, the last literal undone
        top = max(range(1, len(learnt)), key=lambda k: level[abs(learnt[k])])
        learnt[1], learnt[top] = learnt[top], learnt[1]
        return learnt, level[abs(learnt[1])]

    def backjump(to: int) -> None:
        nonlocal qhead, next_var
        stop = trail_lim[to]
        for lit in trail[stop:]:
            value[lit] = value[-lit] = 0
            v = abs(lit)
            reason[v] = None
            if v < next_var:
                next_var = v
        del trail[stop:]
        del trail_lim[to:]
        qhead = stop

    for lits in long_clauses:
        watches[lits[0]].append(lits)
        watches[lits[1]].append(lits)
    for lit in units:
        if value[lit] == -1:
            return None
        if not value[lit]:
            assign(lit, None)

    while True:
        conflict = propagate()
        if conflict is not None:
            if not trail_lim:
                return None
            if deadline is not None and time.monotonic() > deadline:
                raise DeadlineExceeded("wall clock budget")
            learnt, to = analyze(conflict)
            backjump(to)
            if len(learnt) > 1:
                watches[learnt[0]].append(learnt)
                watches[learnt[1]].append(learnt)
                assign(learnt[0], learnt)
            else:
                assign(learnt[0], None)
            continue
        while next_var <= n and value[next_var]:
            next_var += 1
        if next_var > n:
            return {v: value[v] == 1 for v in range(1, n + 1)}
        trail_lim.append(len(trail))
        assign(-next_var, None)


def to_dimacs(cs: PropClauseSet) -> str:
    """DIMACS CNF dump with atom names in comments."""
    lines = [f"c {i} {pred}({', '.join(names)})" if names else f"c {i} {pred}"
             for (pred, names), i in cs.table.items()]
    lines.append(f"p cnf {cs.atom_count} {len(cs.clauses)}")
    lines.extend(" ".join(str(l) for l in c) + " 0" for c in cs.clauses)
    return "\n".join(lines)


def entail_sat(p: Problem, limits: ResourceLimits = DEFAULT_LIMITS) -> Outcome:
    """dual_run by satisfiability: UNSAT(P and not C) / UNSAT(P and C)."""
    return dual_run(p, _prepare_grounding, limits)[0]


def _prepare_grounding(p: Problem, premises: list[Clause],
                       limits: ResourceLimits, deadline: float) -> Refute:
    """A refute that grounds and searches; UNSAT is a refutation that
    records no steps, and a model leaves the goal open.

    Every run takes the same two steps over its universe: the named
    constants and the skolem constants of the premises and of its own
    goal. It grounds the premises as a base, then grounds its goal on top
    of the base and hands both to dpll, so its clause set, literal budget
    and search are step for step those of the premises and goal grounded
    in one call. Runs whose goal brings no skolem constant of its own
    (the usual case) share one universe and one base, grounded at the
    first of them under the problem's deadline, so the premises are read
    in once per problem and copied per run. A goal with skolem constants
    of its own gets a base over them, grounded under the run's deadline.
    One universe for both runs would keep the verdicts, but each run's
    literal budget would then count instances over the other goal's
    constants.
    """
    constants = p.constants() | _clause_constants(premises)
    shared: Optional[PropClauseSet] = None  # the premises, once grounded

    def refute(goal: list[Clause], run_deadline: float) -> ProofResult:
        nonlocal shared
        universe = constants | _clause_constants(goal)
        if universe != constants:
            base = ground(premises, universe, limits, run_deadline)
        else:
            if shared is None:
                shared = ground(premises, constants, limits, deadline)
            base = shared
        cs = ground(goal, universe, limits, run_deadline, base)
        if dpll(cs, run_deadline, base) is None:
            return Proved((), ())
        return Saturated()

    return refute
