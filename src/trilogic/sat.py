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
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional

from .fol import (
    Clause, Constant, DeadlineExceeded, ExecError, Function, Outcome,
    Problem, ResourceLimits, DEFAULT_LIMITS, Term, Variable, subterms,
)
# clausify_all is not called here; perfbench/tracer.py wraps it
from .normalize import SKOLEM_PREFIX, clausify_all
from .resolution import ProofResult, Proved, Refute, Saturated, dual_run

DUMMY_CONSTANT = "_c0"

# a value that a PropClauseSet has not worked out yet
_UNREAD: Any = object()

# instances and atoms that grounding looks at between two looks at the clock
_COMBOS_PER_CHECK = 1024

# the highest atom a set's clauses name, its unit literals, and its
# clauses of two or more literals, each without repeats or tautologies
_Intake = tuple[int, list[int], list[tuple[int, ...]]]


# A join step finds the atom of one negative literal, as (predicate, older,
# key, binds, checks). older: it reads only atoms numbered before the seed
# atom. key picks the atom's names off the row when the step binds no
# variable, else None. binds are the (argument position, row slot) pairs
# of the variables it binds, and checks those of the other arguments, whose
# names must equal the row's once binds are made.
_Step = tuple[str, bool, Optional[Callable], tuple[tuple[int, int], ...],
              tuple[tuple[int, int], ...]]

# a join: its steps, then the row slots of the variables that no step
# binds, which range over the whole universe
_Plan = tuple[tuple[_Step, ...], tuple[int, ...]]


class _Rule:
    """A clause compiled for instantiation.

    A row holds the values of the clause's variables, in sorted order, then
    its constants, and blank is the row with no variable set; each literal
    reads its atom's names off the row. closed: no negative literal holds a
    variable, so every instance has the same negative atoms. plans[j], once
    plan(j) made it, is the join that starts at an atom of the j-th
    negative literal and takes the others in clause order.
    """

    __slots__ = ("literals", "negative", "blank", "width", "closed", "plans")

    def __init__(self, clause: Clause) -> None:
        variables = sorted(clause.variables)
        width = self.width = len(variables)
        blank: list[Optional[str]] = [None] * width
        literals: list[tuple[bool, str, Callable]] = []
        negative: list[tuple[str, list[int], Callable]] = []
        closed = True
        for lit in clause:
            predicate, args = lit.atom.predicate, lit.atom.args
            slots = []
            for arg in args:
                if isinstance(arg, Variable):
                    slots.append(variables.index(arg.name))
                else:
                    _reject_functions(arg)
                    slots.append(len(blank))
                    blank.append(arg.name)
            pick = _picker(slots)
            literals.append((lit.positive, predicate, pick))
            if not lit.positive:
                negative.append((predicate, slots, pick))
                if closed and slots and min(slots) < width:
                    closed = False
        self.literals, self.negative, self.blank = literals, negative, blank
        self.closed = closed
        self.plans: list[Optional[_Plan]] = [None] * len(negative)

    def plan(self, seed: int) -> _Plan:
        """Make plans[seed]. The steps before the seed literal's read older
        atoms, so an instance is made at its first literal on its newest
        negative atom."""
        width = self.width
        bound = [False] * width
        steps = []
        for k in (seed, *range(seed), *range(seed + 1, len(self.negative))):
            predicate, slots, pick = self.negative[k]
            binds: list[tuple[int, int]] = []
            checks: list[tuple[int, int]] = []
            for p, s in enumerate(slots):
                if s < width and not bound[s]:
                    bound[s] = True
                    binds.append((p, s))
                else:
                    checks.append((p, s))
            steps.append((predicate, k < seed, None if binds else pick,
                          tuple(binds), tuple(checks)))
        plan = self.plans[seed] = (
            tuple(steps), tuple([s for s in range(width) if not bound[s]]))
        return plan


def _wait(rule: _Rule, waiting: dict[str, list[tuple[_Rule, int]]]) -> None:
    """File each negative literal of rule, as (rule, j), under its
    predicate."""
    for j, (predicate, _, _) in enumerate(rule.negative):
        if predicate in waiting:
            waiting[predicate].append((rule, j))
        else:
            waiting[predicate] = [(rule, j)]


@dataclass
class PropClauseSet:
    """Ground clauses as DIMACS-style signed 1-based indices.

    table maps each ground atom, as its plain (predicate, names) tuple, to
    its index, in the order the indices were handed out. In a grounding,
    these are the possibly true atoms: each occurs positively in an
    instance made. rules are the compiled clauses it read whose instances
    may still wait for an atom, its base's first, so that a grounding on
    top of it goes on with the same fixpoint. A set is not changed once
    built: what ground and dpll read off a base set is worked out once, on
    first use, and kept on it.
    """

    clauses: list[tuple[int, ...]]
    atom_count: int
    table: dict[tuple[str, tuple[str, ...]], int]
    rules: tuple[_Rule, ...] = field(default=(), compare=False, repr=False)

    # what ground and dpll read off a base, worked out on first read and
    # kept on the set: class defaults, not fields. Not
    # functools.cached_property, which on Python 3.10 and 3.11 takes one
    # lock shared by every set on each first read.
    _kept_instances = _kept_literal_count = _kept_intake = _UNREAD
    _kept_fixpoint = _UNREAD

    @property
    def _instances(self) -> frozenset[tuple[int, ...]]:
        v = self._kept_instances
        if v is _UNREAD:
            v = self._kept_instances = frozenset(self.clauses)
        return v

    @property
    def _literal_count(self) -> int:
        v = self._kept_literal_count
        if v is _UNREAD:
            v = self._kept_literal_count = sum(map(len, self.clauses))
        return v

    @property
    def _intake(self) -> Optional[_Intake]:
        v = self._kept_intake
        if v is _UNREAD:
            v = self._kept_intake = _take_in(self.clauses)
        return v

    @property
    def _fixpoint(self) -> tuple[dict[str, list[tuple[int, tuple[str, ...]]]],
                                 dict[str, list[tuple[_Rule, int]]]]:
        """Each predicate's atoms, as (index, names) in index order, and
        its waiting negative literals, as _wait files them."""
        v = self._kept_fixpoint
        if v is not _UNREAD:
            return v
        atoms: dict[str, list[tuple[int, tuple[str, ...]]]] = {}
        for (predicate, names), idx in self.table.items():
            if predicate in atoms:
                atoms[predicate].append((idx, names))
            else:
                atoms[predicate] = [(idx, names)]
        waiting: dict[str, list[tuple[_Rule, int]]] = {}
        for rule in self.rules:
            _wait(rule, waiting)
        self._kept_fixpoint = atoms, waiting
        return atoms, waiting


# the base of a grounding or a search that extends no other
_EMPTY = PropClauseSet([], 0, {})


def ground(clauses: Iterable[Clause], constants: Iterable[str],
           limits: ResourceLimits = DEFAULT_LIMITS,
           deadline: Optional[float] = None,
           base: Optional[PropClauseSet] = None) -> PropClauseSet:
    """Instantiate the clauses bottom-up over the sorted universe: make an
    instance only once the atom of each of its negative literals is
    possibly true, that is, occurs positively in an instance made already.
    Setting every atom the grounding never numbers to False satisfies each
    instance left out, so the grounding is satisfiable exactly when the
    full instantiation is. A variable that no negative literal holds ranges
    over the whole universe.

    Clauses are read in order, each compiled once into a _Rule, and reading
    one makes its instances that are ready by then. An atom is numbered
    when an instance first holds it, and atoms are taken up in index order:
    each completes the waiting instances whose newest negative atom it is.
    So each instance is made once, in an order set by the clauses and the
    universe alone, and a clause with no variable in a negative literal,
    whose negative atoms are possibly true when it is read, grounds as full
    instantiation does. deadline is a time.monotonic() instant, by default
    wall_ms from now, checked every _COMBOS_PER_CHECK instances and atoms
    looked at; past it grounding raises DeadlineExceeded.

    base is an earlier grounding over the same constants that these clauses
    extend, as a problem's goal extends its premises; none reads as a base
    with no clauses. The grounding goes on with base's fixpoint: an atom of
    these clauses can complete base's waiting instances, which then belong
    to the result. The result numbers its atoms on from a copy of base's
    table and holds only the instances base lacks, and the literal budget
    counts base's literals too, so base's clauses followed by the result's
    are the grounding of base's clauses and these in one call. What ground
    reads off base is worked out once per base and read in place, so each
    goal grounded on the premises copies only the atom table.
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
    literal_budget = limits.max_ground_literals
    base_atoms, base_waiting = base._fixpoint
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    rules: list[_Rule] = []
    # the atoms base lacks: numbered, and those taken up by predicate
    numbered: list[tuple[str, tuple[str, ...]]] = []
    own_atoms: dict[str, list[tuple[int, tuple[str, ...]]]] = {}
    own_waiting: dict[str, list[tuple[_Rule, int]]] = {}
    ticks = _COMBOS_PER_CHECK  # so that the first instance reads the clock

    def make(literals: list, row: list) -> bool:
        """Make the instance that row gives, unless it is a tautology or
        made already; False, and nothing made, if one of its negative
        atoms is not possibly true."""
        nonlocal total_literals, ticks
        ticks += 1
        if ticks >= _COMBOS_PER_CHECK:
            ticks = 0
            _check_clock(deadline)
        fresh = len(numbered)
        signed: list[int] = []
        for positive, predicate, pick in literals:
            key = (predicate, pick(row))
            idx = table.get(key)
            if idx is None:
                if not positive:
                    break
                idx = table[key] = len(table) + 1
                numbered.append(key)
            s = idx if positive else -idx
            if -s in signed:
                break  # a tautology
            if s not in signed:
                signed.append(s)
        else:
            # no tautology, so abs alone orders the literals
            instance = tuple(sorted(signed, key=abs))
            if instance in seen or instance in known:
                return True  # so it holds no new atom
            seen.add(instance)
            total_literals += len(instance)
            if total_literals > literal_budget:
                raise ExecError("grounding budget exceeded")
            out.append(instance)
            return True
        # the instance's new atoms are not possibly true
        for key in numbered[fresh:]:
            del table[key]
        del numbered[fresh:]
        return idx is not None

    def join(rule: _Rule, plan: _Plan, k: int, row: list, seed: int) -> None:
        """Make each instance that completes row from step k of plan on,
        from atoms numbered seed or lower (below seed in an older step)."""
        nonlocal ticks
        steps, free = plan
        while k < len(steps):
            predicate, older, key, binds, checks = steps[k]
            if key is None:
                break
            idx = table.get((predicate, key(row)))
            if idx is None or idx > seed - older:
                return
            k += 1
        else:
            if free:
                for names in itertools.product(universe, repeat=len(free)):
                    for s, name in zip(free, names):
                        row[s] = name
                    make(rule.literals, row)
            else:
                make(rule.literals, row)
            return
        limit = seed - older
        for atoms in (base_atoms.get(predicate, ()),
                      own_atoms.get(predicate, ())):
            ticks += len(atoms)
            if ticks >= _COMBOS_PER_CHECK:
                ticks = 0
                _check_clock(deadline)
            for idx, names in atoms:
                if idx > limit:
                    break
                for p, s in binds:
                    row[s] = names[p]
                for p, s in checks:
                    if names[p] != row[s]:
                        break
                else:
                    join(rule, plan, k + 1, row, seed)

    done = start = len(table)  # the atoms taken up
    try:
        for clause in clauses:
            rule = _Rule(clause)
            if rule.closed:
                # every instance holds the same negative atoms, so one that
                # is not ready leaves the clause waiting for them
                fixed = tuple(rule.blank[rule.width:])
                for names in itertools.product(universe, repeat=rule.width):
                    if not make(rule.literals, names + fixed):
                        rules.append(rule)
                        _wait(rule, own_waiting)
                        break
            else:
                rules.append(rule)
                _wait(rule, own_waiting)
                first = rule.negative[0][0]  # the predicate plan(0) reads first
                if first in own_atoms or first in base_atoms:
                    join(rule, rule.plan(0), 0, list(rule.blank), done)
            while done < len(table):
                predicate, names = numbered[done - start]
                done += 1
                if predicate in own_atoms:
                    own_atoms[predicate].append((done, names))
                else:
                    own_atoms[predicate] = [(done, names)]
                for waiting in (base_waiting.get(predicate),
                                own_waiting.get(predicate)):
                    if not waiting:
                        continue
                    ticks += len(waiting)
                    if ticks >= _COMBOS_PER_CHECK:
                        ticks = 0
                        _check_clock(deadline)
                    for rule, j in waiting:
                        plan = rule.plans[j] or rule.plan(j)
                        _, _, _, binds, checks = plan[0][0]
                        row = list(rule.blank)
                        for p, s in binds:
                            row[s] = names[p]
                        for p, s in checks:
                            if names[p] != row[s]:
                                break
                        else:
                            join(rule, plan, 1, row, done)
    finally:
        # join calls itself through its own cell; emptying the cell breaks
        # that cycle, so reference counting frees the grounding's working
        # state on return or raise
        del join
    cs = PropClauseSet(out, len(table), table, base.rules + tuple(rules))
    if base is _EMPTY:
        # cs holds only its own atoms and rules, so a grounding on top of
        # it reads these indexes as they are
        cs._kept_fixpoint = own_atoms, own_waiting
    return cs


def _check_clock(deadline: float) -> None:
    if time.monotonic() > deadline:
        raise DeadlineExceeded("wall clock budget")


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
    in one call. Grounding the goal goes on with the base's fixpoint: the
    premise instances that a goal atom completes are that run's, and
    count against its literal budget. Runs whose goal brings no skolem constant of its own
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
