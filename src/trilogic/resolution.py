"""Given-clause resolution prover, and dual_run, the entailment driver that
resolution and sat share.

The saturation loop keeps two clause lists: `usable` holds clauses already
selected, `sos` holds clauses waiting their turn. Each round moves the
lightest sos clause over, resolves it against every usable clause
(including itself) on eligible literals, and factors it. Resolution uses a
fixed selection function (`eligible`): a clause with a negative literal
resolves only on its selected literal, the first negative one; a clause
with none resolves on every literal. Factoring is unrestricted: every
unifiable same-sign pair. Selection keeps resolution refutationally
complete, with subsumption as the redundancy criterion, and it cuts the k!
orders in which a rule with k negative literals could meet its partners
down to one.

dual_run's two runs of a problem share one PremiseBase: the premise clauses
saturated alone, once per problem, inside the first run's saturate call.
Each run then resumes a copy of that loop with its goal clauses queued on
top, so no premise-with-premise inference is made twice. This keeps the
search complete by the set-of-support argument: a saturated, consistent
premise set plus the goal as support is refutationally complete, and
premises that refute themselves answer both runs with that proof, which
dual_run reports as Inconsistent. A base is tried only when no premise
clause holds a function term and only up to BASE_GENERATED_CAP generated
clauses; where it is not tried or stops short, each run is the joined
run, which queues the goal clauses ahead of the premise clauses in one
loop, so goal-directed inferences happen first while the premises still
get selected.

Subsumption deletes both ways under one rule (`deletes`): a new clause that
a kept clause deletes is dropped, and a kept new clause deletes every kept
clause it subsumes, so that clause is never selected or offered as a
partner again.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from .fol import (
    Answered, Atom, Clause, Constant, DeadlineExceeded, ExecFailed,
    ExecError, Function, Inconsistent, Literal, MAX_NESTING_DEPTH, Not,
    Outcome, Problem, ResourceLimits, DEFAULT_LIMITS, Term, Truth, Variable,
    Verdict, clause_substitute, substitute_term, subterms,
)
from .normalize import clausify_all, skolem_supply, variable_supply


# ---------------------------------------------------------------------------
# Unification and matching


def unify(a: Atom, b: Atom) -> Optional[dict[str, Term]]:
    """Most general unifier of two atoms, or None. Occurs check included."""
    if a.predicate != b.predicate or len(a.args) != len(b.args):
        return None
    sub: dict[str, Term] = {}
    stack = list(zip(a.args, b.args))
    while stack:
        s, t = stack.pop()
        s = substitute_term(s, sub)
        t = substitute_term(t, sub)
        if s == t:
            continue
        if isinstance(s, Variable):
            if s in subterms(t):
                return None
            _bind(sub, s.name, t)
        elif isinstance(t, Variable):
            if t in subterms(s):
                return None
            _bind(sub, t.name, s)
        elif (isinstance(s, Function) and isinstance(t, Function)
              and s.name == t.name and len(s.args) == len(t.args)):
            stack.extend(zip(s.args, t.args))
        else:
            return None
    return sub


def _bind(sub: dict[str, Term], var: str, term: Term) -> None:
    # keep the substitution idempotent: fold the new binding into old values
    one = {var: term}
    for v in list(sub):
        sub[v] = substitute_term(sub[v], one)
    sub[var] = term


def _match(pattern: Atom, target: Atom, sub: dict[str, Term]) -> Optional[dict[str, Term]]:
    """One-way matching: bind only the pattern's variables."""
    if pattern.predicate != target.predicate or len(pattern.args) != len(target.args):
        return None
    out = dict(sub)
    stack = list(zip(pattern.args, target.args))
    while stack:
        s, t = stack.pop()
        if isinstance(s, Variable):
            if s.name in out:
                if out[s.name] != t:
                    return None
            else:
                out[s.name] = t
        elif isinstance(s, Constant):
            if s != t:
                return None
        elif isinstance(s, Function):
            if not (isinstance(t, Function) and t.name == s.name
                    and len(t.args) == len(s.args)):
                return None
            stack.extend(zip(s.args, t.args))
        else:
            return None
    return out


# ---------------------------------------------------------------------------
# Inference rules


def _renaming(left: Clause, right: Clause) -> dict[str, Term]:
    """The variable renaming that rename_apart applies to right."""
    left_vars = left.variables
    taken = left_vars | right.variables
    ren: dict[str, Term] = {}
    k = 0
    for v in sorted(right.variables):
        if v in left_vars:
            while f"_r{k}" in taken:
                k += 1
            ren[v] = Variable(f"_r{k}")
            k += 1
    return ren


def rename_apart(left: Clause, right: Clause) -> Clause:
    """Rename right's variables away from left's, deterministically.

    Trace replay recomputes this renaming, so it must be a pure function
    of the two clauses.
    """
    ren = _renaming(left, right)
    return clause_substitute(right, ren) if ren else right


def _too_deep(literals: list[Literal] | Clause, sub: dict[str, Term]) -> bool:
    """Whether a term of literals under sub nests deeper than
    MAX_NESTING_DEPTH, so that sorting the clause's literals would recurse
    through every level. A unifier that binds no function term (sub is
    idempotent) cannot deepen a clause, and is not walked."""
    if not any(isinstance(t, Function) for t in sub.values()):
        return False
    stack = [(a, 0) for l in literals for a in l.atom.args]
    while stack:
        t, depth = stack.pop()
        t = sub.get(t.name, t) if isinstance(t, Variable) else t
        if isinstance(t, Function):
            if depth == MAX_NESTING_DEPTH:
                return True
            stack.extend((a, depth + 1) for a in t.args)
    return False


def eligible(c: Clause) -> tuple[Literal, ...]:
    """The literals resolution may resolve c on: its selected literal, the
    first negative one in Clause order, if it has one; else all of them."""
    for l in c:
        if not l.positive:
            return (l,)
    return c.literals


@dataclass(frozen=True)
class ProofStep:
    """One inference. resolvents and factors give it unnumbered (index 0,
    no parents); saturate numbers the steps whose clauses it keeps."""

    index: int
    rule: str  # "resolve" or "factor"
    parents: tuple[int, ...]
    left_literal: Literal
    right_literal: Literal
    unifier: tuple[tuple[str, Term], ...]
    clause: Optional[Clause]  # None: too deep to build, see _too_deep

    def __str__(self):
        sub = ", ".join(f"{v} -> {t}" for v, t in self.unifier)
        args = ", ".join(str(p) for p in self.parents)
        return f"step {self.index}: {self.rule}({args}) with {{{sub}}} => {self.clause}"


def _inference(rule: str, literals: list[Literal] | Clause, left: Literal,
               right: Literal, sub: dict[str, Term]) -> Optional[ProofStep]:
    """The unnumbered step that derives literals under sub, or None if that
    is a tautology. Its clause is None when too deep to build (_too_deep)."""
    clause = None if _too_deep(literals, sub) else clause_substitute(literals, sub)
    if clause is not None and clause.is_tautology():
        return None
    return ProofStep(0, rule, (), left, right, tuple(sorted(sub.items())), clause)


def resolvents(c1: Clause, c2: Clause) -> list[ProofStep]:
    """The binary resolvents of c1 and c2 on eligible literals, tautologies
    dropped, as unnumbered steps.

    c2's eligible literals are picked on c2 as stored and then renamed:
    the renamed copy is sorted anew, so its first negative literal may be
    another one.
    """
    ren = _renaming(c1, c2)
    c2r = clause_substitute(c2, ren) if ren else c2
    picked = eligible(c2)
    if len(picked) == len(c2):
        picked = c2r.literals
    elif ren:
        picked = clause_substitute(picked, ren).literals
    out: list[ProofStep] = []
    for l1 in eligible(c1):
        for l2 in picked:
            if l1.positive == l2.positive:
                continue
            sub = unify(l1.atom, l2.atom)
            if sub is None:
                continue
            rest = [l for l in c1 if l != l1] + [l for l in c2r if l != l2]
            step = _inference("resolve", rest, l1, l2, sub)
            if step is not None:
                out.append(step)
    return out


def factors(c: Clause) -> list[ProofStep]:
    """Factors of c, as unnumbered steps: one for every unifiable same-sign
    literal pair."""
    out: list[ProofStep] = []
    for first, second in itertools.combinations(c.literals, 2):
        if first.positive != second.positive:
            continue
        sub = unify(first.atom, second.atom)
        if sub is None:
            continue
        step = _inference("factor", c, first, second, sub)
        if step is not None:
            out.append(step)
    return out


def subsumes(c1: Clause, c2: Clause) -> bool:
    """True iff some substitution maps c1's literals into a subset of c2's."""
    lits2 = c2.literals

    def backtrack(i: int, sub: dict[str, Term]) -> bool:
        if i == len(c1.literals):
            return True
        l1 = c1.literals[i]
        for l2 in lits2:
            if l2.positive != l1.positive:
                continue
            extended = _match(l1.atom, l2.atom, sub)
            if extended is not None and backtrack(i + 1, extended):
                return True
        return False

    return backtrack(0, {})


def deletes(c1: Clause, c2: Clause) -> bool:
    """The subsumption deletion rule of saturate: c1 subsumes c2 and has no
    more literals than c2.

    The length bound keeps a clause from deleting its own factors:
    p(x) | p(y) subsumes its factor p(y), yet the factor is what a
    refutation needs, so the factor deletes p(x) | p(y) and not the other
    way round.
    """
    return len(c1) <= len(c2) and subsumes(c1, c2)


# ---------------------------------------------------------------------------
# Saturation


@dataclass(frozen=True)
class Proved:
    steps: tuple[ProofStep, ...]
    inputs: tuple[tuple[int, Clause], ...]


@dataclass(frozen=True)
class Saturated:
    pass


@dataclass(frozen=True)
class LimitReached:
    reason: str


ProofResult = Proved | Saturated | LimitReached


def _keys(literals: Iterable[Literal]) -> frozenset[tuple[str, bool]]:
    return frozenset((l.atom.predicate, l.positive) for l in literals)


class _Loop:
    """The state of one given-clause loop, which saturate runs.

    clauses and steps number every kept clause, and inputs holds the input
    clauses, each numbered once. usable, partners, by_keys, deleted and
    sos are the lists and indexes that saturate's docstring describes;
    arrivals counts the clauses pushed on sos and generated the
    inferences made. A loop that ran to saturation can take more inputs
    and run on from where it stopped, which is how a PremiseBase is
    resumed; a run that ends any other way leaves the loop spent.
    """

    def __init__(self) -> None:
        self.clauses: dict[int, Clause] = {}
        self.steps: dict[int, ProofStep] = {}
        self.inputs: set[Clause] = set()
        self.usable: list[int] = []
        self.partners: defaultdict[tuple[str, bool], list[int]] = defaultdict(list)
        self.by_keys: defaultdict[frozenset, list[int]] = defaultdict(list)
        self.deleted: set[int] = set()
        self.sos: list[tuple[int, int, int]] = []
        self.arrivals = 0
        self.generated = 0

    def copy(self) -> _Loop:
        other = _Loop()
        other.clauses = dict(self.clauses)
        other.steps = dict(self.steps)
        other.inputs = set(self.inputs)
        other.usable = list(self.usable)
        other.partners = defaultdict(list, {k: list(v) for k, v in self.partners.items()})
        other.by_keys = defaultdict(list, {k: list(v) for k, v in self.by_keys.items()})
        other.deleted = set(self.deleted)
        other.sos = list(self.sos)
        other.arrivals = self.arrivals
        other.generated = self.generated
        return other

    def add(self, source: Iterable[Clause]) -> list[int]:
        """Number the clauses of source that are not inputs yet as inputs;
        their ids, in order."""
        ids: list[int] = []
        for c in source:
            if c not in self.inputs:
                self.inputs.add(c)
                ids.append(len(self.clauses) + 1)
                self.clauses[ids[-1]] = c
        return ids

    def queue(self, ids: list[int]) -> Optional[Proved]:
        """Queue input ids on sos in this order; the proof if one of them is
        the empty clause."""
        # an input is the empty clause only if the caller passed Clause()
        # itself: clausifying never makes one (p(A) & -p(A) gives two units)
        for i in ids:
            if self.clauses[i].is_empty():
                return self.proof(i)
        for i in ids:
            heapq.heappush(self.sos, (len(self.clauses[i]), self.arrivals, i))
            self.arrivals += 1
            self.by_keys[_keys(self.clauses[i])].append(i)
        return None

    def proof(self, empty_id: int) -> Proved:
        steps, clauses = self.steps, self.clauses
        wanted: set[int] = set()
        stack = [empty_id]
        while stack:
            i = stack.pop()
            if i in wanted:
                continue
            wanted.add(i)
            if i in steps:
                stack.extend(steps[i].parents)
        used_steps = tuple(steps[i] for i in sorted(wanted) if i in steps)
        used_inputs = tuple((i, clauses[i]) for i in sorted(wanted) if i not in steps)
        return Proved(used_steps, used_inputs)

    def run(self, max_generated: int, max_literals: int,
            deadline: float) -> ProofResult:
        """Run the loop to the empty clause, saturation, or a limit: past
        max_generated inferences in all, or past the deadline (raises
        DeadlineExceeded). A clause over max_literals literals is dropped."""
        clauses, steps, usable, partners, by_keys, deleted, sos = (
            self.clauses, self.steps, self.usable, self.partners,
            self.by_keys, self.deleted, self.sos)
        arrival, generated = self.arrivals, self.generated
        dropped = ""  # the reason for the last clause dropped

        while sos:
            if time.monotonic() > deadline:
                raise DeadlineExceeded("wall clock budget")
            given_id = heapq.heappop(sos)[2]
            if given_id in deleted:
                continue
            given = clauses[given_id]
            given_keys = _keys(eligible(given))
            for key in given_keys:
                partners[key].append(len(usable))
            usable.append(given_id)

            positions: set[int] = set()
            for predicate, positive in given_keys:
                positions.update(partners.get((predicate, not positive), ()))
            # (parents, unnumbered step) per inference of this round
            new: list[tuple[tuple[int, ...], ProofStep]] = []
            for partner_id in (usable[p] for p in sorted(positions)):
                if partner_id in deleted:
                    continue
                parents = (given_id, partner_id)
                new.extend((parents, r) for r in resolvents(given, clauses[partner_id]))
            new.extend(((given_id,), fa) for fa in factors(given))

            for parents, step in new:
                clause = step.clause
                generated += 1
                if generated > max_generated:
                    return LimitReached("generated clause budget")
                if clause is None or len(clause) > max_literals:
                    dropped = ("term nesting limit" if clause is None
                               else "clause literal limit")
                    continue
                clause_keys = _keys(clause)
                if any(deletes(clauses[k], clause)
                       for group, members in by_keys.items() if group <= clause_keys
                       for k in members):
                    continue
                cid = len(clauses) + 1
                clauses[cid] = clause
                steps[cid] = replace(step, index=cid, parents=parents)
                if clause.is_empty():
                    return self.proof(cid)
                for group, members in by_keys.items():
                    if clause_keys <= group:
                        doomed = {k for k in members if deletes(clause, clauses[k])}
                        if doomed:
                            deleted |= doomed
                            members[:] = [k for k in members if k not in doomed]
                by_keys[clause_keys].append(cid)
                heapq.heappush(sos, (len(clause), arrival, cid))
                arrival += 1
        if dropped:
            return LimitReached(dropped)
        self.arrivals, self.generated = arrival, generated
        return Saturated()


# a premise base stops past this many generated clauses (or past
# limits.max_generated_clauses, if lower), and each run goes joined
BASE_GENERATED_CAP = 256


class PremiseBase:
    """One problem's premise clauses, saturated once for the runs that
    resume on them.

    The first saturate call that passes the base builds it, from its own
    premise_clauses and under its own limits and deadline, so the work is
    that call's. The premises are saturated alone, with nothing else
    queued, only when no premise clause holds a function term (so no term
    can grow), and only up to BASE_GENERATED_CAP generated clauses. If
    that ends in saturation, every run resumes a copy of the loop; if it
    refutes the premises, every run answers with that proof. If it stops
    for any other reason (the cap, a dropped clause or the clock), or is
    not tried, every run is saturate's joined run.
    """

    def __init__(self) -> None:
        self._built = False
        self._start: _Loop | Proved | None = None  # None: each run joined

    def start(self, premise_clauses: Iterable[Clause], limits: ResourceLimits,
              deadline: float) -> _Loop | Proved | None:
        """A fresh copy of the saturated premise loop, their refutation, or
        None for a joined run."""
        if not self._built:
            self._built = True
            self._start = _saturate_premises(list(premise_clauses), limits,
                                             deadline)
        if isinstance(self._start, _Loop):
            return self._start.copy()
        return self._start


def _saturate_premises(premises: list[Clause], limits: ResourceLimits,
                       deadline: float) -> _Loop | Proved | None:
    if any(isinstance(t, Function) for c in premises for l in c
           for t in l.atom.args):
        return None
    loop = _Loop()
    try:
        result = loop.queue(loop.add(premises)) or loop.run(
            min(BASE_GENERATED_CAP, limits.max_generated_clauses),
            limits.max_clause_literals, deadline)
    except DeadlineExceeded:
        return None
    if isinstance(result, Saturated):
        return loop
    return result if isinstance(result, Proved) else None


def saturate(premise_clauses: Iterable[Clause], goal_clauses: Iterable[Clause],
             limits: ResourceLimits = DEFAULT_LIMITS,
             deadline: Optional[float] = None,
             base: Optional[PremiseBase] = None) -> ProofResult:
    """Run the given-clause loop to the empty clause, saturation, or a limit.

    deadline is a time.monotonic() instant, by default wall_ms from now;
    past it the loop raises DeadlineExceeded. Saturation after a clause
    was dropped for having more than max_clause_literals literals, or a
    term nested deeper than MAX_NESTING_DEPTH, is not complete, so it ends
    in LimitReached.

    The joined run numbers the premise clauses, then the goal clauses,
    each distinct clause once, and queues the goal clauses ahead of the
    premises. base, shared by the runs of one problem that all pass the
    same premise_clauses, holds the premises saturated once (see
    PremiseBase): the run then resumes a copy of that loop with its goal
    clauses queued on top, numbered after the base's clauses, skipping a
    goal clause that is already a premise. Its generated clause count
    starts from the base's, so max_generated_clauses counts the same
    inferences as in the joined run. Where base holds no saturated loop,
    the run is the joined one.

    A new clause that a kept clause `deletes` is dropped. A kept new clause
    deletes every kept clause it `deletes`: a deleted clause leaves its
    by_keys group, is skipped as a partner in usable and when it comes off
    the sos heap, but stays in clauses and steps, so a proof that used it
    before the deletion still builds and replays.

    A given clause resolves only on its eligible literals (its selected
    negative literal, or all of them if it has none) and is factored on
    every same-sign pair.

    Three indexes skip only work that yields nothing, so clause ids, proofs
    and the points where limits fire are those of the plain loop that scans
    every clause, under the same selection and deletion rule:
    - partners: (predicate, sign) of an eligible literal -> positions in
      usable. A given clause meets only usable clauses with an eligible
      literal complementary to one of its own, in usable order.
    - by_keys: the live kept clauses grouped by their (predicate, sign)
      sets. A clause can subsume another only if its set is a subset of
      the other's, so only those groups are tried, in both directions.
    - sos is a heap on (literals, arrival): lightest first, FIFO on ties.
    """
    if deadline is None:
        deadline = limits.deadline()
    start = None if base is None else base.start(premise_clauses, limits, deadline)
    if isinstance(start, Proved):
        return start
    if start is None:
        loop = _Loop()
        premise_ids = loop.add(premise_clauses)
        queued = loop.add(goal_clauses) + premise_ids
    else:
        loop = start
        queued = loop.add(goal_clauses)
    return loop.queue(queued) or loop.run(limits.max_generated_clauses,
                                          limits.max_clause_literals, deadline)


# ---------------------------------------------------------------------------
# Trace rendering and replay


def render_trace(proof: Proved) -> str:
    lines = [f"clause {i}: {c}" for i, c in proof.inputs]
    lines.extend(str(s) for s in proof.steps)
    return "\n".join(lines)


def replay_trace(proof: Proved) -> bool:
    """Re-derive every step from its parents; True iff all match and the
    final step yields the empty clause."""
    clauses: dict[int, Clause] = dict(proof.inputs)
    for step in proof.steps:
        sub = dict(step.unifier)
        if step.rule == "resolve":
            left, right = (clauses[p] for p in step.parents)
            right = rename_apart(left, right)
            if step.left_literal not in left or step.right_literal not in right:
                return False
            rest = [l for l in left if l != step.left_literal] + \
                   [l for l in right if l != step.right_literal]
            derived = clause_substitute(rest, sub)
        elif step.rule == "factor":
            parent = clauses[step.parents[0]]
            if step.left_literal not in parent or step.right_literal not in parent:
                return False
            derived = clause_substitute(parent, sub)
        else:
            return False
        if derived != step.clause:
            return False
        clauses[step.index] = step.clause
    if proof.steps:
        return proof.steps[-1].clause.is_empty()
    return any(c.is_empty() for _, c in proof.inputs)


# ---------------------------------------------------------------------------
# Entailment

# an engine's refute(goal clauses, run deadline), which prepare(problem,
# premise clauses, limits, problem deadline) sets up for one problem
Refute = Callable[[list[Clause], float], ProofResult]


def dual_run(p: Problem,
             prepare: Callable[[Problem, list[Clause], ResourceLimits, float],
                               Refute],
             limits: ResourceLimits = DEFAULT_LIMITS
             ) -> tuple[Outcome, Optional[ProofResult], Optional[ProofResult]]:
    """Decide p as Logic-LM drives Prover9: refute P and not C, then P and C.

    The one entailment driver of resolution and sat. The premises and both
    goals are clausified once, under the problem's deadline. The runs share
    one wall_ms budget: the first stops at half of it, the second at all of
    it, so a first run that never ends cannot starve the second, and one
    that ends early hands its leftover time on. A run is refuted (Proved),
    open (Saturated) or undecided (LimitReached, or DeadlineExceeded
    raised). Both refuted is Inconsistent, one refuted True (P and not C)
    or False (P and C), both open Unknown, the rest a resource-limited
    Unknown. An ExecError is ExecFailed, and a DeadlineExceeded while
    clausifying a resource-limited Unknown, both with no runs.
    """
    first_deadline, deadline = limits.deadline(0.5), limits.deadline()
    var_supply, sk_supply = variable_supply(), skolem_supply()
    try:
        premises, neg_goal, pos_goal = (
            clausify_all(formulas, var_supply, sk_supply, limits, deadline)
            for formulas in (p.premises, [Not(p.conclusion)], [p.conclusion]))
        refute = prepare(p, premises, limits, deadline)
        runs: list[ProofResult] = []
        for goal, run_deadline in ((neg_goal, first_deadline),
                                   (pos_goal, deadline)):
            try:
                runs.append(refute(goal, run_deadline))
            except DeadlineExceeded:
                runs.append(LimitReached("wall clock budget"))
    except ExecError as e:
        return ExecFailed(str(e)), None, None
    except DeadlineExceeded:
        return Answered(Verdict(Truth.UNKNOWN, resource_limited=True)), None, None

    proves_c, proves_not_c = (isinstance(run, Proved) for run in runs)
    if proves_c and proves_not_c:
        return Inconsistent(), *runs
    if proves_c or proves_not_c:
        return Answered(Verdict(Truth.TRUE if proves_c else Truth.FALSE)), *runs
    limited = not all(isinstance(run, Saturated) for run in runs)
    return Answered(Verdict(Truth.UNKNOWN, resource_limited=limited)), *runs


def resolution_runs(p: Problem, limits: ResourceLimits = DEFAULT_LIMITS
                    ) -> tuple[Outcome, Optional[ProofResult], Optional[ProofResult]]:
    """dual_run by saturation: the outcome plus both saturation results
    (prove-C side, prove-not-C side)."""
    return dual_run(p, _prepare_saturation, limits)


def _prepare_saturation(p: Problem, premises: list[Clause],
                        limits: ResourceLimits, deadline: float) -> Refute:
    """A refute that saturates each goal on one PremiseBase of the
    problem's premises, built inside the first run's saturate call under
    that run's deadline."""
    base = PremiseBase()
    return lambda goal, run_deadline: saturate(premises, goal, limits,
                                               run_deadline, base)


def entail_resolution(p: Problem, limits: ResourceLimits = DEFAULT_LIMITS) -> Outcome:
    return resolution_runs(p, limits)[0]
