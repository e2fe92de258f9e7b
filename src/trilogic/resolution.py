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
down to one. Goal clauses are queued ahead of premise clauses, so
goal-directed inferences happen first, but premises do get selected too:
otherwise a contradiction sitting entirely inside the premises could never
surface, and dual_run relies on exactly that to report Inconsistent.

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


def saturate(premise_clauses: Iterable[Clause], goal_clauses: Iterable[Clause],
             limits: ResourceLimits = DEFAULT_LIMITS,
             deadline: Optional[float] = None) -> ProofResult:
    """Run the given-clause loop to the empty clause, saturation, or a limit.

    deadline is a time.monotonic() instant, by default wall_ms from now;
    past it the loop raises DeadlineExceeded. Saturation after a clause
    was dropped for having more than max_clause_literals literals, or a
    term nested deeper than MAX_NESTING_DEPTH, is not complete, so it ends
    in LimitReached.

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
    clauses: dict[int, Clause] = {}
    steps: dict[int, ProofStep] = {}
    premise_ids: list[int] = []
    goal_ids: list[int] = []
    seen: set[Clause] = set()
    for ids, source in ((premise_ids, premise_clauses), (goal_ids, goal_clauses)):
        for c in source:
            if c not in seen:
                seen.add(c)
                clauses[len(clauses) + 1] = c
                ids.append(len(clauses))

    def build_proof(empty_id: int) -> Proved:
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

    queued = goal_ids + premise_ids
    # an input is the empty clause only if the caller passed Clause() itself:
    # clausifying never makes one (p(A) & -p(A) gives two unit clauses)
    for i in queued:
        if clauses[i].is_empty():
            return build_proof(i)

    arrival = itertools.count()
    sos = [(len(clauses[i]), next(arrival), i) for i in queued]
    heapq.heapify(sos)
    usable: list[int] = []
    partners: defaultdict[tuple[str, bool], list[int]] = defaultdict(list)
    by_keys: defaultdict[frozenset, list[int]] = defaultdict(list)
    for i in queued:
        by_keys[_keys(clauses[i])].append(i)
    deleted: set[int] = set()
    generated = 0
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
            if generated > limits.max_generated_clauses:
                return LimitReached("generated clause budget")
            if clause is None or len(clause) > limits.max_clause_literals:
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
                return build_proof(cid)
            for group, members in by_keys.items():
                if clause_keys <= group:
                    doomed = {k for k in members if deletes(clause, clauses[k])}
                    if doomed:
                        deleted |= doomed
                        members[:] = [k for k in members if k not in doomed]
            by_keys[clause_keys].append(cid)
            heapq.heappush(sos, (len(clause), next(arrival), cid))
    if dropped:
        return LimitReached(dropped)
    return Saturated()


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
    return lambda goal, run_deadline: saturate(premises, goal, limits,
                                               run_deadline)


def entail_resolution(p: Problem, limits: ResourceLimits = DEFAULT_LIMITS) -> Outcome:
    return resolution_runs(p, limits)[0]
