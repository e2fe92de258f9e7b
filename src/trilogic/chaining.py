"""Forward chaining over typed ground facts, in the style of a rule engine.

Facts are (predicate, constant args, truth) triples; rules fire by joining
body literals against the fact store until a fixpoint. Negation exists only
as an explicit False truth slot, so deriving both p(A)=True and p(A)=False
is a hard contradiction rather than a logical signal, and a query absent
from the fixpoint is Unknown; the closed-world reading of that Unknown is
harness.apply_world_assumption's, as for every engine.

The engine reads any Problem inside the rule fragment: ground literal
premises, premises `all x... (L1 & ... & Lk -> L)` over literals whose
arguments are constants or variables, with every head variable bound in
the body and k at most MAX_NESTING_DEPTH (the join recurses once per
body literal), and a literal conclusion. Anything else is an ExecError.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .fol import (
    MAX_NESTING_DEPTH, And, Answered, Atom, Constant, DeadlineExceeded,
    ExecError, ExecFailed, ForAll, Formula, Implies, Inconsistent, Not,
    Outcome, Problem, ResourceLimits, DEFAULT_LIMITS, Truth, Variable, Verdict,
)

Fact = tuple[str, tuple[str, ...], bool]

# a compiled literal: (predicate, truth, argument codes); a code is a
# variable's slot in the rule's binding (int) or a constant's name (str)
_Code = int | str
_Compiled = tuple[str, bool, tuple[_Code, ...]]
# a fact's index key: (predicate, truth, arity)
_Key = tuple[str, bool, int]

# a key's argument index: (argument position, constant) -> the ascending
# positions, in the key's fact list, of the facts that hold that constant
# there
_ArgIndex = dict[tuple[int, str], list[int]]

# a compiled rule: (body, head, number of variable slots)
_Rule = tuple[tuple[_Compiled, ...], _Compiled, int]
# a join step: match these codes against facts[lo:hi], the facts of key
_Step = tuple[list[tuple[str, ...]], int, int, tuple[_Code, ...], _Key]

# join probes between two looks at the clock
_PROBES_PER_CHECK = 4096
# a join step scans a slice this short rather than read the argument
# index: on small stores the lookup costs more than the facts it skips
_SCAN_AT_MOST = 8


class InconsistentFacts(ExecError):
    """Raised when the store asserts some p(args) both True and False."""


@dataclass(frozen=True)
class RuleBase:
    """A compiled problem: facts, rules and the query, ready to run.

    The query is the conclusion as a fact; a negated conclusion is a
    query with truth False, so the answer comes out flipped."""

    facts: tuple[Fact, ...]
    rules: tuple[_Rule, ...]
    query: Fact


def _compiled(f: Formula, slots: dict[str, int]) -> _Compiled:
    """A literal over constants and variables, each variable as its slot
    in slots, which a new variable joins; ExecError for any other
    formula."""
    value = not isinstance(f, Not)
    atom = f if value else f.body
    if not isinstance(atom, Atom) or not all(
            isinstance(t, (Constant, Variable)) for t in atom.args):
        raise ExecError("formula outside the rule fragment")
    return atom.predicate, value, tuple(
        t.name if isinstance(t, Constant)
        else slots.setdefault(t.name, len(slots)) for t in atom.args)


def _fact(f: Formula) -> Fact:
    # a premise or the conclusion has no free variable: all constants
    predicate, value, names = _compiled(f, {})
    return predicate, names, value


def _compile_rule(f: Formula) -> _Rule:
    """The rule with each variable replaced by its slot number, numbered
    in order of first occurrence."""
    while isinstance(f, ForAll):
        f = f.body
    if not isinstance(f, Implies):
        raise ExecError("formula outside the rule fragment")
    slots: dict[str, int] = {}
    parts = f.left.parts if isinstance(f.left, And) else (f.left,)
    body = tuple(_compiled(lit, slots) for lit in parts)
    width = len(slots)
    head = _compiled(f.right, slots)
    if len(slots) > width or len(body) > MAX_NESTING_DEPTH:
        raise ExecError("formula outside the rule fragment")
    return body, head, width


def compile_rules(problem: Problem) -> RuleBase:
    """The rule base of a problem inside the rule fragment (see above):
    ground literal premises are facts, in premise order (forward_chain
    stores a repeated one once), the other premises are rules, and the
    conclusion is the query."""
    facts: list[Fact] = []
    rules: list[_Rule] = []
    for premise in problem.premises:
        if isinstance(premise, (Atom, Not)):
            facts.append(_fact(premise))
        else:
            rules.append(_compile_rule(premise))
    return RuleBase(tuple(facts), tuple(rules), _fact(problem.conclusion))


def _join(plan: list[_Step], binding: list[Optional[str]], deadline: float,
          probes: list[int], args_of: Callable[[_Key], _ArgIndex], d: int = 0
          ) -> Iterator[list[Optional[str]]]:
    """Every extension of binding that matches plan[d:] in turn.

    A step reads its facts[lo:hi] in store order. Where that slice holds
    more than _SCAN_AT_MOST facts and the step has a bound argument (a
    constant, or a variable that binding holds), it reads only the facts
    that args_of(key) lists for the first such argument's value; either
    way, each fact read is checked on every argument. It yields binding
    itself, updated in place between yields. probes[0] counts the facts
    read; the clock is read every _PROBES_PER_CHECK.
    """
    if d == len(plan):
        yield binding
        return
    facts, lo, hi, codes, key = plan[d]
    value = None
    if hi - lo > _SCAN_AT_MOST:
        for at, code in enumerate(codes):
            value = code if type(code) is str else binding[code]
            if value is not None:
                break
    if value is None:
        rows: Iterable[tuple[str, ...]] = facts[lo:hi]
    else:
        hits = args_of(key).get((at, value), [])
        rows = map(facts.__getitem__,
                   hits[bisect_left(hits, lo):bisect_left(hits, hi)])
    for args in rows:
        probes[0] += 1
        if not probes[0] % _PROBES_PER_CHECK and time.monotonic() > deadline:
            raise DeadlineExceeded("wall clock budget")
        newly: list[int] = []
        for code, name in zip(codes, args):
            if type(code) is int:
                held = binding[code]
                if held is None:
                    binding[code] = name
                    newly.append(code)
                elif held != name:
                    break
            elif code != name:
                break
        else:
            yield from _join(plan, binding, deadline, probes, args_of, d + 1)
        for slot in newly:
            binding[slot] = None


def _index_args(by_arg: _ArgIndex, n: int, args: tuple[str, ...]) -> None:
    for at, name in enumerate(args):
        by_arg.setdefault((at, name), []).append(n)


def forward_chain(rb: RuleBase, limits: ResourceLimits = DEFAULT_LIMITS
                  ) -> tuple[Fact, ...]:
    """Run rules to a fixpoint by semi-naive evaluation; the fact store.

    Each round joins a rule only where one of its body literals matches a
    fact new in the previous round (the delta), after Bancilhon and
    Ramakrishnan (SIGMOD 1986). Body literals left of that literal read the
    facts older than the delta, those right of it read the facts up to the
    delta's end, so no combination of facts is joined twice. Facts are
    indexed by (predicate, truth, arity), so a join only reads facts that
    can match. The first time a join step would read more than
    _SCAN_AT_MOST of a key's facts with an argument bound, the key also
    gets an argument index, from (argument position, constant) to the
    positions of the facts that hold the constant there, and from then on
    such steps read only those facts (see _join). A closure join then
    reads one edge per new path, not every edge.

    The store holds the given facts and then each round's new facts. That
    order is deterministic, but it is not the order in which a naive loop
    derives them. The argument index hands out facts in store order, so
    it changes which facts a join reads, never the store or the fact at
    which an error is raised. The run has wall_ms to finish; the clock is
    read once per round and every few thousand join probes, and past the
    deadline the run raises DeadlineExceeded.
    """
    deadline = limits.deadline()
    probes = [0]
    store: list[Fact] = []
    present: set[Fact] = set()
    index: dict[_Key, list[tuple[str, ...]]] = {}
    arg_index: dict[_Key, _ArgIndex] = {}

    def add(fact: Fact) -> None:
        if fact in present:
            return
        flipped = (fact[0], fact[1], not fact[2])
        if flipped in present:
            raise InconsistentFacts(
                f"inconsistent facts: {fact[0]}({', '.join(fact[1])}) "
                "asserted both True and False")
        if len(store) >= limits.max_ground_literals:
            raise ExecError("fact store budget exceeded")
        present.add(fact)
        store.append(fact)
        key = (fact[0], fact[2], len(fact[1]))
        facts = index.setdefault(key, [])
        if key in arg_index:
            _index_args(arg_index[key], len(facts), fact[1])
        facts.append(fact[1])

    def args_of(key: _Key) -> _ArgIndex:
        by_arg = arg_index.get(key)
        if by_arg is None:
            by_arg = arg_index[key] = {}
            for n, args in enumerate(index[key]):
                _index_args(by_arg, n, args)
        return by_arg

    def instantiate(head: _Compiled, binding: list[Optional[str]]) -> Fact:
        predicate, value, codes = head
        return predicate, tuple(binding[c] if type(c) is int else c
                                for c in codes), value

    for fact in rb.facts:
        add(fact)

    rules = [(body, head, width, [(p, v, len(codes)) for p, v, codes in body])
             for body, head, width in rb.rules]
    empty: list[tuple[str, ...]] = []
    # facts older than the delta, per index key
    older: dict[_Key, int] = {}
    while True:
        if time.monotonic() > deadline:
            raise DeadlineExceeded("wall clock budget")
        # the delta is each key's facts in [older, upto); facts this round
        # adds lie beyond upto and wait for the next round
        upto = {key: len(facts) for key, facts in index.items()}
        if all(older.get(key, 0) == end for key, end in upto.items()):
            return tuple(store)
        for body, head, width, keys in rules:
            for i, key in enumerate(keys):
                start, end = older.get(key, 0), upto.get(key, 0)
                if start == end:
                    continue
                plan = [(index[key], start, end, body[i][2], key)]
                for j, other in enumerate(keys):
                    if j != i:
                        hi = older.get(other, 0) if j < i \
                            else upto.get(other, 0)
                        plan.append((index.get(other, empty), 0, hi,
                                     body[j][2], other))
                for binding in _join(plan, [None] * width, deadline,
                                     probes, args_of):
                    add(instantiate(head, binding))
        older = upto


def answer_query(fixpoint: tuple[Fact, ...], query: Fact) -> Verdict:
    """True when the fact store holds the query, False when it holds the
    query with the other truth, Unknown when it holds neither."""
    name, args, value = query
    flip = (name, args, not value)
    # one pass over the store, each fact looked up in a two-fact set
    held = {query, flip}.intersection(fixpoint)
    if query in held:
        return Verdict(Truth.TRUE)
    if flip in held:
        return Verdict(Truth.FALSE)
    return Verdict(Truth.UNKNOWN)


def dump_fixpoint(fixpoint: tuple[Fact, ...]) -> str:
    lines = [f"{pred}({', '.join(args)})={value}"
             for pred, args, value in sorted(fixpoint)]
    return "\n".join(lines)


def entail_chaining(problem: Problem,
                    limits: ResourceLimits = DEFAULT_LIMITS) -> Outcome:
    """Compile, chain to fixpoint, and read the query off the fact store."""
    try:
        rb = compile_rules(problem)
        fixpoint = forward_chain(rb, limits)
    except InconsistentFacts:
        return Inconsistent()
    except ExecError as e:
        return ExecFailed(str(e))
    except DeadlineExceeded:
        return Answered(Verdict(Truth.UNKNOWN, resource_limited=True))
    return Answered(answer_query(fixpoint, rb.query))
