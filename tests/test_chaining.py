"""Forward-chaining engine: rule compilation, fixpoints, query answers."""

import random

import pytest

from trilogic.chaining import (
    InconsistentFacts, RuleBase, answer_query, compile_rules, dump_fixpoint,
    entail_chaining, forward_chain,
)
from trilogic.dialects import PykeLiteral, PykeRule, parse_pyke
from trilogic.fol import (
    DEFAULT_LIMITS, Answered, Constant, DeadlineExceeded, ExecError,
    ResourceLimits, Truth, Variable, Verdict, WorldAssumption,
)
from trilogic.harness import apply_world_assumption

BASE = """Predicates:
quiet($x, bool)
calm($x, bool)
likes($x, $y, bool)

Facts:
quiet(Anne, True)
likes(Anne, Bob, True)

Rules:
quiet($x, True) >>> calm($x, True)

Query:
calm(Anne)
"""


class TestCompile:
    def test_undeclared_predicate_in_fact(self):
        text = "Predicates:\nquiet($x, bool)\n\nFacts:\nsmart(Anne, True)\n\nQuery:\nquiet(Anne)\n"
        with pytest.raises(ExecError, match="undeclared predicate 'smart'"):
            compile_rules(parse_pyke(text))

    def test_fact_arity_must_match_declaration(self):
        text = ("Predicates:\nquiet($x, bool)\n\nFacts:\nquiet(Anne, Bob, True)\n"
                "\nQuery:\nquiet(Anne)\n")
        with pytest.raises(ExecError, match="arity mismatch for 'quiet'"):
            compile_rules(parse_pyke(text))

    def test_clean_program_compiles(self):
        rb = compile_rules(parse_pyke(BASE))
        assert ("quiet", ("Anne",), True) in rb.facts


class TestForwardChain:
    def test_fixpoint_contains_derived_fact(self):
        fp = forward_chain(compile_rules(parse_pyke(BASE)), DEFAULT_LIMITS)
        assert ("calm", ("Anne",), True) in fp

    def test_dump_is_sorted(self):
        fp = forward_chain(compile_rules(parse_pyke(BASE)), DEFAULT_LIMITS)
        assert dump_fixpoint(fp) == ("calm(Anne)=True\n"
                                     "likes(Anne, Bob)=True\n"
                                     "quiet(Anne)=True")

    def test_rules_can_match_false_facts(self):
        text = ("Predicates:\nquiet($x, bool)\nloud($x, bool)\n\n"
                "Facts:\nquiet(Anne, False)\n\n"
                "Rules:\nquiet($x, False) >>> loud($x, True)\n\n"
                "Query:\nloud(Anne)\n")
        out = entail_chaining(parse_pyke(text))
        assert out.verdict.value is Truth.TRUE

    def test_contradiction_raises(self):
        text = ("Predicates:\nquiet($x, bool)\n\n"
                "Facts:\nquiet(Anne, True)\nquiet(Anne, False)\n\n"
                "Query:\nquiet(Anne)\n")
        with pytest.raises(InconsistentFacts, match="inconsistent facts"):
            forward_chain(compile_rules(parse_pyke(text)), DEFAULT_LIMITS)

    def test_store_budget(self):
        tiny = ResourceLimits(max_generated_clauses=10, max_clause_literals=4,
                              wall_ms=1000, max_cnf_clauses=10,
                              max_ground_literals=2)
        with pytest.raises(ExecError, match="fact store budget"):
            forward_chain(compile_rules(parse_pyke(BASE)), tiny)

    def test_two_constant_join(self):
        text = ("Predicates:\nlikes($x, $y, bool)\nfriendly($x, bool)\n\n"
                "Facts:\nlikes(Anne, Bob, True)\nlikes(Bob, Anne, True)\n\n"
                "Rules:\nlikes($x, $y, True) && likes($y, $x, True) >>> friendly($x, True)\n\n"
                "Query:\nfriendly(Bob)\n")
        out = entail_chaining(parse_pyke(text))
        assert out.verdict.value is Truth.TRUE

    def test_fixpoint_ignores_statement_order(self):
        # the second variant lists the cascade rules back to front
        forward = ("Predicates:\na($x, bool)\nb($x, bool)\nc($x, bool)\n\n"
                   "Facts:\na(Anne, True)\n\n"
                   "Rules:\na($x, True) >>> b($x, True)\n"
                   "b($x, True) >>> c($x, True)\n\n"
                   "Query:\nc(Anne)\n")
        backward = ("Predicates:\nc($x, bool)\nb($x, bool)\na($x, bool)\n\n"
                    "Facts:\na(Anne, True)\n\n"
                    "Rules:\nb($x, True) >>> c($x, True)\n"
                    "a($x, True) >>> b($x, True)\n\n"
                    "Query:\nc(Anne)\n")
        one = forward_chain(compile_rules(parse_pyke(forward)), DEFAULT_LIMITS)
        two = forward_chain(compile_rules(parse_pyke(backward)), DEFAULT_LIMITS)
        assert dump_fixpoint(one) == dump_fixpoint(two)
        assert ("c", ("Anne",), True) in one

    def test_fixpoint_stays_within_ground_bound(self):
        text = ("Predicates:\np($x, bool)\nq($x, bool)\nr($x, $y, bool)\n\n"
                "Facts:\np(Anne, True)\nr(Anne, Bob, True)\n\n"
                "Rules:\np($x, True) >>> q($x, True)\n"
                "r($x, $y, True) >>> r($y, $x, True)\n\n"
                "Query:\nq(Bob)\n")
        fp = forward_chain(compile_rules(parse_pyke(text)), DEFAULT_LIMITS)
        facts = list(fp)
        assert len(facts) == len(set(facts))
        constants = {c for _, args, _ in facts for c in args}
        # two polarities per ground atom: unary p and q, binary r
        bound = 2 * (2 * len(constants) + len(constants) ** 2)
        assert len(facts) <= bound


    def test_matches_naive_fixpoint_on_random_programs(self):
        outcomes = set()
        for seed in range(200):
            rng = random.Random(seed)
            rb = random_program(rng)
            cap = rng.choice([DEFAULT_LIMITS.max_ground_literals,
                              rng.randint(3, 20)])
            limits = ResourceLimits(max_ground_literals=cap)
            want = run_to_fixpoint(naive_fixpoint, rb, limits)
            assert run_to_fixpoint(forward_chain, rb, limits) == want, seed
            outcomes.add(want if isinstance(want, type) else str)
        assert outcomes == {str, InconsistentFacts, ExecError}

    def test_closure_over_60_constants_within_budget(self):
        # naive evaluation took about 10 s here, past this deadline
        fp = forward_chain(compile_rules(parse_pyke(closure(60))),
                           ResourceLimits(wall_ms=5000))
        assert len(fp) == 59 + 59 * 60 // 2

    def test_past_deadline_raises(self):
        rb = compile_rules(parse_pyke(closure(80)))
        with pytest.raises(DeadlineExceeded):
            forward_chain(rb, ResourceLimits(wall_ms=1))


def closure(n):
    """A chain of n constants under a transitive path rule; pyke text."""
    edges = "\n".join(f"edge(C{i}, C{i + 1}, True)" for i in range(n - 1))
    return ("Predicates:\nedge($x, $y, bool)\npath($x, $y, bool)\n\n"
            f"Facts:\n{edges}\n\n"
            "Rules:\nedge($x, $y, True) >>> path($x, $y, True)\n"
            "path($x, $y, True) && edge($y, $z, True) >>> path($x, $z, True)"
            f"\n\nQuery:\npath(C0, C{n - 1})\n")


def naive_fixpoint(rb, limits):
    """Naive evaluation: every rule against the whole store, each pass."""
    store, present = [], set()

    def add(fact):
        if fact in present:
            return False
        if (fact[0], fact[1], not fact[2]) in present:
            raise InconsistentFacts(f"inconsistent facts: {fact}")
        if len(store) >= limits.max_ground_literals:
            raise ExecError("fact store budget exceeded")
        present.add(fact)
        store.append(fact)
        return True

    def bindings(body, snapshot, binding):
        if not body:
            yield binding
            return
        lit = body[0]
        for pred, args, value in snapshot:
            ext = dict(binding)
            if (pred, value, len(args)) == (lit.predicate, lit.value,
                                            len(lit.args)) and all(
                    ext.setdefault(t.name, a) == a
                    if isinstance(t, Variable) else t.name == a
                    for t, a in zip(lit.args, args)):
                yield from bindings(body[1:], snapshot, ext)

    for fact in rb.facts:
        add(fact)
    changed = True
    while changed:
        changed = False
        for rule in rb.rules:
            head = rule.head
            for b in bindings(rule.body, list(store), {}):
                changed |= add((head.predicate, tuple(
                    b[t.name] if isinstance(t, Variable) else t.name
                    for t in head.args), head.value))
    return tuple(store)


ARITY = {"p": 1, "q": 1, "s": 1, "r": 2, "t": 2}


def random_program(rng):
    """Facts and 1-5 rules over unary and binary predicates, both truths."""
    names = [f"c{k}" for k in range(rng.randint(2, 4))]
    preds = sorted(ARITY)

    def truth():
        return rng.random() < 0.8

    facts = []
    for _ in range(rng.randint(1, 8)):
        pred = rng.choice(preds)
        fact = (pred, tuple(rng.choice(names) for _ in range(ARITY[pred])),
                truth())
        if fact not in facts:
            facts.append(fact)
    rules = []
    for _ in range(rng.randint(1, 5)):
        body = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(preds)
            body.append(PykeLiteral(pred, tuple(
                Constant(rng.choice(names)) if rng.random() < 0.15
                else Variable(rng.choice("xyz"))
                for _ in range(ARITY[pred])), truth()))
        bound = sorted({t.name for lit in body for t in lit.args
                        if isinstance(t, Variable)})
        pred = rng.choice(preds)
        head = PykeLiteral(pred, tuple(
            Variable(rng.choice(bound)) if bound and rng.random() < 0.85
            else Constant(rng.choice(names))
            for _ in range(ARITY[pred])), truth())
        rules.append(PykeRule(tuple(body), head))
    return RuleBase(tuple(facts), tuple(rules))


def run_to_fixpoint(chain, rb, limits):
    """The dumped fixpoint, or the class of the error chaining raised."""
    try:
        return dump_fixpoint(chain(rb, limits))
    except ExecError as e:  # InconsistentFacts is an ExecError too
        return type(e)


class TestAnswerQuery:
    def fixpoint(self):
        return forward_chain(compile_rules(parse_pyke(BASE)), DEFAULT_LIMITS)

    def test_present_positive(self):
        v = answer_query(self.fixpoint(), ("calm", ("Anne",)))
        assert v.value is Truth.TRUE

    def test_absent_under_owa(self):
        v = answer_query(self.fixpoint(), ("calm", ("Bob",)))
        assert v.value is Truth.UNKNOWN

    def test_present_negative_fact(self):
        fp = (("quiet", ("Anne",), False),)
        v = answer_query(fp, ("quiet", ("Anne",)))
        assert v.value is Truth.FALSE


class TestEntailChaining:
    def test_inconsistent_outcome(self):
        text = ("Predicates:\nquiet($x, bool)\n\n"
                "Facts:\nquiet(Anne, True)\nquiet(Anne, False)\n\n"
                "Query:\nquiet(Anne)\n")
        out = entail_chaining(parse_pyke(text))
        assert type(out).__name__ == "Inconsistent"

    def test_compile_error_becomes_exec_failed(self):
        text = ("Predicates:\nquiet($x, bool)\n\nFacts:\nquiet(Anne, Bob, True)\n"
                "\nQuery:\nquiet(Anne)\n")
        out = entail_chaining(parse_pyke(text))
        assert type(out).__name__ == "ExecFailed"
        assert "arity mismatch" in out.detail

    def test_deadline_gives_resource_limited_unknown(self):
        tiny = ResourceLimits(wall_ms=1)
        out = entail_chaining(parse_pyke(closure(80)), tiny)
        assert out.verdict.value is Truth.UNKNOWN
        assert out.verdict.resource_limited

    def test_cut_off_run_stays_unknown_under_cwa(self):
        # a search the deadline cut short is no evidence for False
        tiny = ResourceLimits(wall_ms=1)
        out = entail_chaining(parse_pyke(closure(80)), tiny)
        assert apply_world_assumption(out, WorldAssumption.CWA) \
            == Answered(Verdict(Truth.UNKNOWN, resource_limited=True))
