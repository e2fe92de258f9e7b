"""Forward-chaining engine: rule compilation, fixpoints, query answers."""

import random

import pytest

from trilogic.chaining import (
    InconsistentFacts, answer_query, compile_rules, dump_fixpoint,
    entail_chaining, forward_chain,
)
from trilogic.dialects import parse_pyke
from trilogic.fol import (
    DEFAULT_LIMITS, MAX_NESTING_DEPTH, And, Answered, Atom, Constant, DeadlineExceeded,
    ExecError, ExecFailed, ForAll, Implies, Not, Problem, ResourceLimits,
    Truth, Variable, Verdict, WorldAssumption,
)
from trilogic.harness import apply_world_assumption, run_translation
from trilogic.testkit import HORN, GenConfig, generate_suite

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
    # pyke's declaration checks run when the text is loaded, in parse_pyke
    def test_undeclared_predicate_in_fact(self):
        text = "Predicates:\nquiet($x, bool)\n\nFacts:\nsmart(Anne, True)\n\nQuery:\nquiet(Anne)\n"
        with pytest.raises(ExecError, match="undeclared predicate 'smart'"):
            parse_pyke(text)

    def test_fact_arity_must_match_declaration(self):
        text = ("Predicates:\nquiet($x, bool)\n\nFacts:\nquiet(Anne, Bob, True)\n"
                "\nQuery:\nquiet(Anne)\n")
        with pytest.raises(ExecError, match="arity mismatch for 'quiet'"):
            parse_pyke(text)

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
            problem = random_program(rng)
            cap = rng.choice([DEFAULT_LIMITS.max_ground_literals,
                              rng.randint(3, 20)])
            limits = ResourceLimits(max_ground_literals=cap)
            want = run_to_fixpoint(naive_fixpoint, problem, limits)
            assert run_to_fixpoint(chain_problem, problem, limits) == want, \
                seed
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


def literal(f):
    """(predicate, args, truth) of an Atom or a negated Atom."""
    atom = f.body if isinstance(f, Not) else f
    return atom.predicate, atom.args, not isinstance(f, Not)


def naive_fixpoint(problem, limits):
    """Naive evaluation: every rule against the whole store, each pass."""
    store, present = [], set()
    facts, rules = [], []
    for premise in problem.premises:
        if isinstance(premise, (Atom, Not)):
            pred, args, value = literal(premise)
            facts.append((pred, tuple(t.name for t in args), value))
            continue
        while isinstance(premise, ForAll):
            premise = premise.body
        parts = premise.left.parts if isinstance(premise.left, And) \
            else (premise.left,)
        rules.append(([literal(p) for p in parts], literal(premise.right)))

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
        lit_pred, lit_args, lit_value = body[0]
        for pred, args, value in snapshot:
            ext = dict(binding)
            if (pred, value, len(args)) == (lit_pred, lit_value,
                                            len(lit_args)) and all(
                    ext.setdefault(t.name, a) == a
                    if isinstance(t, Variable) else t.name == a
                    for t, a in zip(lit_args, args)):
                yield from bindings(body[1:], snapshot, ext)

    for fact in facts:
        add(fact)
    changed = True
    while changed:
        changed = False
        for body, (head_pred, head_args, head_value) in rules:
            for b in bindings(body, list(store), {}):
                changed |= add((head_pred, tuple(
                    b[t.name] if isinstance(t, Variable) else t.name
                    for t in head_args), head_value))
    return tuple(store)


ARITY = {"p": 1, "q": 1, "s": 1, "r": 2, "t": 2}


def random_program(rng):
    """A Problem of facts and 1-5 rules over unary and binary predicates,
    both truths; a False truth is a Not."""
    names = [f"c{k}" for k in range(rng.randint(2, 4))]
    preds = sorted(ARITY)

    def truth():
        return rng.random() < 0.8

    def signed(atom, value):
        return atom if value else Not(atom)

    facts = []
    for _ in range(rng.randint(1, 8)):
        pred = rng.choice(preds)
        fact = signed(Atom(pred, tuple(Constant(rng.choice(names))
                                       for _ in range(ARITY[pred]))), truth())
        if fact not in facts:
            facts.append(fact)
    rules = []
    for _ in range(rng.randint(1, 5)):
        body = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(preds)
            body.append(signed(Atom(pred, tuple(
                Constant(rng.choice(names)) if rng.random() < 0.15
                else Variable(rng.choice("xyz"))
                for _ in range(ARITY[pred]))), truth()))
        atoms = [lit.body if isinstance(lit, Not) else lit for lit in body]
        order = list(dict.fromkeys(t.name for a in atoms for t in a.args
                                   if isinstance(t, Variable)))
        bound = sorted(order)
        pred = rng.choice(preds)
        head = signed(Atom(pred, tuple(
            Variable(rng.choice(bound)) if bound and rng.random() < 0.85
            else Constant(rng.choice(names))
            for _ in range(ARITY[pred]))), truth())
        rule = Implies(body[0] if len(body) == 1 else And(tuple(body)), head)
        for name in reversed(order):
            rule = ForAll(name, rule)
        rules.append(rule)
    return Problem((*facts, *rules), Atom("p", (Constant(names[0]),)))


def chain_problem(problem, limits):
    return forward_chain(compile_rules(problem), limits)


def run_to_fixpoint(chain, problem, limits):
    """The dumped fixpoint, or the class of the error chaining raised."""
    try:
        return dump_fixpoint(chain(problem, limits))
    except ExecError as e:  # InconsistentFacts is an ExecError too
        return type(e)


class TestAnswerQuery:
    def fixpoint(self):
        return forward_chain(compile_rules(parse_pyke(BASE)), DEFAULT_LIMITS)

    def test_present_positive(self):
        v = answer_query(self.fixpoint(), ("calm", ("Anne",), True))
        assert v.value is Truth.TRUE

    def test_absent_under_owa(self):
        v = answer_query(self.fixpoint(), ("calm", ("Bob",), True))
        assert v.value is Truth.UNKNOWN

    def test_present_negative_fact(self):
        fp = (("quiet", ("Anne",), False),)
        v = answer_query(fp, ("quiet", ("Anne",), True))
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
        out = run_translation(text, "pyke", "chaining")
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


def wide_rule(n: int) -> tuple[str, str]:
    """p(A), a rule whose body is p(x) n times, and the conclusion q(A):
    the prover9 and the z3 premises and conclusion."""
    return ("p(A)\nall x (" + " & ".join(["p(x)"] * n)
            + " -> q(x))\nConclusion:\nq(A)",
            "p(A)\nForAll([x], Implies(And(" + ", ".join(["p(x)"] * n)
            + "), q(x)))\nreturn q(A)")


# (what leaves the fragment, prover9 text, z3 text); z3 rejects a function
# term at parse time, so that row has no z3 text
OUTSIDE_THE_FRAGMENT = [
    ("or", "p(A) | q(A)\nConclusion:\np(A)", "Or(p(A), q(A))\nreturn p(A)"),
    ("xor", "p(A) ^ q(A)\nConclusion:\np(A)", "Xor(p(A), q(A))\nreturn p(A)"),
    ("iff", "all x (p(x) <-> q(x))\nConclusion:\np(A)",
     "ForAll([x], p(x) == q(x))\nreturn p(A)"),
    ("exists", "exists x p(x)\nConclusion:\np(A)",
     "Exists([x], p(x))\nreturn p(A)"),
    ("function term", "p(f(A))\nConclusion:\np(A)", None),
    ("unbound head variable", "all x all y (p(x) -> q(y))\nConclusion:\nq(A)",
     "ForAll([x, y], Implies(p(x), q(y)))\nreturn q(A)"),
    ("nested implies", "all x (p(x) -> (q(x) -> r(x)))\nConclusion:\nr(A)",
     "ForAll([x], Implies(p(x), Implies(q(x), r(x))))\nreturn r(A)"),
    ("non-literal conclusion", "p(A)\nConclusion:\np(A) & q(A)",
     "p(A)\nreturn And(p(A), q(A))"),
    # the join recurses once per body literal
    ("body of 1000 literals", *wide_rule(1000)),
]


class TestRuleFragment:
    @pytest.mark.parametrize("what,p9,z3", OUTSIDE_THE_FRAGMENT,
                             ids=[row[0] for row in OUTSIDE_THE_FRAGMENT])
    def test_outside_the_fragment_is_exec_failed(self, what, p9, z3):
        texts = [("prover9", f"Premises:\n{p9}\n")]
        if z3 is not None:
            texts.append(("z3", f"{z3}\n"))
        for dialect, text in texts:
            assert run_translation(text, dialect, "chaining") == \
                ExecFailed("formula outside the rule fragment"), dialect

    def test_body_of_max_nesting_depth_literals_is_inside(self):
        p9, z3 = wide_rule(MAX_NESTING_DEPTH)
        for dialect, text in (("prover9", f"Premises:\n{p9}\n"),
                              ("z3", f"{z3}\n")):
            assert run_translation(text, dialect, "chaining") == \
                Answered(Verdict(Truth.TRUE)), dialect

    @pytest.mark.parametrize("conclusion,answer", [
        ("q(A)", Truth.TRUE), ("-q(A)", Truth.FALSE), ("-r(A)", Truth.UNKNOWN),
        ("-s(A)", Truth.TRUE), ("s(A)", Truth.FALSE)])
    def test_negated_conclusion_flips_the_answer(self, conclusion, answer):
        text = ("Premises:\np(A)\n-s(A)\nall x (p(x) -> q(x))\n"
                f"Conclusion:\n{conclusion}\n")
        assert run_translation(text, "prover9", "chaining") == \
            Answered(Verdict(answer))

    def test_contraposition_is_a_solver_effect(self):
        # resolution and sat reason from -b(A) back to -a(A); chaining
        # only fires rules forwards, so a(A) stays open for it
        text = "Premises:\nall x (a(x) -> b(x))\n-b(A)\nConclusion:\na(A)\n"
        answers = {engine: run_translation(text, "prover9", engine)
                   for engine in ("resolution", "sat", "chaining")}
        assert answers == {"resolution": Answered(Verdict(Truth.FALSE)),
                           "sat": Answered(Verdict(Truth.FALSE)),
                           "chaining": Answered(Verdict(Truth.UNKNOWN))}

    def test_ground_rule_and_zero_arity_atoms(self):
        text = "Premises:\nrain\nrain & p(A) -> wet(A)\np(A)\nConclusion:\nwet(A)\n"
        assert run_translation(text, "prover9", "chaining") == \
            Answered(Verdict(Truth.TRUE))


# the pairs no dialect met before every dialect parsed to one Problem
NEW_PAIRS = (("resolution", "pyke"), ("sat", "pyke"),
             ("chaining", "prover9"), ("chaining", "z3"))


@pytest.mark.parametrize("seed", (23, 101, 907))
@pytest.mark.parametrize("assumption", tuple(WorldAssumption))
def test_new_pairs_give_the_gold_label_on_horn_suites(seed, assumption):
    cfg = GenConfig(fragment=HORN, assumption=assumption, seed=seed)
    for gp in generate_suite(cfg, 8):
        for engine, dialect in NEW_PAIRS:
            outcome = run_translation(gp.texts[dialect], dialect, engine)
            assert apply_world_assumption(outcome, assumption) == \
                Answered(Verdict(assumption.firm(gp.gold))), \
                (gp.id, engine, dialect)
