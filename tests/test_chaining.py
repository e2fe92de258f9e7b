"""Forward-chaining engine: rule compilation, fixpoints, query answers."""

import random
import time

import pytest

from trilogic import chaining
from trilogic.chaining import (
    InconsistentFacts, answer_query, compile_rules, dump_fixpoint,
    entail_chaining, forward_chain,
)
from trilogic.dialects import parse_pyke
from trilogic.fol import (
    DEFAULT_LIMITS, MAX_NESTING_DEPTH, And, Answered, Atom, Constant, DeadlineExceeded,
    ExecError, ExecFailed, ForAll, Implies, Inconsistent, Not, Problem,
    ResourceLimits, Truth, Variable, Verdict, WorldAssumption,
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

    def test_zero_arity_facts_dump_bare(self):
        text = ("Predicates:\nrain(bool)\nwet(bool)\n\n"
                "Facts:\nrain(True)\n\n"
                "Rules:\nrain(True) >>> wet(True)\n\n"
                "Query:\nwet\n")
        fp = forward_chain(compile_rules(parse_pyke(text)), DEFAULT_LIMITS)
        assert dump_fixpoint(fp) == "rain=True\nwet=True"

    def test_zero_arity_contradiction_names_bare_atom(self):
        text = ("Predicates:\nrain(bool)\n\n"
                "Facts:\nrain(True)\nrain(False)\n\n"
                "Query:\nrain\n")
        problem = parse_pyke(text)
        with pytest.raises(InconsistentFacts) as raised:
            forward_chain(compile_rules(problem), DEFAULT_LIMITS)
        assert str(raised.value) == ("inconsistent facts: rain asserted "
                                     "both True and False")
        assert isinstance(entail_chaining(problem), Inconsistent)

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

    def test_closure_over_200_constants_within_budget(self):
        # the scan join read every edge for each new path: about 3 s here
        fp = forward_chain(compile_rules(parse_pyke(closure(200))),
                           ResourceLimits(wall_ms=2000))
        assert len(fp) == 199 + 199 * 200 // 2

    def test_past_deadline_raises(self):
        rb = compile_rules(parse_pyke(closure(80)))
        with pytest.raises(DeadlineExceeded):
            forward_chain(rb, ResourceLimits(wall_ms=1))

    def test_deadline_checked_inside_a_join(self, monkeypatch):
        # the round's clock read passes and the read at the join's 4096th
        # probe fails, so the 70 x 70 join of one round stops there
        reads = []

        class Clock:
            @staticmethod
            def monotonic():
                reads.append(None)
                return 0.0 if len(reads) == 1 else float("inf")

        monkeypatch.setattr(chaining, "time", Clock)
        facts = "".join(f"p(C{i}, True)\n" for i in range(70))
        rb = compile_rules(parse_pyke(
            f"Facts:\n{facts}Rules:\np($x, True) && p($y, True) >>> "
            "r($x, $y, True)\nQuery:\nr(C0, C1)\n"))
        with pytest.raises(DeadlineExceeded) as info:
            forward_chain(rb)
        assert info.traceback[-1].name == "_join"
        assert len(reads) == 2


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


def random_program(rng, constants=(2, 4), facts=(1, 8)):
    """A Problem of facts and 1-5 rules over unary and binary predicates,
    both truths; a False truth is a Not. constants and facts bound how
    many of each it draws."""
    names = [f"c{k}" for k in range(rng.randint(*constants))]
    preds = sorted(ARITY)

    def truth():
        return rng.random() < 0.8

    def signed(atom, value):
        return atom if value else Not(atom)

    drawn = rng.randint(*facts)
    facts = []
    for _ in range(drawn):
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


def wide_program(rng):
    """A random_program over 3-6 constants and 10-30 facts, less each
    given fact whose negation an earlier premise states, so that its
    stores grow past a few facts per key."""
    problem = random_program(rng, constants=(3, 6), facts=(10, 30))
    kept, seen = [], set()
    for premise in problem.premises:
        if (premise.body if isinstance(premise, Not) else Not(premise)) \
                not in seen:
            seen.add(premise)
            kept.append(premise)
    return Problem(tuple(kept), problem.conclusion)


def chain_problem(problem, limits):
    return forward_chain(compile_rules(problem), limits)


def run_to_fixpoint(chain, problem, limits):
    """The dumped fixpoint, or the class of the error chaining raised."""
    try:
        return dump_fixpoint(chain(problem, limits))
    except ExecError as e:  # InconsistentFacts is an ExecError too
        return type(e)


def scan_join(plan, binding, deadline, probes, d=0):
    """The join before the argument index: every step scans its slice."""
    if d == len(plan):
        yield binding
        return
    facts, lo, hi, codes = plan[d]
    for args in facts[lo:hi]:
        probes[0] += 1
        if not probes[0] % 4096 and time.monotonic() > deadline:
            raise DeadlineExceeded("wall clock budget")
        newly = []
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
            yield from scan_join(plan, binding, deadline, probes, d + 1)
        for slot in newly:
            binding[slot] = None


def scan_forward_chain(rb, limits):
    """forward_chain before the argument index, the reference for it."""
    deadline = limits.deadline()
    probes = [0]
    store, present, index = [], set(), {}

    def add(fact):
        if fact in present:
            return
        if (fact[0], fact[1], not fact[2]) in present:
            raise InconsistentFacts(
                f"inconsistent facts: {fact[0]}({', '.join(fact[1])}) "
                "asserted both True and False")
        if len(store) >= limits.max_ground_literals:
            raise ExecError("fact store budget exceeded")
        present.add(fact)
        store.append(fact)
        index.setdefault((fact[0], fact[2], len(fact[1])), []).append(fact[1])

    def instantiate(head, binding):
        predicate, value, codes = head
        return predicate, tuple(binding[c] if type(c) is int else c
                                for c in codes), value

    for fact in rb.facts:
        add(fact)
    older = {}
    while True:
        if time.monotonic() > deadline:
            raise DeadlineExceeded("wall clock budget")
        upto = {key: len(facts) for key, facts in index.items()}
        if all(older.get(key, 0) == end for key, end in upto.items()):
            return tuple(store)
        for body, head, width in rb.rules:
            keys = [(p, v, len(codes)) for p, v, codes in body]
            for i, key in enumerate(keys):
                start, end = older.get(key, 0), upto.get(key, 0)
                if start == end:
                    continue
                plan = [(index[key], start, end, body[i][2])]
                for j, other in enumerate(keys):
                    if j != i:
                        hi = older.get(other, 0) if j < i \
                            else upto.get(other, 0)
                        plan.append((index.get(other, []), 0, hi,
                                     body[j][2]))
                for binding in scan_join(plan, [None] * width, deadline,
                                         probes):
                    add(instantiate(head, binding))
        older = upto


def chain_outcome(chain, rb, limits):
    """The fact store, in order, or the class and message of the error."""
    try:
        return chain(rb, limits)
    except ExecError as e:  # InconsistentFacts is an ExecError too
        return type(e), str(e)


# rule shapes the argument index must read as the scan does, each over a
# store large enough that every join step has more than eight facts
SHAPES = {
    "repeated variable": "r($x, $x, True) && r($x, $y, True) >>> s($y, True)",
    "constant in body": "r(C3, $x, True) && r($x, $y, True) >>> t(C3, $y, True)",
    "false body literal":
        "r($x, $y, True) && q($y, $x, False) >>> t($x, $y, True)",
    "three literals":
        "r($x, $y, True) && r($y, $z, True) && q($z, $w, False)"
        " >>> t($x, $w, True)",
    "head clashes": "r($x, $y, True) && r($y, $z, True) >>> q($x, $z, True)",
}


def shaped(rule):
    """rule, then transitivity of r, over a 12-constant cycle of r facts
    with loops at every third constant, and q(C_i, C_j, False) for every
    i + 2 = j; pyke text."""
    n = 12
    facts = [f"r(C{i}, C{(i + 1) % n}, True)" for i in range(n)]
    facts += [f"r(C{i}, C{i}, True)" for i in range(0, n, 3)]
    facts += [f"q(C{i}, C{i + 2}, False)" for i in range(n - 2)]
    return ("Predicates:\nr($x, $y, bool)\nq($x, $y, bool)\ns($x, bool)\n"
            "t($x, $y, bool)\n\nFacts:\n" + "\n".join(facts) + "\n\n"
            f"Rules:\n{rule}\nr($x, $y, True) && r($y, $z, True)"
            " >>> r($x, $z, True)\n\nQuery:\ns(C0)\n")


@pytest.fixture(params=["default", "always"])
def index_cut(request, monkeypatch):
    """The slice size up to which a join step scans, as it ships, and at
    0, so that every join step with a bound argument reads the index."""
    if request.param == "always":
        monkeypatch.setattr(chaining, "_SCAN_AT_MOST", 0)


@pytest.mark.usefixtures("index_cut")
class TestArgumentIndex:
    """forward_chain returns the scan join's store, in the same order, or
    raises its error at the same fact."""

    @pytest.mark.parametrize("draw", [random_program, wide_program],
                             ids=["small", "wide"])
    def test_matches_the_scan_join_on_random_programs(self, draw):
        outcomes = set()
        for seed in range(200):
            rng = random.Random(seed)
            problem = draw(rng)
            cap = rng.choice([DEFAULT_LIMITS.max_ground_literals,
                              rng.randint(3, 20)])
            limits = ResourceLimits(max_ground_literals=cap)
            rb = compile_rules(problem)
            want = chain_outcome(scan_forward_chain, rb, limits)
            assert chain_outcome(forward_chain, rb, limits) == want, seed
            outcomes.add(want[0] if isinstance(want[0], type) else tuple)
        assert outcomes == {tuple, InconsistentFacts, ExecError}

    @pytest.mark.parametrize("rule", SHAPES.values(), ids=SHAPES)
    @pytest.mark.parametrize("cap", [DEFAULT_LIMITS.max_ground_literals, 100])
    def test_matches_the_scan_join_on_rule_shapes(self, rule, cap):
        rb = compile_rules(parse_pyke(shaped(rule)))
        limits = ResourceLimits(max_ground_literals=cap)
        want = chain_outcome(scan_forward_chain, rb, limits)
        assert chain_outcome(forward_chain, rb, limits) == want

    def test_matches_the_scan_join_on_closures(self):
        for n in (2, 9, 10, 30):
            rb = compile_rules(parse_pyke(closure(n)))
            assert forward_chain(rb, DEFAULT_LIMITS) == \
                scan_forward_chain(rb, DEFAULT_LIMITS), n


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
