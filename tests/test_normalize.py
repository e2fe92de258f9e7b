"""Clausification: one walk per formula that rewrites connectives, pushes
negations in, standardizes apart, skolemizes and distributes to CNF,
checked against a four-walk reference plus a CNF pass kept here."""

import hashlib
import random
import time

import pytest

from trilogic.dialects import parse_prover9, parse_z3
from trilogic.fol import (
    And, Answered, Atom, Clause, Constant, DEFAULT_LIMITS, DeadlineExceeded,
    ExecError, ExecFailed, Exists, ForAll, Function, Iff, Implies, Literal,
    Not, Or, Problem, ResourceLimits, Term, Variable, Xor, substitute_term,
)
from trilogic.normalize import (
    clausify_all, clock, skolem_supply, variable_supply,
)
from trilogic.resolution import entail_resolution
from trilogic.sat import entail_sat
from trilogic.testkit import FULL_FOL, HORN, GenConfig, generate_suite

X = Variable("x")
Y = Variable("y")
A = Constant("A")


def atom(p, *args):
    return Atom(p, tuple(args))


def cf(f, limits=None):
    args = ([f], variable_supply(), skolem_supply())
    clauses = clausify_all(*args) if limits is None else clausify_all(*args, limits)
    return [str(c) for c in clauses]


class TestEliminateConnectives:
    def test_implies(self):
        assert cf(Implies(atom("p", A), atom("q", A))) == ["-p(A) | q(A)"]

    def test_xor_expands_to_two_disjunctions(self):
        f = Xor(atom("p", A), atom("q", A))
        assert cf(f) == ["p(A) | q(A)", "-p(A) | -q(A)"]
        # negated, (-p & -q) | (p & q) distributes into the clauses of <->
        assert cf(Not(f)) == ["-p(A) | q(A)", "p(A) | -q(A)"]

    def test_iff_expands_to_two_implications(self):
        f = Iff(atom("p", A), atom("q", A))
        assert cf(f) == ["-p(A) | q(A)", "p(A) | -q(A)"]
        assert cf(Not(f)) == ["p(A) | q(A)", "-p(A) | -q(A)"]


class TestNnf:
    def test_negation_over_forall(self):
        assert cf(Not(ForAll("x", atom("p", X)))) == ["-p(_sk0)"]

    def test_negation_over_exists(self):
        assert cf(Not(Exists("x", atom("p", X)))) == ["-p(_v0)"]

    def test_de_morgan(self):
        assert cf(Not(And((atom("p", A), atom("q", A))))) == ["-p(A) | -q(A)"]

    def test_double_negation(self):
        assert cf(Not(Not(atom("p", A)))) == ["p(A)"]


class TestStandardizeApart:
    def test_shadowed_binders_get_distinct_names(self):
        f = And((ForAll("x", atom("p", X)), Exists("x", atom("q", X))))
        variables = variable_supply()
        clauses = clausify_all([f], variables, skolem_supply())
        # the existential draws _v1 before it takes its witness
        assert [str(c) for c in clauses] == ["p(_v0)", "q(_sk0)"]
        assert variables.next_index == 2

    def test_free_variables_survive(self):
        assert cf(ForAll("x", atom("r", X, Y))) == ["r(_v0, y)"]


class TestSkolemize:
    def test_toplevel_existential_becomes_constant(self):
        assert cf(Exists("x", atom("p", X))) == ["p(_sk0)"]

    def test_existential_under_universal_becomes_function(self):
        f = ForAll("x", Exists("y", atom("r", X, Y)))
        assert cf(f) == ["r(_v0, _sk0(_v0))"]

    def test_skolemize_keeps_universals(self):
        assert cf(ForAll("x", atom("p", X))) == ["p(_v0)"]


class TestClausify:
    def test_iff_yields_two_clauses(self):
        assert cf(Iff(atom("p", A), atom("q", A))) == ["-p(A) | q(A)", "p(A) | -q(A)"]

    def test_xor_yields_two_clauses(self):
        assert cf(Xor(atom("p", A), atom("q", A))) == ["p(A) | q(A)", "-p(A) | -q(A)"]

    def test_horn_rule(self):
        f = ForAll("x", Implies(And((atom("p", X), atom("q", X))), atom("r", X)))
        assert cf(f) == ["-p(_v0) | -q(_v0) | r(_v0)"]

    def test_tautologies_are_dropped(self):
        assert cf(Or((atom("p", A), Not(atom("p", A))))) == []

    def test_distribution_budget_raises(self):
        worst = Or((And((atom("a", A), atom("b", A))),
                    And((atom("c", A), atom("d", A))),
                    And((atom("e", A), atom("f", A)))))
        small = ResourceLimits(max_generated_clauses=10, max_clause_literals=64,
                               wall_ms=1000, max_cnf_clauses=4,
                               max_ground_literals=100)
        with pytest.raises(ExecError, match="clause explosion"):
            cf(worst, small)

    def test_conjunction_budget_raises(self):
        small = ResourceLimits(max_cnf_clauses=4)
        five = And(tuple(atom(f"a{i}", A) for i in range(5)))
        assert len(cf(And(five.parts[:4]), small)) == 4
        with pytest.raises(ExecError, match="clause explosion"):
            cf(five, small)

    def test_clausify_all_shares_supplies(self):
        formulas = [ForAll("x", atom("p", X)), ForAll("x", atom("q", X))]
        clauses = clausify_all(formulas, variable_supply(), skolem_supply())
        assert [str(c) for c in clauses] == ["p(_v0)", "q(_v1)"]

    def test_already_clausal_input_is_stable(self):
        f = ForAll("x", Or((Not(atom("p", X)), atom("q", X), atom("r", A))))
        first = cf(f)
        assert first == ["-p(_v0) | q(_v0) | r(A)"]
        # feeding the clause shape back through changes nothing but the
        # standardized variable name
        again = cf(ForAll("y", Or((Not(atom("p", Y)), atom("q", Y),
                                   atom("r", A)))))
        assert again == first


# The four-walk clausification and the CNF pass that clausify_all merges
# into one walk, one rewrite per walk, kept as the reference it must match
# clause for clause and name for name: Clause orders literals by their text
# and resolution selects the first negative literal, so a renumbered
# variable can change a proof.

def reference_eliminate_connectives(f):
    """Rewrite Implies/Iff/Xor in terms of And/Or/Not."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(reference_eliminate_connectives(f.body))
    if isinstance(f, And):
        return And(tuple(reference_eliminate_connectives(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(reference_eliminate_connectives(p) for p in f.parts))
    if isinstance(f, Implies):
        return Or((Not(reference_eliminate_connectives(f.left)),
                   reference_eliminate_connectives(f.right)))
    if isinstance(f, Iff):
        a = reference_eliminate_connectives(f.left)
        b = reference_eliminate_connectives(f.right)
        return And((Or((Not(a), b)), Or((Not(b), a))))
    if isinstance(f, Xor):
        a = reference_eliminate_connectives(f.left)
        b = reference_eliminate_connectives(f.right)
        return And((Or((a, b)), Or((Not(a), Not(b)))))
    if isinstance(f, (ForAll, Exists)):
        return type(f)(f.var, reference_eliminate_connectives(f.body))
    raise TypeError(f"not a formula: {f!r}")


def reference_to_nnf(f):
    """Push negations down to atoms. Input must be free of ->, <-> and ^."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not) and isinstance(f.body, Atom):
        return f
    if isinstance(f, And):
        return And(tuple(reference_to_nnf(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(reference_to_nnf(p) for p in f.parts))
    if isinstance(f, (ForAll, Exists)):
        return type(f)(f.var, reference_to_nnf(f.body))
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, Not):
            return reference_to_nnf(g.body)
        if isinstance(g, And):
            return Or(tuple(reference_to_nnf(Not(p)) for p in g.parts))
        if isinstance(g, Or):
            return And(tuple(reference_to_nnf(Not(p)) for p in g.parts))
        if isinstance(g, ForAll):
            return Exists(g.var, reference_to_nnf(Not(g.body)))
        if isinstance(g, Exists):
            return ForAll(g.var, reference_to_nnf(Not(g.body)))
        raise ValueError(f"eliminate connectives before NNF: {g!r}")
    raise ValueError(f"eliminate connectives before NNF: {f!r}")


def reference_standardize_apart(f, supply):
    """Give every binder its own fresh variable name."""

    def walk(f, ren):
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


def reference_skolemize(f, supply):
    """Drop existentials from a standardized NNF formula."""

    def walk(f, univ, sub):
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


def reference_clausify(f):
    """Distribute a skolemized NNF formula into clauses."""
    budget = DEFAULT_LIMITS.max_cnf_clauses

    def cnf(f):
        if isinstance(f, Atom):
            return [(Literal(True, f),)]
        if isinstance(f, Not):
            if not isinstance(f.body, Atom):
                raise ValueError(f"input is not in NNF: {f!r}")
            return [(Literal(False, f.body),)]
        if isinstance(f, ForAll):
            return cnf(f.body)
        if isinstance(f, And):
            out = []
            for p in f.parts:
                out.extend(cnf(p))
                if len(out) > budget:
                    raise ExecError("clause explosion")
            return out
        if isinstance(f, Or):
            acc = [()]
            for p in f.parts:
                rows = cnf(p)
                if len(acc) * len(rows) > budget:
                    raise ExecError("clause explosion")
                acc = [a + r for a in acc for r in rows]
            return acc
        if isinstance(f, Exists):
            raise ValueError("skolemize before clausify")
        raise TypeError(f"not a formula: {f!r}")

    clauses = []
    seen = set()
    for lits in cnf(f):
        c = Clause(lits)
        if c.is_tautology() or c in seen:
            continue
        seen.add(c)
        clauses.append(c)
    return clauses


def reference_clausify_all(formulas, var_supply, sk_supply):
    clauses = []
    seen = set()
    for f in formulas:
        g = reference_eliminate_connectives(f)
        g = reference_to_nnf(g)
        g = reference_standardize_apart(g, var_supply)
        g = reference_skolemize(g, sk_supply)
        for c in reference_clausify(g):
            if c not in seen:
                seen.add(c)
                clauses.append(c)
    return clauses


def random_term(rng, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.2:
        return Function(rng.choice("fg"), tuple(
            random_term(rng, depth - 1) for _ in range(rng.randint(1, 2))))
    if roll < 0.6:
        return Variable(rng.choice("xyz"))
    return Constant(rng.choice("AB"))


def random_formula(rng, depth):
    """Every connective, quantifiers that shadow one another (three variable
    names), free variables and function terms."""
    def sub():
        return random_formula(rng, depth - 1)

    kind = rng.randrange(9) if depth > 0 else 0
    if kind == 0:
        return Atom(rng.choice("pq"), tuple(
            random_term(rng, 2) for _ in range(rng.randint(0, 2))))
    if kind == 1:
        return Not(sub())
    if kind in (2, 3):
        return (And, Or)[kind - 2](tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind in (4, 5, 6):
        return (Implies, Iff, Xor)[kind - 4](sub(), sub())
    return (ForAll, Exists)[kind - 7](rng.choice("xyz"), sub())


def reference_inputs():
    """Formula lists clausified in turn under shared supplies, each list as
    one clausify_all call: generated problems as the entailment driver sees
    them, then random formulas, plain and negated."""
    for seed in (23, 101, 907):
        for fragment in (HORN, FULL_FOL):
            cfg = GenConfig(fragment=fragment, seed=seed)
            for gp in generate_suite(cfg, 20, (2, 3, 5)):
                p = gp.problem
                yield [p.premises, [Not(p.conclusion)], [p.conclusion]]
    rng = random.Random(13)
    for _ in range(300):
        f = random_formula(rng, rng.randint(1, 4))
        yield [[f], [Not(f)]]


def clause_texts(pipeline, formulas, supplies):
    """The clauses as text, or the error that stopped them."""
    try:
        return [str(c) for c in pipeline(formulas, *supplies)]
    except ExecError as e:
        return str(e)


class TestMergedWalks:
    def test_clauses_and_names_match_the_four_walk_reference(self):
        for calls in reference_inputs():
            got_supplies = variable_supply(), skolem_supply()
            want_supplies = variable_supply(), skolem_supply()
            for formulas in calls:
                got = clause_texts(clausify_all, formulas, got_supplies)
                want = clause_texts(reference_clausify_all, formulas,
                                    want_supplies)
                assert got == want, formulas
                assert ([s.next_index for s in got_supplies]
                        == [s.next_index for s in want_supplies]), formulas


# SHA-256 of the clause texts of every reference_inputs() call, recorded
# before clauses whose literals all have different predicates came to be
# sorted by predicate alone. TestMergedWalks builds its reference clauses
# with the same Clause, so only this digest sees a change of literal order.
CLAUSE_DIGEST = ("0aae797f5d120ee042d994098f2d7f97"
                 "b831ebf1f682fee3d969a7e086e04481")


def test_clause_order_as_recorded():
    digest = hashlib.sha256()
    for calls in reference_inputs():
        supplies = variable_supply(), skolem_supply()
        for formulas in calls:
            texts = clause_texts(clausify_all, formulas, supplies)
            digest.update(f"{texts!r}\n".encode())
    assert digest.hexdigest() == CLAUSE_DIGEST


# texts whose clausification grows exponentially in their length
EXPLOSIVE_TEXTS = {
    "prover9 <-> chain of 16": (
        parse_prover9,
        "Premises:\np(A)\nConclusion:\n" + " <-> ".join(["p(A)"] * 17)
        + "\n"),
    "z3 == chain of 150": (
        parse_z3, "P(A)\nreturn " + " == ".join(["P(A)"] * 151) + "\n"),
    # 2^16 clauses of 16 literals each, under max_cnf_clauses
    "z3 Or of 16 Ands": (
        parse_z3, "a0(A)\nreturn Or("
        + ", ".join(f"And(a{i}(A), b{i}(A))" for i in range(16)) + ")\n"),
}


class TestDeadline:
    def test_past_deadline_raises_in_each_walk(self):
        past = time.monotonic() - 1
        # the walk visits 1,100 <-> links before it puts out a literal (a
        # chain of them passes the CNF budget at 6 links, after about 130
        # visits), and the Or of Ands puts out 2^11 clauses of 11 literals
        links = And(tuple(Iff(atom(f"a{i}", A), atom(f"b{i}", A))
                          for i in range(1100)))
        for f in (links, Or(tuple(
                And((atom(f"a{i}", A), atom(f"b{i}", A))) for i in range(11)))):
            with pytest.raises(DeadlineExceeded):
                clausify_all([f], variable_supply(), skolem_supply(),
                             deadline=past)

    def test_clock_reads_once_per_1024_ticks(self):
        tick = clock(time.monotonic() - 1)
        for _ in range(1023):
            tick()
        with pytest.raises(DeadlineExceeded):
            tick()

    def test_small_formula_never_reads_the_clock(self):
        f = Iff(atom("p", A), atom("q", A))
        assert len(clausify_all([f], variable_supply(), skolem_supply(),
                                deadline=time.monotonic() - 1)) == 2

    @pytest.mark.parametrize("engine", [entail_resolution, entail_sat])
    @pytest.mark.parametrize("name", sorted(EXPLOSIVE_TEXTS))
    def test_engines_stop_on_time(self, name, engine):
        parse, text = EXPLOSIVE_TEXTS[name]
        problem = parse(text)
        start = time.monotonic()
        out = engine(problem, ResourceLimits(wall_ms=500))
        elapsed = time.monotonic() - start
        if isinstance(out, Answered):
            assert out.verdict.resource_limited
        else:
            assert out == ExecFailed("clause explosion")
        # the budget, with room for a loaded host
        assert elapsed < 1.0

    @pytest.mark.parametrize("engine", [entail_resolution, entail_sat])
    def test_explosion_found_before_the_deadline(self, engine):
        text = ("Premises:\np(A)\nConclusion:\n"
                + " <-> ".join(["p(A)"] * 21) + "\n")
        start = time.monotonic()
        out = engine(parse_prover9(text), ResourceLimits(wall_ms=2000))
        assert out == ExecFailed("clause explosion")
        assert time.monotonic() - start < 0.5


# one level of each connective and quantifier around a formula
WRAPS = {
    "not": Not,
    "and": lambda f: And((atom("p", A), f)),
    "or": lambda f: Or((atom("p", A), f)),
    "implies": lambda f: Implies(atom("p", A), f),
    "iff": lambda f: Iff(atom("p", A), f),
    "xor": lambda f: Xor(atom("p", A), f),
    "all": lambda f: ForAll("x", f),
    "exists": lambda f: Exists("x", f),
}


def chain(kind, levels):
    """p(A), or p(x) under quantifiers, nested levels deep in one kind."""
    f = atom("p", X) if kind in ("all", "exists") else atom("p", A)
    for _ in range(levels):
        f = WRAPS[kind](f)
    return f


class TestDeepFormulas:
    """The walk recurses once per formula level, so the deepest formula a
    parser lets through never meets Python's recursion limit."""

    @pytest.mark.parametrize("engine", [entail_resolution, entail_sat])
    @pytest.mark.parametrize("levels", [199, 200])
    @pytest.mark.parametrize("kind", sorted(WRAPS))
    def test_chain_answers(self, kind, levels, engine):
        f = chain(kind, levels)
        out = engine(Problem((atom("q", A),), f))
        assert isinstance(out, (Answered, ExecFailed))
