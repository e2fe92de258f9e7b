"""Formula model: construction, free variables, substitution, printing,
and the shared formula and term walks."""

import json

import pytest

from trilogic.dialects import parse_prover9, parse_z3
from trilogic.fol import (
    And, Atom, Clause, Constant, ExecError, Exists, ForAll, Function, Iff,
    Implies, Literal, Not, Or, ParseError, Problem, ResourceLimits, Term,
    Variable, Xor, free_variables, pretty, subformulas, substitute_term,
    subterms,
)
from trilogic.testkit import (
    FULL_FOL, HORN, GenConfig, _collect_atoms, _existential_witnesses,
    _term_name, generate_suite, oracle_universe,
)

from conftest import DATA_DIR
from hostile import base_texts, mutants


def atom(p, *args):
    return Atom(p, tuple(args))


X = Variable("x")
Y = Variable("y")
A = Constant("Anne")
B = Constant("Bob")


class TestConstruction:
    def test_nodes_are_frozen(self):
        f = atom("p", X)
        with pytest.raises(AttributeError):
            f.predicate = "q"

    def test_atom_args_are_tuples(self):
        f = Atom("p", (X, A))
        assert isinstance(f.args, tuple)

    def test_and_requires_two_children(self):
        with pytest.raises(ValueError):
            And((atom("p", X),))

    def test_or_requires_two_children(self):
        with pytest.raises(ValueError):
            Or((atom("p", X),))

    def test_empty_predicate_name_rejected(self):
        with pytest.raises(ValueError):
            Atom("", (X,))

    def test_equality_is_structural(self):
        assert atom("p", X, A) == atom("p", X, A)
        assert atom("p", X) != atom("p", Y)

    def test_hash_consistent_with_equality(self):
        f = ForAll("x", Implies(atom("p", X), atom("q", X)))
        g = ForAll("x", Implies(atom("p", X), atom("q", X)))
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1

    def test_limited_flag_requires_unknown(self):
        from trilogic.fol import Truth, Verdict

        with pytest.raises(ValueError):
            Verdict(Truth.TRUE, resource_limited=True)
        assert Verdict(Truth.UNKNOWN, resource_limited=True).resource_limited

    @pytest.mark.parametrize("field,value", [
        ("wall_ms", True), ("wall_ms", "fast"), ("wall_ms", 0),
        ("max_cnf_clauses", 2.5), ("max_ground_literals", -1),
        ("max_clause_literals", None)])
    def test_limits_take_only_positive_integers(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} must be a positive integer$"):
            ResourceLimits(**{field: value})
        assert getattr(ResourceLimits(**{field: 7}), field) == 7


class TestFreeVariables:
    def test_unbound_atom(self):
        assert free_variables(atom("p", X, Y)) == {"x", "y"}

    def test_quantifier_binds(self):
        assert free_variables(ForAll("x", atom("p", X, Y))) == {"y"}

    def test_sibling_scopes_do_not_leak(self):
        f = Implies(atom("p", X), Exists("x", atom("q", X)))
        assert free_variables(f) == {"x"}

    def test_closed_formula(self):
        f = ForAll("x", Exists("y", atom("r", X, Y)))
        assert free_variables(f) == set()

    def test_function_arguments_count(self):
        f = atom("p", Function("f", (X, Constant("c"))))
        assert free_variables(f) == {"x"}

    @pytest.mark.parametrize("where", ["premise", "conclusion"])
    def test_problem_must_be_closed(self, where):
        closed = ForAll("x", atom("p", X))
        free = Exists("y", atom("r", X, Y))
        premises, conclusion = ((free,), closed) if where == "premise" \
            else ((closed,), free)
        with pytest.raises(ValueError, match="^formula has free variables"):
            Problem(premises, conclusion)


class TestSubstitution:
    def test_term_substitution_recurses_into_functions(self):
        t = Function("f", (X, Function("g", (Y,))))
        s = substitute_term(t, {"y": B})
        assert s == Function("f", (X, Function("g", (B,))))


class TestConstants:
    def test_collects_nested_constants(self):
        f = And((atom("p", A), ForAll("x", atom("r", X, B))))
        assert Problem((f,), atom("q", A)).constants() == {"Anne", "Bob"}

    def test_skolem_function_constants(self):
        f = atom("p", Function("_sk0", (A,)))
        assert Problem((), f).constants() == {"Anne"}


class TestPretty:
    def test_connective_symbols(self):
        f = Implies(And((atom("p", X), atom("q", X))), Or((atom("r", X), atom("s", X))))
        assert pretty(f) == "p(x) & q(x) -> r(x) | s(x)"

    def test_precedence_parenthesizes_weaker_children(self):
        f = And((Or((atom("p", X), atom("q", X))), atom("r", X)))
        assert pretty(f) == "(p(x) | q(x)) & r(x)"

    def test_quantifier_prefix(self):
        f = ForAll("x", Exists("y", atom("r", X, Y)))
        assert pretty(f) == "all x (exists y (r(x, y)))"

    def test_xor_and_iff(self):
        f = Xor(atom("p", A), Iff(atom("q", A), atom("r", A)))
        assert pretty(f) == "p(Anne) ^ (q(Anne) <-> r(Anne))"

    def test_roundtrip_through_parser(self):
        from trilogic.dialects import parse_prover9

        f = ForAll("x", Implies(Or((atom("p", X), atom("q", X))),
                                Not(And((atom("r", X), atom("s", X))))))
        text = f"Premises:\n{pretty(f)}\nConclusion:\np(Anne)\n"
        p = parse_prover9(text)
        assert p.premises == (f,)


class TestClause:
    def test_literals_are_sorted_and_deduplicated(self):
        l1 = Literal(True, atom("p", X))
        l2 = Literal(False, atom("a", X))
        c = Clause((l1, l2, l1))
        assert c.literals == (l2, l1)

    def test_empty_clause(self):
        assert Clause(()).is_empty()

    def test_tautology_detection(self):
        l1 = Literal(True, atom("p", A))
        c = Clause((l1, Literal(False, atom("p", A))))
        assert c.is_tautology()
        assert not Clause((l1,)).is_tautology()

    def test_str_form(self):
        c = Clause((Literal(False, atom("p", A)), Literal(True, atom("q", X))))
        assert str(c) == "-p(Anne) | q(x)"
        assert str(Clause(())) == "$false"


# --- the walks before subformulas and subterms, kept as references ---


def reference_term_variables(t: Term) -> set[str]:
    """Names of all variables occurring in t."""
    if isinstance(t, Variable):
        return {t.name}
    if isinstance(t, Function):
        out: set[str] = set()
        for a in t.args:
            out |= reference_term_variables(a)
        return out
    return set()


def reference_term_constants(t: Term) -> set[str]:
    """Names of all constants occurring in t."""
    if isinstance(t, Constant):
        return {t.name}
    if isinstance(t, Function):
        out: set[str] = set()
        for a in t.args:
            out |= reference_term_constants(a)
        return out
    return set()


def reference_free_variables(f) -> set[str]:
    """Variables occurring outside any binder for them."""
    if isinstance(f, Atom):
        out: set[str] = set()
        for a in f.args:
            out |= reference_term_variables(a)
        return out
    if isinstance(f, Not):
        return reference_free_variables(f.body)
    if isinstance(f, (And, Or)):
        out = set()
        for p in f.parts:
            out |= reference_free_variables(p)
        return out
    if isinstance(f, (Xor, Implies, Iff)):
        return (reference_free_variables(f.left)
                | reference_free_variables(f.right))
    if isinstance(f, (ForAll, Exists)):
        return reference_free_variables(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def reference_formula_constants(f) -> set[str]:
    """Names of all constants mentioned anywhere in f."""
    if isinstance(f, Atom):
        out: set[str] = set()
        for a in f.args:
            out |= reference_term_constants(a)
        return out
    if isinstance(f, Not):
        return reference_formula_constants(f.body)
    if isinstance(f, (And, Or)):
        out = set()
        for p in f.parts:
            out |= reference_formula_constants(p)
        return out
    if isinstance(f, (Xor, Implies, Iff)):
        return (reference_formula_constants(f.left)
                | reference_formula_constants(f.right))
    if isinstance(f, (ForAll, Exists)):
        return reference_formula_constants(f.body)
    raise TypeError(f"not a formula: {f!r}")


def reference_problem_constants(p: Problem) -> set[str]:
    out = reference_formula_constants(p.conclusion)
    for f in p.premises:
        out |= reference_formula_constants(f)
    return out


def reference_count_quantifiers(f) -> int:
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return reference_count_quantifiers(f.body)
    if isinstance(f, (And, Or)):
        return sum(reference_count_quantifiers(p) for p in f.parts)
    if isinstance(f, (Xor, Iff, Implies)):
        return (reference_count_quantifiers(f.left)
                + reference_count_quantifiers(f.right))
    return 1 + reference_count_quantifiers(f.body)


def reference_oracle_universe(p: Problem) -> list[str]:
    named = sorted(reference_problem_constants(p))
    witnesses = sum(_existential_witnesses(f, 1) for f in p.premises)
    witnesses += reference_count_quantifiers(p.conclusion)
    universe = named + [f"_w{i}" for i in range(witnesses)]
    if not universe:
        universe = ["_w0"]
    return universe


def reference_collect_atoms(p: Problem):
    arities: dict[str, int] = {}
    patterns: dict[str, set[tuple]] = {}

    def walk(f) -> None:
        if isinstance(f, Atom):
            arities.setdefault(f.predicate, len(f.args))
            patterns.setdefault(f.predicate, set()).add(tuple(
                None if isinstance(a, Variable) else _term_name(a, {})
                for a in f.args))
        elif isinstance(f, Not):
            walk(f.body)
        elif isinstance(f, (And, Or)):
            for part in f.parts:
                walk(part)
        elif isinstance(f, (Xor, Iff, Implies)):
            walk(f.left)
            walk(f.right)
        else:
            walk(f.body)

    for f in p.premises:
        walk(f)
    walk(p.conclusion)
    return sorted(arities.items()), patterns


def walk_problems():
    """Problems the walks must agree on: seeded Horn and full-FOL suites,
    every FOL fixture, the parseable hostile mutants, and one problem with
    a skolem function term."""
    for seed in (23, 101, 907):
        for fragment in (HORN, FULL_FOL):
            cfg = GenConfig(fragment=fragment, seed=seed)
            for gp in generate_suite(cfg, 20, (2, 3, 5)):
                yield gp.problem
    parsers = {"prover9": parse_prover9, "z3": parse_z3}
    texts = [(path.suffix.lstrip(".").replace("p9", "prover9"),
              path.read_text(encoding="utf-8"))
             for path in sorted(DATA_DIR.glob("*.p9"))
             + sorted(DATA_DIR.glob("*.z3"))]
    for line in (DATA_DIR / "micro" / "translations_prover9.jsonl") \
            .read_text(encoding="utf-8").splitlines():
        texts.append(("prover9", json.loads(line)["text"]))
    texts += list(base_texts(6, 20)) + mutants(6, 20, 40)
    for dialect, text in texts:
        if dialect in parsers:
            try:
                yield parsers[dialect](text)
            except ParseError:
                continue
    sk = Function("_sk0", (X, A))
    yield Problem(
        (ForAll("x", Xor(atom("p", sk), Exists("y", atom("q", Y, B)))),),
        Exists("x", atom("p", sk)))


def collected_atoms(collect, p):
    try:
        return collect(p)
    except ExecError as e:
        return str(e)


class TestWalks:
    def test_children_of_each_node_shape(self):
        p, q, r = atom("p", A), atom("q", A), atom("r", A)
        assert subformulas(And((p, Not(q), ForAll("x", r)))) == [
            And((p, Not(q), ForAll("x", r))), p, Not(q), q, ForAll("x", r), r]
        for node in (Xor, Implies, Iff):
            assert subformulas(node(p, q)) == [node(p, q), p, q]
        assert subformulas(Not(p), q) == [Not(p), p, q]
        t = Function("f", (X, Function("g", (A,)), Y))
        assert subterms(t) == [t, X, Function("g", (A,)), A, Y]

    def test_deep_formula_walks_without_recursion(self):
        f = atom("p", A)
        for _ in range(5000):
            f = Not(f)
        assert len(subformulas(f)) == 5001
        t = A
        for _ in range(5000):
            t = Function("f", (t,))
        assert len(subterms(t)) == 5001
        assert free_variables(f) == set()

    def test_results_match_the_reference_walks(self):
        count = 0
        for p in walk_problems():
            count += 1
            assert p.constants() == reference_problem_constants(p), p
            assert oracle_universe(p) == reference_oracle_universe(p), p
            assert (collected_atoms(_collect_atoms, p)
                    == collected_atoms(reference_collect_atoms, p)), p
            for f in (*p.premises, p.conclusion):
                for g in subformulas(f):
                    assert free_variables(g) == reference_free_variables(g), g
        assert count > 200
