"""Clausification pipeline: connective elimination, NNF, skolemization, CNF."""

import time

import pytest

from trilogic.dialects import parse_prover9, parse_z3
from trilogic.fol import (
    And, Answered, Atom, Constant, DeadlineExceeded, ExecError, ExecFailed,
    Exists, ForAll, Iff, Implies, Not, Or, ResourceLimits, Variable, Xor,
    free_variables,
)
from trilogic.normalize import (
    clausify, clausify_all, clausify_formula, clock, eliminate_connectives,
    skolem_supply, skolemize, standardize_apart, to_nnf, variable_supply,
)
from trilogic.resolution import entail_resolution
from trilogic.sat import entail_sat

X = Variable("x")
Y = Variable("y")
A = Constant("A")


def atom(p, *args):
    return Atom(p, tuple(args))


def cf(f, limits=None):
    args = (f, variable_supply(), skolem_supply())
    clauses = clausify_formula(*args) if limits is None else clausify_formula(*args, limits)
    return [str(c) for c in clauses]


class TestEliminateConnectives:
    def test_implies(self):
        f = eliminate_connectives(Implies(atom("p", A), atom("q", A)))
        assert f == Or((Not(atom("p", A)), atom("q", A)))

    def test_xor_expands_to_two_disjunctions(self):
        f = eliminate_connectives(Xor(atom("p", A), atom("q", A)))
        assert str(f) == "(p(A) | q(A)) & (-p(A) | -q(A))"

    def test_iff_expands_to_two_implications(self):
        f = eliminate_connectives(Iff(atom("p", A), atom("q", A)))
        assert str(f) == "(-p(A) | q(A)) & (-q(A) | p(A))"


class TestNnf:
    def test_negation_over_forall(self):
        f = to_nnf(Not(ForAll("x", atom("p", X))))
        assert f == Exists("x", Not(atom("p", X)))

    def test_negation_over_exists(self):
        f = to_nnf(Not(Exists("x", atom("p", X))))
        assert f == ForAll("x", Not(atom("p", X)))

    def test_de_morgan(self):
        f = to_nnf(Not(And((atom("p", A), atom("q", A)))))
        assert f == Or((Not(atom("p", A)), Not(atom("q", A))))

    def test_double_negation(self):
        assert to_nnf(Not(Not(atom("p", A)))) == atom("p", A)


class TestStandardizeApart:
    def test_shadowed_binders_get_distinct_names(self):
        f = And((ForAll("x", atom("p", X)), Exists("x", atom("q", X))))
        g = standardize_apart(f, variable_supply())
        assert str(g) == "all _v0 (p(_v0)) & exists _v1 (q(_v1))"

    def test_free_variables_survive(self):
        f = ForAll("x", atom("r", X, Y))
        g = standardize_apart(f, variable_supply())
        assert free_variables(g) == {"y"}


class TestSkolemize:
    def test_toplevel_existential_becomes_constant(self):
        assert cf(Exists("x", atom("p", X))) == ["p(_sk0)"]

    def test_existential_under_universal_becomes_function(self):
        f = ForAll("x", Exists("y", atom("r", X, Y)))
        assert cf(f) == ["r(_v0, _sk0(_v0))"]

    def test_skolemize_keeps_universals(self):
        f = skolemize(standardize_apart(ForAll("x", atom("p", X)),
                                        variable_supply()), skolem_supply())
        assert isinstance(f, ForAll)


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


def iff_chain(links):
    """p(A) <-> (p(A) <-> ...) with links + 1 atoms."""
    f = atom("p", A)
    for _ in range(links):
        f = Iff(atom("p", A), f)
    return f


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
        f = iff_chain(12)
        g = eliminate_connectives(f)
        nnf = to_nnf(g)
        for walk in (lambda tick: to_nnf(g, tick),
                     lambda tick: standardize_apart(nnf, variable_supply(),
                                                    tick),
                     lambda tick: skolemize(nnf, skolem_supply(), tick),
                     # 2^11 clauses of 11 literals
                     lambda tick: clausify(Or(tuple(
                         And((atom(f"a{i}", A), atom(f"b{i}", A)))
                         for i in range(11))), tick=tick)):
            with pytest.raises(DeadlineExceeded):
                walk(clock(past))
        with pytest.raises(DeadlineExceeded):
            clausify_formula(f, variable_supply(), skolem_supply(),
                             deadline=past)

    def test_clock_reads_once_per_1024_ticks(self):
        tick = clock(time.monotonic() - 1)
        for _ in range(1023):
            tick()
        with pytest.raises(DeadlineExceeded):
            tick()

    def test_small_formula_never_reads_the_clock(self):
        f = Iff(atom("p", A), atom("q", A))
        assert len(clausify_formula(f, variable_supply(), skolem_supply(),
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
