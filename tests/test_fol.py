"""Formula model: construction, free variables, substitution, printing."""

import pytest

from trilogic.fol import (
    And, Atom, Clause, Constant, Exists, ForAll, Function, Iff, Implies,
    Literal, Not, Or, Variable, Xor, formula_constants, free_variables,
    pretty, substitute_term,
)


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


class TestSubstitution:
    def test_term_substitution_recurses_into_functions(self):
        t = Function("f", (X, Function("g", (Y,))))
        s = substitute_term(t, {"y": B})
        assert s == Function("f", (X, Function("g", (B,))))


class TestConstants:
    def test_collects_nested_constants(self):
        f = And((atom("p", A), ForAll("x", atom("r", X, B))))
        assert formula_constants(f) == {"Anne", "Bob"}

    def test_skolem_function_constants(self):
        f = atom("p", Function("_sk0", (A,)))
        assert formula_constants(f) == {"Anne"}


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
        c = Clause((l1, l1.negated()))
        assert c.is_tautology()
        assert not Clause((l1,)).is_tautology()

    def test_str_form(self):
        c = Clause((Literal(False, atom("p", A)), Literal(True, atom("q", X))))
        assert str(c) == "-p(Anne) | q(x)"
        assert str(Clause(())) == "$false"
