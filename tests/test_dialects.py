"""Dialect front ends: three concrete syntaxes onto one model."""

import pytest

from trilogic.dialects import DIALECTS, parse_prover9, parse_pyke, parse_z3
from trilogic.fol import (
    MAX_NESTING_DEPTH, Atom, Constant, Exists, ForAll, Iff, Implies, Not, Or,
    ParseError, Truth, Variable, WorldAssumption, Xor, pretty,
)
from trilogic.normalize import clausify_all, skolem_supply, variable_supply

from conftest import read_fixture


def p9_err(text):
    with pytest.raises(ParseError) as info:
        parse_prover9(text)
    return info.value


def z3_err(text):
    with pytest.raises(ParseError) as info:
        parse_z3(text)
    return info.value


def pyke_err(text):
    with pytest.raises(ParseError) as info:
        parse_pyke(text)
    return info.value


class TestDialectRegistry:
    def test_names(self):
        assert DIALECTS == ("prover9", "z3", "pyke")


class TestProver9:
    def test_basic_problem(self):
        p = parse_prover9("Premises:\nquiet(Anne)\nConclusion:\nquiet(Anne)\n")
        assert p.dialect == "prover9"
        assert p.premises == (Atom("quiet", (Constant("Anne"),)),)
        assert p.conclusion == Atom("quiet", (Constant("Anne"),))

    def test_unicode_connectives(self):
        p = parse_prover9("Premises:\n"
                          "∀x (quiet(x) → calm(x))\n"
                          "¬quiet(Bob) ∨ quiet(Anne)\n"
                          "quiet(Cat) ⊕ quiet(Dog)\n"
                          "Conclusion:\n∃y (calm(y))\n")
        assert [pretty(f) for f in p.premises] == [
            "all x (quiet(x) -> calm(x))",
            "-quiet(Bob) | quiet(Anne)",
            "quiet(Cat) ^ quiet(Dog)",
        ]
        assert pretty(p.conclusion) == "exists y (calm(y))"

    def test_implication_is_right_associative(self):
        p = parse_prover9("Premises:\np(A) -> q(A) -> r(A)\nConclusion:\np(A)\n")
        f = p.premises[0]
        assert isinstance(f, Implies) and isinstance(f.right, Implies)

    def test_precedence_and_over_or(self):
        p = parse_prover9("Premises:\np(A) | q(A) & r(A)\nConclusion:\np(A)\n")
        f = p.premises[0]
        assert isinstance(f, Or)
        assert pretty(f) == "p(A) | q(A) & r(A)"

    def test_iff_parses(self):
        p = parse_prover9("Premises:\np(A) <-> q(A)\nConclusion:\np(A)\n")
        assert isinstance(p.premises[0], Iff)

    def test_comments_and_blank_lines(self):
        p = parse_prover9("Premises:\n::: spoken form\n# note\n\nquiet(Anne)\n"
                          "Conclusion:\nquiet(Anne)\n")
        assert len(p.premises) == 1

    def test_headers_case_insensitive_colon_optional(self):
        p = parse_prover9("premises\nquiet(Anne)\nconclusion\nquiet(Anne)\n")
        assert len(p.premises) == 1

    def test_conclusion_only_is_allowed(self):
        p = parse_prover9("Conclusion:\nquiet(Anne)\n")
        assert p.premises == ()

    def test_quantifier_without_parens(self):
        p = parse_prover9("Premises:\nall x p(x)\nConclusion:\np(A)\n")
        assert isinstance(p.premises[0], ForAll)

    def test_lowercase_identifiers_in_scope_are_variables(self):
        p = parse_prover9("Premises:\nall x (p(x))\nConclusion:\np(anne)\n")
        assert p.premises[0].body.args == (Variable("x"),)
        # outside any scope a lowercase name is a constant
        assert p.conclusion.args == (Constant("anne"),)

    def test_multiple_conclusions_rejected(self):
        e = p9_err("Premises:\np(A)\nConclusion:\nq(A)\nConclusion:\nr(A)\n")
        assert e.message == "multiple conclusion formulas"

    def test_missing_conclusion_rejected(self):
        e = p9_err("Premises:\np(A)\n")
        assert e.message == "missing Conclusion section"

    def test_content_before_header_rejected(self):
        e = p9_err("p(A)\nPremises:\nq(A)\nConclusion:\nr(A)\n")
        assert e.message == "content before any section header"

    def test_reserved_underscore_names(self):
        e = p9_err("Premises:\n_p(A)\nConclusion:\nq(A)\n")
        assert e.message == "reserved identifier starting with '_'"

    def test_unexpected_character_has_span(self):
        e = p9_err("Premises:\np(A) @ q(A)\nConclusion:\nq(A)\n")
        assert e.message == "unexpected character '@'"
        assert str(e.span) == "line 2, column 6"

    def test_inferred_arity_conflict(self):
        e = p9_err("Premises:\np(A)\np(A, B)\nConclusion:\nq(A)\n")
        assert e.message == "inconsistent arity for predicate 'p': 1 vs 2"

    def test_declared_arity_conflict(self):
        e = p9_err("Predicates:\np(x)\nPremises:\np(A, B)\nConclusion:\np(A)\n")
        assert e.message == "arity mismatch for predicate 'p': declared 1, used with 2"

    def test_unclosed_parenthesis(self):
        e = p9_err("Premises:\np(A\nConclusion:\nq(A)\n")
        assert e.message == "expected ')'"


class TestZ3:
    def test_basic_problem(self):
        p = parse_z3("P(A)\nreturn Q(A)\n")
        assert p.dialect == "z3"
        assert p.premises == (Atom("P", (Constant("A"),)),)
        assert p.conclusion == Atom("Q", (Constant("A"),))

    def test_def_wrapper_and_indentation(self):
        p = parse_z3("def solution():\n    P(A)\n    return P(A)\n")
        assert len(p.premises) == 1

    def test_operators(self):
        p = parse_z3("ForAll([x], Implies(P(x), Not(Q(x))))\n"
                     "Xor(P(A), Q(A))\n"
                     "Or(P(A), Q(A), R(A))\n"
                     "return Exists([x], And(P(x), Q(x)))\n")
        assert [pretty(f) for f in p.premises] == [
            "all x (P(x) -> -Q(x))",
            "P(A) ^ Q(A)",
            "P(A) | Q(A) | R(A)",
        ]
        assert pretty(p.conclusion) == "exists x (P(x) & Q(x))"

    def test_double_equals_is_iff(self):
        p = parse_z3("P(A) == Q(A)\nreturn P(A)\n")
        assert isinstance(p.premises[0], Iff)

    def test_multi_variable_quantifier_desugars(self):
        p = parse_z3("ForAll([x, y], R(x, y))\nreturn R(A, A)\n")
        f = p.premises[0]
        assert isinstance(f, ForAll) and isinstance(f.body, ForAll)

    def test_unknown_operator_named_in_error(self):
        e = z3_err("Exist([x], P(x))\nreturn P(A)\n")
        assert e.message == "unknown operator 'Exist'"
        assert str(e.span) == "line 1, column 1"

    def test_assignment_rejected(self):
        e = z3_err("x = P(A)\nreturn P(A)\n")
        assert e.message == "assignment is not supported"

    def test_missing_return(self):
        e = z3_err("P(A)\n")
        assert e.message == "missing return line"

    def test_content_after_return(self):
        e = z3_err("P(A)\nreturn Q(A)\nP(B)\n")
        assert e.message == "content after the return line"

    def test_unbalanced_brackets(self):
        e = z3_err("P(A)\nreturn And(P(A)\n")
        assert e.message == "unbalanced brackets"

    def test_boolean_literal_rejected(self):
        e = z3_err("True\nreturn P(A)\n")
        assert e.message == "boolean literal is not supported"

    def test_nested_application_rejected(self):
        e = z3_err("P(Q(A))\nreturn P(A)\n")
        assert e.message == "function application in term position is not supported"

    def test_scope_variable_as_formula_rejected(self):
        e = z3_err("ForAll([x], x)\nreturn P(A)\n")
        assert e.message == "variable 'x' used as a formula"

    def test_inferred_arity_conflict(self):
        e = z3_err("P(A)\nP(A, B)\nreturn P(A)\n")
        assert e.message == "inconsistent arity for predicate 'P': 1 vs 2"


class TestPyke:
    GOOD = ("Predicates:\nquiet($x, bool)\ncalm($x, bool)\n\n"
            "Facts:\nquiet(Anne, True)\n\n"
            "Rules:\nquiet($x, True) >>> calm($x, True)\n\n"
            "Query:\ncalm(Anne)\n")

    def test_basic_program(self):
        prog = parse_pyke(self.GOOD)
        assert prog.predicates == (("quiet", 1), ("calm", 1))
        assert prog.facts == (("quiet", ("Anne",), True),)
        assert prog.query == ("calm", ("Anne",))
        assert len(prog.rules) == 1

    def test_rule_shape(self):
        rule = parse_pyke(self.GOOD).rules[0]
        assert [l.predicate for l in rule.body] == ["quiet"]
        assert rule.head.predicate == "calm"
        assert rule.head.value is True

    def test_stray_trailing_paren_on_rule_tolerated(self):
        text = self.GOOD.replace(">>> calm($x, True)", ">>> calm($x, True))")
        assert len(parse_pyke(text).rules) == 1

    def test_rules_listed_under_facts_section(self):
        text = ("Predicates:\nquiet($x, bool)\ncalm($x, bool)\n\n"
                "Facts:\nquiet(Anne, True)\nquiet($x, True) >>> calm($x, True)\n\n"
                "Query:\ncalm(Anne)\n")
        prog = parse_pyke(text)
        assert len(prog.rules) == 1 and len(prog.facts) == 1

    def test_connective_words_rejected(self):
        for word in ("Xor", "Exists", "ForAll", "Or", "Not", "Implies"):
            e = pyke_err(self.GOOD.replace("calm(Anne)", f"{word}(calm(Anne))"))
            assert e.message == f"unsupported connective '{word}'"

    def test_connective_characters_rejected(self):
        bad = self.GOOD.replace("quiet(Anne, True)",
                                "quiet(Anne, True) | calm(Anne, True)")
        assert pyke_err(bad).message == "unsupported connective '|'"

    def test_head_variables_must_be_bound(self):
        bad = self.GOOD.replace("calm($x, True)", "calm($y, True)")
        e = pyke_err(bad)
        assert e.message == "head variable '$y' not bound in the rule body"

    def test_declaration_requires_bool(self):
        e = pyke_err("Predicates:\nquiet($x)\n\nFacts:\n\nQuery:\nquiet(Anne)\n")
        assert e.message == "declaration of 'quiet' needs a final 'bool' slot"

    def test_fact_requires_truth_slot(self):
        bad = self.GOOD.replace("quiet(Anne, True)", "quiet(Anne)")
        e = pyke_err(bad)
        assert e.message == "literal 'quiet' needs a final True/False slot"

    def test_fact_with_variable_rejected(self):
        bad = self.GOOD.replace("quiet(Anne, True)", "quiet($x, True)")
        assert pyke_err(bad).message == "variable '$x' in a fact"

    def test_arity_deferred_to_compile(self):
        # parse accepts the mismatch; the engine reports it as a runtime error
        bad = self.GOOD.replace("quiet(Anne, True)", "quiet(Anne, Bob, True)")
        prog = parse_pyke(bad)
        assert prog.facts[0][1] == ("Anne", "Bob")


class TestCrossDialect:
    def clause_set(self, problem):
        clauses = clausify_all(problem.premises + (problem.conclusion,),
                               variable_supply(), skolem_supply())
        return {str(c) for c in clauses}

    def test_same_problem_same_clauses(self):
        p9 = parse_prover9("Premises:\n"
                           "white(Anne)\n"
                           "all x (white(x) -> quiet(x))\n"
                           "Conclusion:\nquiet(Anne)\n")
        z3 = parse_z3("white(Anne)\n"
                      "ForAll([x], Implies(white(x), quiet(x)))\n"
                      "return quiet(Anne)\n")
        assert self.clause_set(p9) == self.clause_set(z3)

    def test_fixture_translations_agree(self):
        p9 = parse_prover9(read_fixture("anne.p9"))
        z3 = parse_z3(read_fixture("anne.z3"))
        assert self.clause_set(p9) == self.clause_set(z3)


def _p9(conclusion):
    return parse_prover9(f"Premises:\np(A)\nConclusion:\n{conclusion}\n")


def _z3(conclusion):
    return parse_z3(f"p(A)\nreturn {conclusion}\n")


def _pyke_rule(n):
    body = " && ".join(["p($x, True)"] * n)
    return parse_pyke(f"Facts:\np(A, True)\nRules:\n{body} >>> q($x, True)\n"
                      "Query:\nq(A)\n")


# shape -> parse a text nested n levels deep
NESTED = {
    "prover9-not": lambda n: _p9("-" * n + "p(A)"),
    "prover9-parentheses": lambda n: _p9("(" * n + "p(A)" + ")" * n),
    "prover9-implication": lambda n: _p9("p(A) -> " * n + "p(A)"),
    "prover9-quantifier": lambda n: _p9("all x " * n + "p(A)"),
    "prover9-term": lambda n: _p9("p(" + "f(" * n + "A" + ")" * n + ")"),
    "z3-not": lambda n: _z3("Not(" * n + "p(A)" + ")" * n),
    "z3-parentheses": lambda n: _z3("(" * n + "p(A)" + ")" * n),
    "z3-forall": lambda n: _z3("".join(f"ForAll([x{i}], " for i in range(n))
                               + "p(A)" + ")" * n),
    "pyke-rule-body": _pyke_rule,
}


class TestNestingCap:
    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_deep_input_is_a_parse_error(self, shape):
        with pytest.raises(ParseError, match="nested deeper than"):
            NESTED[shape](3000)

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_moderate_depth_parses(self, shape):
        NESTED[shape](150)

    @pytest.mark.parametrize("shape", ["prover9-not", "z3-not", "pyke-rule-body"])
    def test_cap_is_exact(self, shape):
        NESTED[shape](MAX_NESTING_DEPTH)
        with pytest.raises(ParseError):
            NESTED[shape](MAX_NESTING_DEPTH + 1)

    def test_span_points_where_the_cap_was_hit(self):
        err = p9_err("Premises:\np(A)\nConclusion:\n" + "-" * 3000 + "p(A)\n")
        assert (err.span.line, err.span.column) == (4, MAX_NESTING_DEPTH + 1)
