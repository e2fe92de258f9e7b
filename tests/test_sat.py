"""Grounding and CDCL engine: propositionalization, models, verdicts."""

import itertools
import random
import time

import pytest

from trilogic.fol import (
    Atom, Clause, Constant, DEFAULT_LIMITS, DeadlineExceeded, ExecError,
    Function, Literal, ResourceLimits, Truth, Variable, WorldAssumption,
)
from trilogic.dialects import parse_z3
from trilogic.sat import (
    GroundAtomTable, PropClauseSet, dpll, entail_sat, ground, to_dimacs,
)

X = Variable("x")
A = Constant("A")


def at(p, *args):
    return Atom(p, tuple(args))


def lit(p, *args, pos=True):
    return Literal(pos, at(p, *args))


class TestGround:
    def test_instantiates_over_sorted_universe(self):
        cs = ground([Clause((lit("p", X, pos=False), lit("q", X))),
                     Clause((lit("p", A),))], ["A", "B"], DEFAULT_LIMITS)
        assert cs.clauses == [(-1, 2), (-3, 4), (1,)]
        assert cs.atom_count == 4

    def test_empty_universe_gets_dummy_constant(self):
        cs = ground([Clause((lit("p", X),))], [], DEFAULT_LIMITS)
        assert to_dimacs(cs).splitlines()[0] == "c 1 p(_c0)"

    def test_ground_tautologies_skipped(self):
        cs = ground([Clause((lit("p", X), lit("p", X, pos=False)))], ["A"],
                    DEFAULT_LIMITS)
        assert cs.clauses == []

    def test_function_terms_rejected(self):
        c = Clause((Literal(True, at("p", Function("f", (A,)))),))
        with pytest.raises(ExecError, match="unsupported fragment"):
            ground([c], ["A"], DEFAULT_LIMITS)

    def test_past_deadline_raises(self):
        with pytest.raises(DeadlineExceeded):
            ground([Clause((lit("p", X),))], ["A"], DEFAULT_LIMITS,
                   deadline=time.monotonic() - 1)

    def test_budget_enforced(self):
        tight = ResourceLimits(max_generated_clauses=10, max_clause_literals=64,
                               wall_ms=1000, max_cnf_clauses=100,
                               max_ground_literals=3)
        big = [Clause((lit("r", X, Variable("y")),))]
        with pytest.raises(ExecError, match="grounding budget"):
            ground(big, ["A", "B"], tight)


class TestDimacs:
    def test_header_and_clause_lines(self):
        cs = ground([Clause((lit("p", A),)), Clause((lit("q", A, pos=False),))],
                    ["A"], DEFAULT_LIMITS)
        lines = to_dimacs(cs).splitlines()
        assert "p cnf 2 2" in lines
        assert lines[-1] == "-2 0"


class TestDpll:
    def test_satisfiable_returns_total_model(self):
        cs = ground([Clause((lit("p", X, pos=False), lit("q", X))),
                     Clause((lit("p", A),))], ["A", "B"], DEFAULT_LIMITS)
        model = dpll(cs)
        assert model == {1: True, 2: True, 3: True, 4: True}

    def test_unsat_returns_none(self):
        cs = ground([Clause((lit("p", A),)), Clause((lit("p", A, pos=False),))],
                    ["A"], DEFAULT_LIMITS)
        assert dpll(cs) is None

    def test_unit_propagation_chain(self):
        cs = ground([Clause((lit("a", A),)),
                     Clause((lit("a", A, pos=False), lit("b", A))),
                     Clause((lit("b", A, pos=False), lit("c", A)))],
                    ["A"], DEFAULT_LIMITS)
        assert dpll(cs) == {1: True, 2: True, 3: True}

    def test_backtracking_needed(self):
        # p | q, -p | q, p | -q forces p=q=true after trying p=false
        cs = ground([Clause((lit("p", A), lit("q", A))),
                     Clause((lit("p", A, pos=False), lit("q", A))),
                     Clause((lit("p", A), lit("q", A, pos=False)))],
                    ["A"], DEFAULT_LIMITS)
        assert dpll(cs) == {1: True, 2: True}

    def test_agrees_with_truth_table_on_random_cnf(self):
        rng = random.Random(77)
        for _ in range(200):
            n = rng.randint(1, 10)
            clauses = []
            for _ in range(rng.randint(1, 4 * n)):
                width = rng.randint(1, 3)
                chosen = rng.sample(range(1, n + 1), min(width, n))
                clauses.append(tuple(v if rng.random() < 0.5 else -v
                                     for v in chosen))
            cs = PropClauseSet(clauses, n, GroundAtomTable())
            model = dpll(cs)
            brute_sat = any(
                all(any((l > 0) == bits[abs(l) - 1] for l in clause)
                    for clause in clauses)
                for bits in itertools.product((False, True), repeat=n))
            assert (model is not None) == brute_sat
            if model is not None:
                assert all(any((l > 0) == model[abs(l)] for l in clause)
                           for clause in clauses)

    def test_many_decisions_do_not_recurse(self):
        # one decision per clause; a recursive search ran out of stack here
        cs = PropClauseSet([(2 * i + 1, 2 * i + 2) for i in range(1200)],
                           2400, GroundAtomTable())
        model = dpll(cs)
        assert model is not None
        assert all(model[2 * i + 1] or model[2 * i + 2] for i in range(1200))

    @pytest.mark.parametrize("holes", [4, 5])
    def test_pigeonhole_unsat(self, holes):
        assert dpll(pigeonhole(holes + 1, holes)) is None

    def test_pigeonhole_with_room_is_sat(self):
        cs = pigeonhole(5, 5)
        model = dpll(cs)
        assert model is not None
        assert all(any((l > 0) == model[abs(l)] for l in c)
                   for c in cs.clauses)

    def test_agrees_with_reference_on_random_3cnf(self):
        rng = random.Random(2003)
        answers = set()
        for _ in range(40):
            n = rng.randint(20, 40)
            clauses = [tuple(v if rng.random() < 0.5 else -v
                             for v in rng.sample(range(1, n + 1), 3))
                       for _ in range(round(n * rng.uniform(3.8, 4.8)))]
            cs = PropClauseSet(clauses, n, GroundAtomTable())
            model = dpll(cs)
            assert (model is None) == (reference_dpll(cs) is None)
            answers.add(model is None)
            if model is not None:
                assert sorted(model) == list(range(1, n + 1))
                assert all(any((l > 0) == model[abs(l)] for l in c)
                           for c in clauses)
        assert answers == {True, False}  # both answers were exercised

    def test_repeated_and_tautological_literals(self):
        cs = PropClauseSet([(1, 1, -2), (2, -2), (-1,), (2, 2)], 2,
                           GroundAtomTable())
        assert dpll(cs) is None
        cs = PropClauseSet([(1, 1), (3, -3)], 3, GroundAtomTable())
        assert dpll(cs) == {1: True, 2: True, 3: True}

    def test_past_deadline_raises_at_first_conflict(self):
        with pytest.raises(DeadlineExceeded):
            dpll(pigeonhole(5, 4), deadline=time.monotonic() - 1)
        # no conflict, so the deadline is never looked at
        cs = PropClauseSet([(1, 2), (-1, 3)], 3, GroundAtomTable())
        assert dpll(cs, deadline=time.monotonic() - 1) == {
            1: True, 2: True, 3: True}


def pigeonhole(pigeons, holes):
    """Each pigeon in some hole, no two in one; atom p*holes + h + 1."""
    def atom(p, h):
        return p * holes + h + 1
    clauses = [tuple(atom(p, h) for h in range(holes))
               for p in range(pigeons)]
    clauses += [(-atom(a, h), -atom(b, h)) for h in range(holes)
                for a in range(pigeons) for b in range(a + 1, pigeons)]
    return PropClauseSet(clauses, pigeons * holes, GroundAtomTable())


def reference_dpll(cs):
    """The recursive, clause-copying DPLL the CDCL search replaced."""

    def simplify(clauses, lit):
        out = []
        for c in clauses:
            if lit in c:
                continue
            reduced = tuple(x for x in c if x != -lit)
            if not reduced:
                return None
            out.append(reduced)
        return out

    def solve(clauses, assign):
        while True:
            unit = next((c[0] for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            assign[abs(unit)] = unit > 0
            clauses = simplify(clauses, unit)
            if clauses is None:
                return None
        if not clauses:
            return assign
        var = min(abs(l) for c in clauses for l in c)
        for lit in (var, -var):
            reduced = simplify(clauses, lit)
            if reduced is not None:
                result = solve(reduced, {**assign, var: lit > 0})
                if result is not None:
                    return result
        return None

    return solve(list(cs.clauses), {})


class TestEntailSat:
    def run(self, text, assumption=WorldAssumption.OWA):
        return entail_sat(parse_z3(text, assumption))

    def test_positive_entailment(self):
        out = self.run("P(A)\nForAll([x], Implies(P(x), Q(x)))\nreturn Q(A)\n")
        assert out.verdict.value is Truth.TRUE

    def test_negative_entailment(self):
        out = self.run("Not(Q(A))\nreturn Q(A)\n")
        assert out.verdict.value is Truth.FALSE

    def test_independent_conclusion(self):
        out = self.run("P(A)\nreturn Q(A)\n")
        assert out.verdict.value is Truth.UNKNOWN

    def test_contradictory_premises(self):
        out = self.run("P(A)\nNot(P(A))\nreturn Q(A)\n")
        assert type(out).__name__ == "Inconsistent"

    def test_skolem_function_falls_outside_fragment(self):
        out = self.run("ForAll([x], Exists([y], R(x, y)))\nreturn R(A, A)\n")
        assert type(out).__name__ == "ExecFailed"
        assert "unsupported fragment" in out.detail

    def test_toplevel_existential_is_fine(self):
        # a lone existential skolemizes to a constant, which grounds cleanly
        out = self.run("Exists([x], P(x))\nForAll([x], Implies(P(x), Q(x)))\n"
                       "return Exists([x], Q(x))\n")
        assert out.verdict.value is Truth.TRUE

    def test_deadline_gives_resource_limited_unknown(self):
        # 9 pigeons in 8 holes is far beyond this engine in 2 seconds, on
        # both sides: the conclusion is unrelated to the pigeons (with
        # inh(P0, H0) the C side leaves 8 pigeons in 7 holes, which can end
        # in time and answer False)
        pigeons = [f"P{i}" for i in range(9)]
        holes = [f"H{j}" for j in range(8)]
        lines = ["Or(" + ", ".join(f"inh({p}, {h})" for h in holes) + ")"
                 for p in pigeons]
        lines += [f"Not(And(inh({a}, {h}), inh({b}, {h})))" for h in holes
                  for i, a in enumerate(pigeons) for b in pigeons[i + 1:]]
        lines.append("return q(A)")
        problem = parse_z3("\n".join(lines) + "\n")
        start = time.monotonic()
        out = entail_sat(problem, ResourceLimits(wall_ms=2000))
        elapsed = time.monotonic() - start
        assert out.verdict.value is Truth.UNKNOWN
        assert out.verdict.resource_limited
        # the budget, with room for a loaded host
        assert elapsed < 4.0

    def test_first_query_past_its_deadline_leaves_time_for_second(self):
        # grounding P and not C needs 8^7 instances, far past half of this
        # budget; P and C is UNSAT at once, so the answer is still False
        facts = "".join(f"p(A{i})\n" for i in range(7))
        xs = ", ".join(f"x{i}" for i in range(7))
        text = (f"Not(q(B))\n{facts}"
                f"return And(q(B), Exists([{xs}], r({xs})))\n")
        limits = ResourceLimits(wall_ms=400, max_ground_literals=10 ** 8)
        out = entail_sat(parse_z3(text), limits)
        assert out.verdict.value is Truth.FALSE
        assert not out.verdict.resource_limited
