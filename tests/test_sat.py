"""Grounding and CDCL engine: propositionalization, models, verdicts."""

import itertools
import math
import random
import re
import time
import types

import pytest

from trilogic.fol import (
    Answered, Atom, Clause, Constant, DEFAULT_LIMITS, DeadlineExceeded,
    ExecError, ExecFailed, Function, Inconsistent, Literal, Not,
    ResourceLimits, Truth, Variable, Verdict, subterms,
)
from trilogic.dialects import parse_prover9, parse_z3
from trilogic.normalize import clausify_all, skolem_supply, variable_supply
from trilogic.sat import (
    PropClauseSet, dpll, entail_sat, ground, to_dimacs,
)
from trilogic.testkit import FULL_FOL, HORN, GenConfig, generate_suite

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
        with pytest.raises(ExecError, match=re.escape(
                "unsupported fragment: function term f/1 (function terms "
                "need the resolution engine)")):
            ground([c], ["A"], DEFAULT_LIMITS)

    def test_skolem_functions_named_as_such(self):
        c = Clause((Literal(True, at("p", Function("_sk0", (X,)))),))
        with pytest.raises(ExecError, match=re.escape(
                "unsupported fragment: function term _sk0/1 (skolem "
                "functions of arity >= 1 need the resolution engine)")):
            ground([c], ["A"], DEFAULT_LIMITS)

    def test_past_deadline_raises(self):
        with pytest.raises(DeadlineExceeded):
            ground([Clause((lit("p", X),))], ["A"], DEFAULT_LIMITS,
                   deadline=time.monotonic() - 1)

    def test_extends_a_base_grounding(self):
        premises = [Clause((lit("p", X, pos=False), lit("q", X))),
                    Clause((lit("p", A),))]
        # the second clause of each goal repeats a premise instance
        goal = [Clause((lit("q", X, pos=False), lit("r", X))),
                Clause((lit("p", A),))]
        other = [Clause((lit("s", A),)),
                 Clause((lit("p", X, pos=False), lit("q", X)))]
        want = {id(goal): ([(-2, 5), (-4, 6)], 6),
                id(other): ([(5,)], 5)}
        # the base holds 5 literals; goal adds 4 and other adds 1
        fits_other_only = ResourceLimits(max_ground_literals=8)
        fits_both = ResourceLimits(max_ground_literals=9)
        for order in ((goal, other), (other, goal)):
            base = ground(premises, ["A", "B"])
            clauses, table = list(base.clauses), dict(base.table)
            for g in order:
                on_top = ground(g, ["A", "B"], base=base)
                assert (on_top.clauses, on_top.atom_count) == want[id(g)]
                assert ground(g, ["A", "B"], fits_both, base=base) == on_top
                if g is goal:
                    assert on_top.table[("r", ("B",))] == 6
                    with pytest.raises(ExecError, match="grounding budget"):
                        ground(g, ["A", "B"], fits_other_only, base=base)
                else:
                    assert ground(g, ["A", "B"], fits_other_only,
                                  base=base) == on_top
                both = PropClauseSet(base.clauses + on_top.clauses,
                                     on_top.atom_count, on_top.table)
                assert to_dimacs(both) == to_dimacs(ground(premises + g,
                                                           ["A", "B"]))
            # base is untouched
            assert base.clauses == clauses == [(-1, 2), (-3, 4), (1,)]
            assert base.table == table
            assert len(base.table) == base.atom_count == 4

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

    def test_zero_arity_and_binary_atom_bytes(self):
        # recorded before the atom table dropped its Atom list
        y = Variable("y")
        premises = [Clause((lit("rain", pos=False), lit("r", X, A))),
                    Clause((lit("rain"),)),
                    Clause((lit("r", X, y, pos=False), lit("r", y, X)))]
        goal = [Clause((lit("wet", pos=False), lit("r", A, X)))]
        base = ground(premises, ["A", "B"])
        on_top = ground(goal, ["A", "B"], base=base)
        both = PropClauseSet(base.clauses + on_top.clauses,
                             on_top.atom_count, on_top.table)
        atoms = ("c 1 r(A, A)\nc 2 rain\nc 3 r(B, A)\nc 4 r(A, B)\n"
                 "c 5 r(B, B)\n")
        assert to_dimacs(base) == (
            atoms + "p cnf 5 5\n1 -2 0\n-2 3 0\n2 0\n3 -4 0\n-3 4 0")
        assert to_dimacs(both) == (
            atoms + "c 6 wet\np cnf 6 7\n1 -2 0\n-2 3 0\n2 0\n3 -4 0\n"
            "-3 4 0\n1 -6 0\n4 -6 0")


class TestDpll:
    def test_satisfiable_returns_total_model(self):
        cs = ground([Clause((lit("p", X, pos=False), lit("q", X))),
                     Clause((lit("p", A),))], ["A", "B"], DEFAULT_LIMITS)
        model = dpll(cs)
        # p(A) is forced, q(A) follows; nothing forces the rest, and
        # branching tries False first
        assert model == {1: True, 2: True, 3: False, 4: False}

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
            cs = PropClauseSet(clauses, n, {})
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
                           2400, {})
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
            cs = PropClauseSet(clauses, n, {})
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
                           {})
        assert dpll(cs) is None
        cs = PropClauseSet([(1, 1), (3, -3)], 3, {})
        assert dpll(cs) == {1: True, 2: False, 3: False}

    def test_past_deadline_raises_at_first_conflict(self):
        with pytest.raises(DeadlineExceeded):
            dpll(pigeonhole(5, 4), deadline=time.monotonic() - 1)
        # no conflict, so the deadline is never looked at
        cs = PropClauseSet([(1, 2), (-1, 3)], 3, {})
        assert dpll(cs, deadline=time.monotonic() - 1) == {
            1: False, 2: True, 3: False}

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_pigeonhole_with_room_needs_no_conflict(self, n):
        # with False first, each pigeon's last free hole is forced, so the
        # search never conflicts and never looks at the past deadline
        model = dpll(pigeonhole(n, n), deadline=time.monotonic() - 1)
        assert model is not None
        assert sum(model.values()) == n

    def test_unforced_atom_comes_out_false(self):
        cs = PropClauseSet([(1, 2)], 2, {})
        assert dpll(cs) == {1: False, 2: True}


class TestDpllOnABase:
    """dpll(top, base=base) is the search over base's clauses followed by
    top's: the same model, or None, after the same number of conflicts."""

    @pytest.fixture
    def search(self, monkeypatch):
        # the deadline is read once per conflict, so the clock reads count
        # conflicts; a model alone would not show a changed search, since
        # the search ends in the least model (False first, lowest index
        # first) whatever path it takes
        reads = []

        def clock():
            reads.append(None)
            return 0.0

        monkeypatch.setattr("trilogic.sat.time",
                            types.SimpleNamespace(monotonic=clock))

        def search(cs, base=None):
            reads.clear()
            model = dpll(cs, math.inf, base)
            return model, len(reads)
        return search

    @staticmethod
    def joined(base, top):
        return PropClauseSet(base.clauses + top.clauses, top.atom_count,
                             top.table)

    def splits(self):
        """(base clauses, base atoms, two tops) triples; a top's atom
        count is at least its base's, as ground numbers atoms on."""
        rng = random.Random(24)
        for _ in range(150):
            n = rng.randint(1, 12)
            clauses = []
            for _ in range(rng.randint(1, 5 * n)):
                # drawn with replacement: repeats and tautologies happen
                width = rng.choice((0,) + (1, 2, 3, 4) * 15)
                clauses.append(tuple(rng.choice((1, -1)) * rng.randint(1, n)
                                     for _ in range(width)))
            yield self.split(rng, clauses, n)
        for _ in range(150):
            # random 3-CNF near the threshold, where searches conflict
            n = rng.randint(15, 40)
            clauses = [tuple(rng.choice((1, -1)) * v
                             for v in rng.sample(range(1, n + 1), 3))
                       for _ in range(round(n * rng.uniform(3.0, 4.3)))]
            yield self.split(rng, clauses, n)
        for pigeons, holes in ((5, 4), (4, 4), (6, 5)):
            cs = pigeonhole(pigeons, holes)
            for k in (0, pigeons, len(cs.clauses) // 2, len(cs.clauses)):
                top = PropClauseSet(cs.clauses[k:], cs.atom_count, {})
                yield (cs.clauses[:k], cs.atom_count, top,
                       PropClauseSet(cs.clauses[pigeons:k], cs.atom_count,
                                     {}))

    @staticmethod
    def split(rng, clauses, n):
        k = rng.randint(0, len(clauses))
        below = rng.randint(0, n)
        return (clauses[:k], below,
                PropClauseSet(clauses[k:], n, {}),
                PropClauseSet(rng.sample(clauses, rng.randint(0, k)),
                              rng.randint(below, n), {}))

    def groundings(self):
        """(premise grounding, goal groundings), as entail_sat has them."""
        texts = [closure_text(n, forward) for n in (4, 6)
                 for forward in (True, False)]
        texts += [pigeonhole_text(5, 4), pigeonhole_text(4, 4)]
        for text in texts:
            p = parse_z3(text)
            var_supply, sk_supply = variable_supply(), skolem_supply()
            premises = clausify_all(p.premises, var_supply, sk_supply)
            goals = [clausify_all([c], var_supply, sk_supply)
                     for c in (Not(p.conclusion), p.conclusion)]
            constants = p.constants()
            base = ground(premises, constants)
            yield base, [ground(g, constants, base=base) for g in goals]

    def test_matches_the_joined_clause_set(self, search):
        answers, conflicts = set(), 0
        for clauses, atoms, *tops in self.splits():
            for order in (tops, tops[::-1]):
                base = PropClauseSet(list(clauses), atoms, {})
                for top in order:
                    want = search(self.joined(base, top))
                    assert search(top, base) == want
                    answers.add(want[0] is None)
                    conflicts += want[1]
                # the searches left base's clauses as they were
                assert base.clauses == clauses
        assert answers == {True, False}
        assert conflicts > 1000

    def test_matches_the_joined_groundings(self, search):
        answers, conflicts = set(), 0
        for base, tops in self.groundings():
            want = [search(self.joined(base, top)) for top in tops]
            for order in ((0, 1), (1, 0)):
                got = [search(tops[i], base) for i in order]
                assert got == [want[i] for i in order]
            answers.update(model is None for model, _ in want)
            conflicts += sum(n for _, n in want)
        assert answers == {True, False}
        assert conflicts > 0

    def test_a_goal_on_a_premise_base_is_the_joined_grounding(self, search):
        # each goal over its own universe, skolem constants included, as
        # entail_sat grounds a goal that brings constants of its own
        def constants_of(clauses):
            return {t.name for c in clauses for lit in c
                    for arg in lit.atom.args for t in subterms(arg)
                    if isinstance(t, Constant)}

        own = 0
        for text in QUANTIFIED_TEXTS:
            p = parse_z3(text)
            var_supply, sk_supply = variable_supply(), skolem_supply()
            premises = clausify_all(p.premises, var_supply, sk_supply)
            constants = p.constants() | constants_of(premises)
            for c in (Not(p.conclusion), p.conclusion):
                goal = clausify_all([c], var_supply, sk_supply)
                universe = constants | constants_of(goal)
                own += universe != constants
                base = ground(premises, universe)
                top = ground(goal, universe, base=base)
                joined = ground(premises + goal, universe)
                assert base.clauses + top.clauses == joined.clauses
                assert list(top.table.items()) == list(joined.table.items())
                assert top.atom_count == joined.atom_count
                assert search(top, base) == search(joined)
        assert own == 9  # as QUANTIFIED_TEXTS sorts its goals


def pigeonhole(pigeons, holes):
    """Each pigeon in some hole, no two in one; atom p*holes + h + 1."""
    def atom(p, h):
        return p * holes + h + 1
    clauses = [tuple(atom(p, h) for h in range(holes))
               for p in range(pigeons)]
    clauses += [(-atom(a, h), -atom(b, h)) for h in range(holes)
                for a in range(pigeons) for b in range(a + 1, pigeons)]
    return PropClauseSet(clauses, pigeons * holes, {})


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


def reference_entail_sat(p, limits=DEFAULT_LIMITS):
    """entail_sat as it was before the premises were grounded once: each
    query grounds the premises with its goal, over the named constants and
    the skolem constants of the premises and of that goal."""
    first_deadline, deadline = limits.deadline(0.5), limits.deadline()
    var_supply, sk_supply = variable_supply(), skolem_supply()
    try:
        premises = clausify_all(p.premises, var_supply, sk_supply, limits)
        neg_goal = clausify_all([Not(p.conclusion)], var_supply, sk_supply,
                                limits)
        pos_goal = clausify_all([p.conclusion], var_supply, sk_supply, limits)
    except ExecError as e:
        return ExecFailed(str(e))

    base = p.constants()

    def satisfiable(goal, deadline):
        side = premises + goal
        constants = base | {t.name for c in side for lit in c
                            for arg in lit.atom.args for t in subterms(arg)
                            if isinstance(t, Constant)}
        try:
            cs = ground(side, constants, limits, deadline)
            return dpll(cs, deadline) is not None
        except DeadlineExceeded:
            return None

    try:
        sat_with_neg = satisfiable(neg_goal, first_deadline)
        sat_with_pos = satisfiable(pos_goal, deadline)
    except ExecError as e:
        return ExecFailed(str(e))

    if sat_with_neg is False and sat_with_pos is False:
        return Inconsistent()
    if sat_with_neg is False:
        return Answered(Verdict(Truth.TRUE))
    if sat_with_pos is False:
        return Answered(Verdict(Truth.FALSE))
    if sat_with_neg and sat_with_pos:
        return Answered(Verdict(Truth.UNKNOWN))
    return Answered(Verdict(Truth.UNKNOWN, resource_limited=True))


def pigeonhole_text(pigeons, holes, conclusion="inh(P0, H0)"):
    """Every pigeon in some hole, no hole shared; z3 text."""
    ps = [f"P{i}" for i in range(pigeons)]
    hs = [f"H{j}" for j in range(holes)]
    lines = ["Or(" + ", ".join(f"inh({p}, {h})" for h in hs) + ")"
             for p in ps]
    lines += [f"Not(And(inh({a}, {h}), inh({b}, {h})))" for h in hs
              for i, a in enumerate(ps) for b in ps[i + 1:]]
    return "\n".join(lines) + f"\nreturn {conclusion}\n"


def closure_text(n, forward):
    """A chain of n constants under a transitive path rule; z3 text."""
    cs = [f"C{i}" for i in range(n)]
    src, dst = (cs[0], cs[-1]) if forward else (cs[-1], cs[0])
    lines = [f"edge({a}, {b})" for a, b in zip(cs, cs[1:])]
    lines += ["ForAll([x, y], Implies(edge(x, y), path(x, y)))",
              "ForAll([x, y, z], Implies(And(path(x, y), edge(y, z)), "
              "path(x, z)))"]
    return "\n".join(lines) + f"\nreturn path({src}, {dst})\n"


# conclusions whose negation, assertion or both bring skolem constants
QUANTIFIED_TEXTS = (
    # the P-and-C goal has one (and in the first, the premises too)
    "Exists([x], P(x))\nForAll([x], Implies(P(x), Q(x)))\n"
    "return Exists([x], Q(x))\n",
    "ForAll([x], Not(P(x)))\nreturn Exists([x], P(x))\n",
    # the P-and-not-C goal has one (and in the last, the premises too)
    "P(A)\nForAll([x], Implies(P(x), Q(x)))\nreturn ForAll([x], Q(x))\n",
    "ForAll([x], P(x))\nreturn ForAll([x], P(x))\n",
    "Exists([x], And(P(x), Not(Q(x))))\n"
    "return ForAll([x], Implies(P(x), Q(x)))\n",
    # both goals have one
    "P(A)\nForAll([x], Q(x))\n"
    "return And(Exists([x], Q(x)), ForAll([y], P(y)))\n",
    "ForAll([x, y], Implies(R(x, y), R(y, x)))\nR(A, B)\n"
    "return Or(Exists([x], R(x, A)), ForAll([y], R(B, y)))\n",
)


class TestSharedPremises:
    """entail_sat against reference_entail_sat, outcome for outcome."""

    BUDGETS = (ResourceLimits(wall_ms=60_000),
               ResourceLimits(wall_ms=60_000, max_ground_literals=30),
               ResourceLimits(wall_ms=60_000, max_ground_literals=300))

    def problems(self):
        for fragment in (HORN, FULL_FOL):
            cfg = GenConfig(fragment=fragment, seed=23)
            for gp in generate_suite(cfg, 60, (2, 3, 5)):
                yield parse_z3(gp.texts["z3"])
                yield parse_prover9(gp.texts["prover9"])
        for text in QUANTIFIED_TEXTS:
            yield parse_z3(text)
        for pigeons, holes in ((4, 3), (3, 3), (5, 4)):
            yield parse_z3(pigeonhole_text(pigeons, holes))
        for n in (4, 6):
            yield parse_z3(closure_text(n, True))
            yield parse_z3(closure_text(n, False))

    def test_matches_reference(self):
        kinds = set()
        for problem in self.problems():
            for limits in self.BUDGETS:
                want = reference_entail_sat(problem, limits)
                assert entail_sat(problem, limits) == want, problem
                kinds.add(str(want))
        assert kinds == {"True", "False", "Unknown", "Inconsistent",
                         "ExecError: grounding budget exceeded"}

    @pytest.mark.parametrize("conclusion, goal_literals", [
        # P and not C: -q(A) | -q(B), -q(A) | -r(A); P and C: q(A), q(B) | r(A)
        ("And(q(A), Or(q(B), r(A)))", 4),
        # P and not C: -q(A), -q(B) | -r(A); P and C: q(A) | q(B), q(A) | r(A)
        ("Or(q(A), And(q(B), r(A)))", 4),
    ])
    def test_budget_is_premises_plus_one_goal(self, conclusion, goal_literals):
        # premise instances: p(A); -p(A) | s(A); -p(B) | s(B)
        problem = parse_z3("p(A)\nForAll([x], Implies(p(x), s(x)))\n"
                           f"return {conclusion}\n")
        premise_literals = 5
        fits = ResourceLimits(
            max_ground_literals=premise_literals + goal_literals)
        over = ResourceLimits(
            max_ground_literals=premise_literals + goal_literals - 1)
        for run in (entail_sat, reference_entail_sat):
            assert run(problem, fits) == Answered(Verdict(Truth.UNKNOWN))
            assert run(problem, over) == ExecFailed(
                "grounding budget exceeded")


class TestEntailSat:
    def run(self, text):
        return entail_sat(parse_z3(text))

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
        assert out == ExecFailed(
            "unsupported fragment: function term _sk0/1 (skolem functions "
            "of arity >= 1 need the resolution engine)")

    def test_toplevel_existential_is_fine(self):
        # a lone existential skolemizes to a constant, which grounds cleanly
        out = self.run("Exists([x], P(x))\nForAll([x], Implies(P(x), Q(x)))\n"
                       "return Exists([x], Q(x))\n")
        assert out.verdict.value is Truth.TRUE

    def test_deadline_gives_resource_limited_unknown(self):
        # 12 pigeons in 11 holes is far beyond this engine in 2 seconds
        # (one search of 11 in 10 takes about 3 s), on both sides: the
        # conclusion is unrelated to the pigeons, so neither side is a
        # smaller pigeonhole than the premises
        problem = parse_z3(pigeonhole_text(12, 11, "q(A)"))
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

    def test_second_query_past_its_deadline_keeps_first_answer(self):
        # P and not C is UNSAT at once; grounding P and C needs 8^7
        # instances, far past the budget, so the answer is still True
        facts = "".join(f"p(A{i})\n" for i in range(7))
        xs = ", ".join(f"x{i}" for i in range(7))
        text = (f"q(B)\n{facts}"
                f"return Or(q(B), ForAll([{xs}], r({xs})))\n")
        limits = ResourceLimits(wall_ms=400, max_ground_literals=10 ** 8)
        start = time.monotonic()
        out = entail_sat(parse_z3(text), limits)
        assert out.verdict.value is Truth.TRUE
        assert not out.verdict.resource_limited
        # the budget, with room for a loaded host
        assert time.monotonic() - start < 0.8
