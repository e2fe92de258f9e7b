"""Resolution engine: unification, inference rules, saturation, traces."""

import itertools
import time
from dataclasses import replace

import pytest

from trilogic import resolution
from trilogic.fol import (
    DEFAULT_LIMITS, Answered, Atom, Clause, Constant, DeadlineExceeded,
    Function, Inconsistent, Literal, Not, ResourceLimits, Truth, Variable,
    Verdict, clause_substitute,
)
from trilogic.dialects import parse_prover9, parse_z3
from trilogic.harness import run_translation
from trilogic.normalize import clausify_all, skolem_supply, variable_supply
from trilogic.resolution import (
    LimitReached, Proved, ProofStep, Saturated, eligible,
    entail_resolution, factors, rename_apart, render_trace, replay_trace,
    resolution_runs, resolvents, saturate, subsumes, unify,
)
from trilogic.testkit import FULL_FOL, HORN, GenConfig, generate_suite

X = Variable("x")
Y = Variable("y")
A = Constant("A")
B = Constant("B")


def at(p, *args):
    return Atom(p, tuple(args))


def lit(p, *args, pos=True):
    return Literal(pos, at(p, *args))


def all_resolvents(c1, c2):
    """Every binary resolvent of c1 and c2, tautologies dropped: resolution
    on every complementary pair, with no literal selection."""
    c2r = rename_apart(c1, c2)
    out = []
    for l1 in c1:
        for l2 in c2r:
            sub = unify(l1.atom, l2.atom) if l1.positive != l2.positive else None
            if sub is None:
                continue
            rest = [l for l in c1 if l != l1] + [l for l in c2r if l != l2]
            clause = clause_substitute(rest, sub)
            if not clause.is_tautology():
                out.append(ProofStep(0, "resolve", (), l1, l2,
                                      tuple(sorted(sub.items())), clause))
    return out


def selected_resolvents(c1, c2):
    """all_resolvents on selected literals only: a clause with a negative
    literal resolves only on its first one, picked on the clause as stored
    and, for c2, then renamed as rename_apart renames c2."""
    def first_negative(c):
        return next((l for l in c if not l.positive), None)

    s1, s2 = first_negative(c1), first_negative(c2)
    if s2 is not None:
        s2 = clause_substitute((s2,), resolution._renaming(c1, c2)).literals[0]
    return [r for r in all_resolvents(c1, c2)
            if s1 in (None, r.left_literal) and s2 in (None, r.right_literal)]


def reference_saturate(premise_clauses, goal_clauses, limits=DEFAULT_LIMITS):
    """The plain given-clause loop: the lightest sos clause by a scan, every
    usable clause as a partner, resolution on every complementary pair
    (all_resolvents) and every kept clause tried for subsumption. No wall
    clock."""
    clauses, steps = {}, {}
    premise_ids, goal_ids = [], []
    seen = set()
    for ids, source in ((premise_ids, premise_clauses), (goal_ids, goal_clauses)):
        for c in source:
            if c not in seen:
                seen.add(c)
                clauses[len(clauses) + 1] = c
                ids.append(len(clauses))

    def build_proof(empty_id):
        wanted, stack = set(), [empty_id]
        while stack:
            i = stack.pop()
            if i not in wanted:
                wanted.add(i)
                stack.extend(steps[i].parents if i in steps else ())
        return Proved(tuple(steps[i] for i in sorted(wanted) if i in steps),
                      tuple((i, clauses[i]) for i in sorted(wanted) if i not in steps))

    usable, sos = [], goal_ids + premise_ids
    for i in sos:
        if clauses[i].is_empty():
            return build_proof(i)
    generated, dropped = 0, False
    while sos:
        best = min(range(len(sos)), key=lambda k: (len(clauses[sos[k]]), k))
        given_id = sos.pop(best)
        given = clauses[given_id]
        usable.append(given_id)
        new = []
        for partner_id in usable:
            for r in all_resolvents(given, clauses[partner_id]):
                new.append((r.clause, ProofStep(0, "resolve", (given_id, partner_id),
                                                r.left_literal, r.right_literal,
                                                r.unifier, r.clause)))
        for fa in factors(given):
            new.append((fa.clause, ProofStep(0, "factor", (given_id,), fa.left_literal,
                                             fa.right_literal, fa.unifier, fa.clause)))
        for clause, step in new:
            generated += 1
            if generated > limits.max_generated_clauses:
                return LimitReached("generated clause budget")
            if len(clause) > limits.max_clause_literals:
                dropped = True
                continue
            if any(subsumes(clauses[k], clause) for k in (*usable, *sos)):
                continue
            cid = len(clauses) + 1
            clauses[cid] = clause
            steps[cid] = ProofStep(cid, step.rule, step.parents, step.left_literal,
                                   step.right_literal, step.unifier, clause)
            if clause.is_empty():
                return build_proof(cid)
            sos.append(cid)
    return LimitReached("clause literal limit") if dropped else Saturated()


def backward_reference_saturate(premise_clauses, goal_clauses,
                                limits=DEFAULT_LIMITS, resolve=all_resolvents):
    """reference_saturate with saturate's deletion rule in both directions:
    C deletes D only if C has no more literals than D and subsumes it. A new
    clause that a kept clause deletes is dropped; a kept new clause takes
    every clause it deletes out of usable and sos. resolve gives the
    resolvents of the given clause and a partner. No wall clock."""
    clauses, steps = {}, {}
    premise_ids, goal_ids = [], []
    seen = set()
    for ids, source in ((premise_ids, premise_clauses), (goal_ids, goal_clauses)):
        for c in source:
            if c not in seen:
                seen.add(c)
                clauses[len(clauses) + 1] = c
                ids.append(len(clauses))

    def build_proof(empty_id):
        wanted, stack = set(), [empty_id]
        while stack:
            i = stack.pop()
            if i not in wanted:
                wanted.add(i)
                stack.extend(steps[i].parents if i in steps else ())
        return Proved(tuple(steps[i] for i in sorted(wanted) if i in steps),
                      tuple((i, clauses[i]) for i in sorted(wanted) if i not in steps))

    def deletes(c, d):
        return len(c) <= len(d) and subsumes(c, d)

    usable, sos = [], goal_ids + premise_ids
    for i in sos:
        if clauses[i].is_empty():
            return build_proof(i)
    generated, dropped = 0, False
    while sos:
        best = min(range(len(sos)), key=lambda k: (len(clauses[sos[k]]), k))
        given_id = sos.pop(best)
        given = clauses[given_id]
        usable.append(given_id)
        new = []
        for partner_id in usable:
            for r in resolve(given, clauses[partner_id]):
                new.append((r.clause, ProofStep(0, "resolve", (given_id, partner_id),
                                                r.left_literal, r.right_literal,
                                                r.unifier, r.clause)))
        for fa in factors(given):
            new.append((fa.clause, ProofStep(0, "factor", (given_id,), fa.left_literal,
                                             fa.right_literal, fa.unifier, fa.clause)))
        for clause, step in new:
            generated += 1
            if generated > limits.max_generated_clauses:
                return LimitReached("generated clause budget")
            if len(clause) > limits.max_clause_literals:
                dropped = True
                continue
            if any(deletes(clauses[k], clause) for k in (*usable, *sos)):
                continue
            cid = len(clauses) + 1
            clauses[cid] = clause
            steps[cid] = ProofStep(cid, step.rule, step.parents, step.left_literal,
                                   step.right_literal, step.unifier, clause)
            if clause.is_empty():
                return build_proof(cid)
            usable = [k for k in usable if not deletes(clause, clauses[k])]
            sos = [k for k in sos if not deletes(clause, clauses[k])]
            sos.append(cid)
    return LimitReached("clause literal limit") if dropped else Saturated()


def selection_reference_saturate(premise_clauses, goal_clauses,
                                 limits=DEFAULT_LIMITS):
    """backward_reference_saturate under literal selection, written out
    independently of resolution.eligible: the plain loop that saturate must
    match step for step."""
    return backward_reference_saturate(premise_clauses, goal_clauses, limits,
                                       selected_resolvents)


def both_goal_sides(problem):
    """Premise clauses and the goal clauses of the two resolution_runs
    sides: prove C (not-C as goal), prove not-C (C as goal)."""
    var_supply, sk_supply = variable_supply(), skolem_supply()
    premises = clausify_all(problem.premises, var_supply, sk_supply)
    neg_goal = clausify_all([Not(problem.conclusion)], var_supply, sk_supply)
    pos_goal = clausify_all([problem.conclusion], var_supply, sk_supply)
    return premises, (neg_goal, pos_goal)


class TestUnify:
    def test_variable_against_constant(self):
        assert unify(at("p", X, A), at("p", B, Y)) == {"x": B, "y": A}

    def test_occurs_check(self):
        assert unify(at("p", X), at("p", Function("f", (X,)))) is None
        assert unify(at("p", Function("f", (X,))), at("p", X)) is None

    def test_constant_clash(self):
        assert unify(at("p", X, X), at("p", A, B)) is None

    def test_into_function_arguments(self):
        got = unify(at("p", Function("f", (X,))), at("p", Function("f", (B,))))
        assert got == {"x": B}

    def test_predicate_mismatch(self):
        assert unify(at("p", A), at("q", A)) is None


class TestResolve:
    def test_ground_resolvent(self):
        c1 = Clause((lit("p", X, pos=False), lit("q", X)))
        c2 = Clause((lit("p", A),))
        assert [str(r.clause) for r in resolvents(c1, c2)] == ["q(A)"]

    def test_shared_names_are_renamed_apart(self):
        c1 = Clause((lit("p", X, pos=False), lit("q", X)))
        c2 = Clause((lit("p", X), lit("r", X)))
        got = [str(r.clause) for r in resolvents(c1, c2)]
        assert got == ["q(_r0) | r(_r0)"]

    def test_complementary_units_give_empty_clause(self):
        got = resolvents(Clause((lit("p", A),)),
                         Clause((lit("p", A, pos=False),)))
        assert len(got) == 1 and got[0].clause.is_empty()

    def test_same_sign_literals_do_not_resolve(self):
        # p(x) and p(A) unify, but both are positive
        c1 = Clause((lit("p", X), lit("q", X)))
        c2 = Clause((lit("p", A), lit("r", A)))
        assert resolvents(c1, c2) == []


class TestFactor:
    def test_unifiable_duplicates_collapse(self):
        c = Clause((lit("p", X), lit("p", A)))
        assert [str(f.clause) for f in factors(c)] == ["p(A)"]

    def test_no_factor_for_distinct_predicates(self):
        assert factors(Clause((lit("p", X), lit("q", X)))) == []


class TestSubsumes:
    def test_more_general_unit_subsumes(self):
        assert subsumes(Clause((lit("p", X),)), Clause((lit("p", A), lit("q", B))))

    def test_not_the_other_way(self):
        assert not subsumes(Clause((lit("p", A), lit("q", B))), Clause((lit("p", X),)))

    def test_two_variables_onto_one_constant(self):
        assert subsumes(Clause((lit("p", X), lit("p", Y))), Clause((lit("p", A),)))


class TestSaturate:
    def test_refutation_of_modus_ponens(self):
        premises = [Clause((lit("p", A),)),
                    Clause((lit("p", X, pos=False), lit("q", X)))]
        goal = [Clause((lit("q", A, pos=False),))]
        result = saturate(premises, goal)
        assert isinstance(result, Proved)

    def test_saturation_without_proof(self):
        premises = [Clause((lit("p", A),))]
        goal = [Clause((lit("q", A, pos=False),))]
        assert isinstance(saturate(premises, goal), Saturated)

    def test_limit_reached(self):
        # s is a growing successor chain, so the clause space is infinite
        f = Function("f", (X,))
        premises = [Clause((lit("p", A),)),
                    Clause((lit("p", X, pos=False), Literal(True, at("p", f)))),
                    ]
        goal = [Clause((lit("q", B, pos=False),))]
        tight = ResourceLimits(max_generated_clauses=20, max_clause_literals=64,
                               wall_ms=10_000, max_cnf_clauses=1000,
                               max_ground_literals=1000)
        result = saturate(premises, goal, tight)
        assert isinstance(result, LimitReached)

    def test_past_deadline_raises(self):
        premises = [Clause((lit("p", A),))]
        goal = [Clause((lit("q", A, pos=False),))]
        with pytest.raises(DeadlineExceeded, match="wall clock budget"):
            saturate(premises, goal, deadline=time.monotonic() - 1)

    def test_empty_input_clause_is_a_step_free_proof(self):
        got = saturate([Clause()], [])
        assert got == Proved((), ((1, Clause()),))
        assert replay_trace(got)


    def test_prefilter_offers_two_literals_mapped_onto_one(self, monkeypatch):
        # p(x) | p(y) subsumes its factor p(y), and any p(A), by mapping both
        # literals onto one, but a clause deletes only clauses at least as
        # long as itself: the factor is tried against its parent and deletes
        # it, never the other way round
        tried = []

        def spy(c1, c2):
            got = subsumes(c1, c2)
            tried.append((str(c1), str(c2), got))
            return got

        monkeypatch.setattr(resolution, "subsumes", spy)
        premises = [Clause((lit("p", X), lit("p", Y))), Clause((lit("q", A),)),
                    Clause((lit("q", X, pos=False), lit("p", X)))]
        goal = [Clause((lit("r", A, pos=False),))]
        assert isinstance(saturate(premises, goal), Saturated)
        assert ("p(y)", "p(x) | p(y)", True) in tried
        assert not [t for t in tried
                    if t[0] == "p(x) | p(y)" and t[1] in ("p(y)", "p(A)")]

    def test_dropped_clause_means_limit_not_saturation(self):
        premises = [Clause((lit("p", A), lit("q", A), lit("r", A))),
                    Clause((lit("p", A, pos=False),)),
                    Clause((lit("q", A, pos=False),))]
        goal = [Clause((lit("r", A, pos=False),))]
        got = saturate(premises, goal, ResourceLimits(max_clause_literals=1))
        assert got == LimitReached("clause literal limit")

    def test_proof_stands_after_a_dropped_clause(self):
        # -p(A) | w(A) meets p(A) | q(A) and gives q(A) | w(A), which is over
        # the cap, before w(A) meets -w(A)
        premises = [Clause((lit("p", A), lit("q", A))),
                    Clause((lit("p", A, pos=False), lit("w", A))),
                    Clause((lit("q", A, pos=False),)),
                    Clause((lit("w", A, pos=False),))]
        got = saturate(premises, [], ResourceLimits(max_clause_literals=1))
        assert isinstance(got, Proved) and replay_trace(got)

    def test_factor_steps_name_their_parent(self):
        # p(x) | p(y) and -p(u) | -p(v) are refuted only through factors
        u, v = Variable("u"), Variable("v")
        premises = [Clause((lit("p", X), lit("p", Y))),
                    Clause((lit("p", u, pos=False), lit("p", v, pos=False)))]
        got = saturate(premises, [])
        assert isinstance(got, Proved) and replay_trace(got)
        used = [s for s in got.steps if s.rule == "factor"]
        assert used and all(len(s.parents) == 1 for s in used)


class TestBackwardDeletion:
    # p(A), derived from q(A) and -q(x) | p(x) in the third round, deletes
    # p(A) | r(A), usable since the second round, and p(A) | s(A) | u(A),
    # still waiting; -r(x) | -s(x) | t(x) would meet both
    PREMISES = [Clause((lit("q", A),)),
                Clause((lit("p", A), lit("r", A))),
                Clause((lit("q", X, pos=False), lit("p", X))),
                Clause((lit("p", A), lit("s", A), lit("u", A))),
                Clause((lit("r", X, pos=False), lit("s", X, pos=False),
                        lit("t", X)))]

    def spied(self, monkeypatch):
        given, offered = [], []

        def spy_factors(c):
            given.append(str(c))
            return factors(c)

        def spy_resolvents(c1, c2):
            offered.append((str(c1), str(c2)))
            return resolvents(c1, c2)

        monkeypatch.setattr(resolution, "factors", spy_factors)
        monkeypatch.setattr(resolution, "resolvents", spy_resolvents)
        assert isinstance(saturate(self.PREMISES, []), Saturated)
        return given, offered

    def test_deleted_waiting_clause_is_never_given(self, monkeypatch):
        given, _ = self.spied(monkeypatch)
        assert "p(A)" in given and "-r(x) | -s(x) | t(x)" in given
        assert "p(A) | s(A) | u(A)" not in given

    def test_deleted_usable_clause_is_never_a_partner_again(self, monkeypatch):
        given, offered = self.spied(monkeypatch)
        assert "p(A) | r(A)" in given
        assert not [pair for pair in offered if "p(A) | r(A)" in pair]

    def test_proof_through_a_deleted_clause_replays(self, monkeypatch):
        # p(A) | q(A) meets -p(A) and gives q(A), which deletes it; q(A)
        # then meets -q(A)
        tried = []

        def spy(c1, c2):
            got = subsumes(c1, c2)
            tried.append((str(c1), str(c2), got))
            return got

        monkeypatch.setattr(resolution, "subsumes", spy)
        premises = [Clause((lit("p", A), lit("q", A))),
                    Clause((lit("q", A, pos=False),))]
        goal = [Clause((lit("p", A, pos=False),))]
        got = saturate(premises, goal)
        assert ("q(A)", "p(A) | q(A)", True) in tried
        assert isinstance(got, Proved)
        assert "p(A) | q(A)" in [str(c) for _, c in got.inputs]
        assert replay_trace(got)

    FACTOR_TEXTS = {
        "prover9": ("Premises:\nall x all y (p(x) | p(y))\n"
                    "all u all v (-p(u) | -p(v))\nConclusion:\nq(A)\n"),
        "z3": ("def solution():\n    ForAll([x, y], Or(p(x), p(y)))\n"
               "    ForAll([u, v], Or(Not(p(u)), Not(p(v))))\n"
               "    return q(A)\n"),
    }

    @pytest.mark.parametrize("dialect", ["prover9", "z3"])
    def test_factor_outlives_its_parent(self, dialect):
        # p(x) | p(y) may not delete its factor p(y), so the contradiction
        # surfaces in resolution as it does in sat
        text = self.FACTOR_TEXTS[dialect]
        assert run_translation(text, dialect, "sat") == Inconsistent()
        assert run_translation(text, dialect, "resolution") == Inconsistent()


class TestIndexedLoop:
    """saturate against the plain loops kept above: selection_reference_saturate
    step for step, and reference_saturate, which neither selects nor deletes
    backward, by result type."""

    @pytest.mark.parametrize("fragment", [HORN, FULL_FOL])
    def test_matches_reference_on_generated_problems(self, fragment):
        kinds = set()
        budgets = (ResourceLimits(wall_ms=60_000),
                   ResourceLimits(wall_ms=60_000, max_generated_clauses=10))
        for gp in generate_suite(GenConfig(fragment=fragment, seed=23), 60, (2, 3, 5)):
            premises, goals = both_goal_sides(parse_prover9(gp.texts["prover9"]))
            for goal in goals:
                for limits in budgets:
                    want = selection_reference_saturate(premises, goal, limits)
                    got = saturate(premises, goal, limits)
                    assert type(got) is type(want), gp.id
                    if isinstance(want, Proved):
                        assert render_trace(got) == render_trace(want), gp.id
                        assert replay_trace(got)
                    else:
                        assert got == want, gp.id
                    kinds.add(type(want).__name__)
        assert kinds == {"Proved", "Saturated", "LimitReached"}

    @pytest.mark.parametrize("fragment", [HORN, FULL_FOL])
    @pytest.mark.parametrize("seed", [23, 101, 907])
    def test_forward_only_loop_gives_the_same_results(self, fragment, seed):
        limits = ResourceLimits(wall_ms=60_000)
        for gp in generate_suite(GenConfig(fragment=fragment, seed=seed), 40):
            premises, goals = both_goal_sides(parse_prover9(gp.texts["prover9"]))
            for goal in goals:
                want = reference_saturate(premises, goal, limits)
                got = saturate(premises, goal, limits)
                assert type(got) is type(want), gp.id


def chain_text(n):
    """r(C0, C1), ..., r(Cn-1, Cn) and transitivity; does r(C0, Cn) hold?"""
    facts = "".join(f"r(C{i}, C{i + 1})\n" for i in range(n))
    return (f"Premises:\n{facts}"
            "all x all y all z (r(x, y) & r(y, z) -> r(x, z))\n"
            f"Conclusion:\nr(C0, C{n})\n")


def premise_start(text, limits=DEFAULT_LIMITS):
    """What a fresh PremiseBase hands a run of text: a copy of the saturated
    premise loop, their refutation, or None for a joined run."""
    premises, _ = both_goal_sides(parse_prover9(text))
    return resolution.PremiseBase().start(premises, limits, limits.deadline())


class TestPremiseBase:
    def test_function_terms_never_build_a_base(self):
        # saturating these premises alone never ends: a base tried here
        # spent the first run's half of the budget on p(f(...f(A)))
        text = ("Premises:\np(A)\nall x (p(x) -> p(f(x)))\n"
                "Conclusion:\np(f(f(A)))\n")
        assert premise_start(text) is None
        out = entail_resolution(parse_prover9(text), ResourceLimits(wall_ms=300))
        assert out == Answered(Verdict(Truth.TRUE))

    def test_base_past_the_cap_runs_joined(self):
        text = chain_text(12)
        assert premise_start(text) is None
        out = entail_resolution(parse_prover9(text), ResourceLimits(wall_ms=1000))
        assert out == Answered(Verdict(Truth.TRUE))
        premises, goals = both_goal_sides(parse_prover9(text))
        base = resolution.PremiseBase()
        for goal in goals:
            assert saturate(premises, goal, base=base) == \
                saturate(premises, goal)

    def test_cap_never_exceeds_the_generated_clause_limit(self):
        text = chain_text(3)
        built = premise_start(text)
        assert built.generated > 1
        assert premise_start(text, ResourceLimits(
            max_generated_clauses=built.generated - 1)) is None
        # a base that uses up the whole limit leaves no inference to a run
        limits = ResourceLimits(max_generated_clauses=built.generated)
        premises, (neg_goal, _) = both_goal_sides(parse_prover9(text))
        assert saturate(premises, neg_goal, limits,
                        base=resolution.PremiseBase()) == \
            LimitReached("generated clause budget")
        assert isinstance(saturate(premises, neg_goal), Proved)

    def test_inconsistent_premises_answer_both_runs_from_the_base(self):
        text = "Premises:\np(A)\nall x (p(x) -> -p(x))\nConclusion:\nq(A)\n"
        refutation = premise_start(text)
        assert isinstance(refutation, Proved) and replay_trace(refutation)
        _, *runs = resolution_runs(parse_prover9(text))
        assert [render_trace(run) for run in runs] == \
            [render_trace(refutation)] * 2
        assert type(entail_resolution(parse_prover9(text))) is Inconsistent

    def test_goal_clause_that_is_a_premise_is_skipped(self):
        premises = [Clause((lit("p", A),)), Clause((lit("q", A, pos=False),))]
        goal = [Clause((lit("q", A, pos=False),)), Clause((lit("q", A),))]
        got = saturate(premises, goal, base=resolution.PremiseBase())
        assert got.inputs == ((2, premises[1]), (3, goal[1]))
        assert [s.parents for s in got.steps] == [(3, 2)]


class TestResumedRuns:
    """Runs resumed on a PremiseBase against saturate's joined runs, over
    generated problems in both dialects, by result type."""

    @staticmethod
    def differences(limits):
        """(id, dialect, side, joined, resumed) for every run whose result
        type differs; every Proved resumed run must replay."""
        out = []
        for fragment, seed in itertools.product((HORN, FULL_FOL), (23, 101)):
            cfg = GenConfig(fragment=fragment, seed=seed)
            for gp in generate_suite(cfg, 40, (1, 2, 3, 5)):
                for dialect, parse in (("prover9", parse_prover9),
                                       ("z3", parse_z3)):
                    premises, goals = both_goal_sides(parse(gp.texts[dialect]))
                    base = resolution.PremiseBase()
                    for side, goal in zip(("C", "not C"), goals):
                        joined = saturate(premises, goal, limits)
                        resumed = saturate(premises, goal, limits, base=base)
                        if isinstance(resumed, Proved):
                            assert replay_trace(resumed), gp.id
                        if type(resumed) is not type(joined):
                            out.append((gp.id, dialect, side, joined, resumed))
        return out

    def test_default_limits_give_the_joined_result_types(self):
        assert self.differences(ResourceLimits(wall_ms=60_000)) == []

    @pytest.mark.parametrize("cap,moved", [
        # the base's inferences count against the limit before any goal
        # inference, so a short proof from the goal can fall past it
        (10, {("gen-horn-s23-00030", "C"), ("gen-full-fol-s23-00007", "not C")}),
        (30, set()),
    ])
    def test_tight_limits_move_only_limit_points(self, cap, moved):
        limits = ResourceLimits(wall_ms=60_000, max_generated_clauses=cap)
        budget = LimitReached("generated clause budget")
        found = set()
        for pid, dialect, side, joined, resumed in self.differences(limits):
            assert budget in (joined, resumed), (pid, dialect, side)
            found.add((pid, side))
        assert found == moved


class TestSelection:
    def test_first_negative_literal_is_selected(self):
        c = Clause((lit("r", X, pos=False), lit("p", X), lit("q", X, pos=False)))
        assert eligible(c) == (lit("q", X, pos=False),)

    def test_clause_without_negative_literal_is_all_eligible(self):
        c = Clause((lit("q", X), lit("p", A)))
        assert eligible(c) == c.literals

    def test_only_the_selected_literal_resolves(self):
        rule = Clause((lit("a", X, pos=False), lit("b", X, pos=False),
                       lit("c", X)))
        b_fact = Clause((lit("b", A),))
        assert resolvents(rule, b_fact) == resolvents(b_fact, rule) == []
        got = resolvents(rule, Clause((lit("a", A),)))
        assert [str(r.clause) for r in got] == ["-b(A) | c(A)"]

    def test_selection_is_made_before_renaming(self):
        # renaming y to _r0 sorts -p(_r0) ahead of -p(x) in the copy, but the
        # stored clause selects -p(x)
        c1 = Clause((lit("p", A), lit("r", Y)))
        c2 = Clause((lit("p", X, pos=False), lit("p", Y, pos=False)))
        got = resolvents(c1, c2)
        assert [str(r.right_literal) for r in got] == ["-p(x)"]
        assert [str(r.clause) for r in got] == ["-p(_r0) | r(y)"]
        assert got == selected_resolvents(c1, c2)

    def test_non_horn_set_is_refuted(self):
        p, q = lit("p", A), lit("q", A)
        np, nq = lit("p", A, pos=False), lit("q", A, pos=False)
        premises = [Clause((p, q)), Clause((np, q)), Clause((p, nq)),
                    Clause((np, nq))]
        got = saturate(premises, [])
        assert isinstance(got, Proved) and replay_trace(got)

    def test_partner_of_the_unselected_literal_given_first(self, monkeypatch):
        # b(A) is given before a(A), yet the rule resolves on -a(x) alone;
        # -b(A) | c(A) then meets b(A)
        given = []

        def spy_factors(c):
            given.append(str(c))
            return factors(c)

        monkeypatch.setattr(resolution, "factors", spy_factors)
        rule = Clause((lit("a", X, pos=False), lit("b", X, pos=False),
                       lit("c", X)))
        premises = [Clause((lit("b", A),)), Clause((lit("a", A),)), rule]
        got = saturate(premises, [Clause((lit("c", A, pos=False),))])
        assert given.index("b(A)") < given.index("a(A)")
        assert isinstance(got, Proved) and replay_trace(got)
        rule_id = next(i for i, c in got.inputs if c == rule)
        assert [(s.parents[0], str(s.left_literal)) for s in got.steps
                if rule_id in s.parents] == [(rule_id, "-a(x)")]

    @pytest.mark.parametrize("dialect", ["prover9", "z3"])
    def test_complete_capped_outcome_is_the_default_outcome(self, dialect):
        capped = ResourceLimits(max_generated_clauses=40)
        complete = 0
        for gp in generate_suite(GenConfig(fragment=FULL_FOL, seed=101), 40):
            text = gp.texts[dialect]
            got = run_translation(text, dialect, "resolution", capped)
            if isinstance(got, Answered) and got.verdict.resource_limited:
                continue
            complete += 1
            assert got == run_translation(text, dialect, "resolution"), gp.id
        assert complete


OTHER = Clause((lit("other", A),))


def retouch(proof, rule, /, **change):
    """proof with its first `rule` step changed."""
    steps = list(proof.steps)
    i = next(i for i, s in enumerate(steps) if s.rule == rule)
    steps[i] = replace(steps[i], **change)
    return Proved(tuple(steps), proof.inputs)


class TestTrace:
    def problem(self):
        text = ("Premises:\n"
                "quiet(Anne)\n"
                "all x (quiet(x) -> calm(x))\n"
                "Conclusion:\n"
                "calm(Anne)\n")
        return parse_prover9(text)

    def test_replay_reproduces_proof(self):
        outcome, neg_run, _ = resolution_runs(self.problem())
        assert outcome.verdict.value is Truth.TRUE
        assert isinstance(neg_run, Proved)
        assert replay_trace(neg_run)

    def test_render_lists_inputs_and_steps(self):
        _, neg_run, _ = resolution_runs(self.problem())
        text = render_trace(neg_run)
        assert "clause 1:" in text
        assert "step" in text
        assert "$false" in text

    def factor_proof(self):
        # p(x) | p(y) and -p(u) | -p(v) are refuted only through factors
        u, v = Variable("u"), Variable("v")
        return saturate([Clause((lit("p", X), lit("p", Y))),
                         Clause((lit("p", u, pos=False),
                                 lit("p", v, pos=False)))], [])

    # proof -> the same proof with one rejection planted
    TAMPERS = {
        "resolve-literal-not-in-parent": lambda proof: Proved(
            proof.steps, tuple((i, OTHER) for i, _ in proof.inputs)),
        "factor-literal-not-in-parent": lambda proof: retouch(
            proof, "factor", left_literal=lit("other", A)),
        "unknown-rule": lambda proof: retouch(
            proof, "resolve", rule="paramodulate"),
        "clause-not-derived": lambda proof: retouch(
            proof, "resolve", clause=OTHER),
    }

    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_tampered_trace_fails_replay(self, tamper):
        if tamper.startswith("factor"):
            proof = self.factor_proof()
        else:
            _, proof, _ = resolution_runs(self.problem())
        assert replay_trace(proof)
        assert not replay_trace(self.TAMPERS[tamper](proof))


class TestEntailResolution:
    def run(self, text):
        return entail_resolution(parse_prover9(text))

    def test_positive_entailment(self):
        out = self.run("Premises:\np(A)\nall x (p(x) -> q(x))\nConclusion:\nq(A)\n")
        assert out.verdict.value is Truth.TRUE

    def test_negative_entailment(self):
        out = self.run("Premises:\n-q(A)\nConclusion:\nq(A)\n")
        assert out.verdict.value is Truth.FALSE

    def test_independent_conclusion(self):
        out = self.run("Premises:\np(A)\nConclusion:\nq(A)\n")
        assert out.verdict.value is Truth.UNKNOWN

    def test_contradictory_premises(self):
        out = self.run("Premises:\np(A)\n-p(A)\nConclusion:\nq(A)\n")
        assert type(out).__name__ == "Inconsistent"

    def test_existential_conclusion(self):
        out = self.run("Premises:\np(A)\nConclusion:\nexists x (p(x))\n")
        assert out.verdict.value is Truth.TRUE

    def test_premise_order_never_changes_the_verdict(self):
        import random

        from trilogic.fol import Problem
        from trilogic.testkit import GenConfig, generate_problem

        rng = random.Random(5)
        for i in range(10):
            gp = generate_problem(GenConfig(seed=31), i)
            base = entail_resolution(gp.problem)
            shuffled = list(gp.problem.premises)
            rng.shuffle(shuffled)
            again = entail_resolution(Problem(tuple(shuffled),
                                              gp.problem.conclusion))
            assert type(again) is type(base)
            if hasattr(base, "verdict"):
                assert again.verdict.value is base.verdict.value

    def test_budget_exhaustion_flags_the_verdict(self):
        tight = ResourceLimits(max_generated_clauses=5, max_clause_literals=64,
                               wall_ms=10_000, max_cnf_clauses=1000,
                               max_ground_literals=1000)
        text = ("Premises:\np(A)\nall x (p(x) -> p(f(x)))\n"
                "Conclusion:\nq(B)\n")
        out = entail_resolution(parse_prover9(text), tight)
        assert out.verdict.value is Truth.UNKNOWN
        assert out.verdict.resource_limited

    def test_literal_cap_gives_resource_limited_unknown(self):
        text = ("Premises:\np(A) ∨ q(A) ∨ r(A)\n¬p(A)\n¬q(A)\n"
                "Conclusion:\nr(A)\n")
        assert entail_resolution(parse_prover9(text)).verdict == Verdict(Truth.TRUE)
        out = entail_resolution(parse_prover9(text),
                                ResourceLimits(max_clause_literals=1))
        assert out.verdict == Verdict(Truth.UNKNOWN, resource_limited=True)

    def test_both_runs_share_one_deadline(self):
        text = ("Premises:\np(A)\nall x (p(x) -> p(f(x)))\n"
                "Conclusion:\nq(B)\n")
        start = time.monotonic()
        out = entail_resolution(parse_prover9(text),
                                ResourceLimits(wall_ms=500))
        assert out.verdict.resource_limited
        # one 500 ms budget per run would take a second
        assert time.monotonic() - start < 1.0

    def test_endless_first_run_leaves_time_for_second(self):
        # the prove-C side only derives p(f(...f(A))); the prove-not-C side
        # meets -q(B) in two steps
        text = ("Premises:\np(A)\nall x (p(x) -> p(f(x)))\n-q(B)\n"
                "Conclusion:\nq(B)\n")
        out = entail_resolution(parse_prover9(text),
                                ResourceLimits(wall_ms=300))
        assert out.verdict.value is Truth.FALSE
        assert not out.verdict.resource_limited

    def test_terms_past_the_nesting_cap_are_dropped(self):
        # saturation grows p(f(...f(A))) until ordering a clause's literals
        # recursed past Python's stack; a derived term nested deeper than
        # fol.MAX_NESTING_DEPTH is dropped as an over-long clause is, so
        # neither run is complete
        deep = "f(" * 150 + "A" + ")" * 150
        f10 = "f(" * 10 + "x" + ")" * 10
        deep_text = (f"Premises:\np({deep})\nall x (p(x) -> p({f10}))\n"
                     "Conclusion:\nq(A)\n")
        limited = Answered(Verdict(Truth.UNKNOWN, resource_limited=True))
        assert resolution_runs(parse_prover9(deep_text)) == (
            limited, LimitReached("term nesting limit"),
            LimitReached("term nesting limit"))
        grow = "Premises:\np(A)\nall x (p(x) -> p(f(x)))\n"
        for text in (deep_text, grow + "Conclusion:\nq(A)\n"):
            assert run_translation(text, "prover9", "resolution") == limited
        # the prove-C side ends at the cap, the prove-not-C side is refuted
        text = grow + "-q(B)\nConclusion:\nq(B)\n"
        assert (run_translation(text, "prover9", "resolution")
                == Answered(Verdict(Truth.FALSE)))
