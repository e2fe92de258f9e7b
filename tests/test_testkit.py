"""Testkit: model-enumeration oracle, seeded generator, differential runner."""

import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from trilogic import testkit
from trilogic.dialects import parse_prover9, parse_pyke, parse_z3
from trilogic.fol import (
    And, Answered, Atom, Constant, DEFAULT_LIMITS, ExecError, ForAll,
    Function, Iff, Implies, Inconsistent, Not, Or, Outcome, ParseError,
    ParseFailed, Problem, Truth, Variable, Verdict, WorldAssumption, Xor,
)
from trilogic.harness import ENGINES, run_translation
from trilogic.testkit import (
    FULL_FOL, HORN, ORACLE_MAX_ATOMS, DiffReport, GenConfig,
    GeneratedProblem, differential_check, enumerate_models, generate_problem,
    generate_suite, oracle_universe, _BLOCK_ATOMS, _Evaluator, _render_pyke,
    _tiled_column,
)

from conftest import DATA_DIR


def p9(text):
    return parse_prover9(text)


# --- the oracle before atom reduction, kept as a reference ---


def reference_collect_arities(p: Problem) -> list[tuple[str, int]]:
    arities: dict[str, int] = {}

    def walk(f) -> None:
        if isinstance(f, Atom):
            arities.setdefault(f.predicate, len(f.args))
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
    return sorted(arities.items())


def reference_enumerate_models(p: Problem,
                               max_atoms: int = ORACLE_MAX_ATOMS) -> Outcome:
    """Exact entailment verdict by finite model enumeration.

    Raises ExecError when the ground atom count exceeds max_atoms.
    """
    universe = oracle_universe(p)
    arities = reference_collect_arities(p)
    atom_keys: list[tuple[str, tuple[str, ...]]] = []
    for pred, arity in arities:
        for combo in itertools.product(universe, repeat=arity):
            atom_keys.append((pred, combo))
    n = len(atom_keys)
    if n > max_atoms:
        raise ExecError(f"oracle limit: {n} ground atoms exceeds {max_atoms}")

    low = min(n, _BLOCK_ATOMS)
    block_len = 1 << low
    full = (1 << block_len) - 1
    low_columns = [_tiled_column(i, block_len) for i in range(low)]
    high = n - low

    any_premise = False
    any_with_neg = False
    any_with_pos = False
    for combo in range(1 << high):
        columns = {}
        for i, key in enumerate(atom_keys):
            if i < low:
                columns[key] = low_columns[i]
            else:
                columns[key] = full if (combo >> (i - low)) & 1 else 0
        ev = _Evaluator(universe, full, columns)
        mask = full
        for premise in p.premises:
            mask &= ev.eval(premise, {})
            if not mask:
                break
        if not mask:
            continue
        any_premise = True
        conclusion = ev.eval(p.conclusion, {})
        if mask & (full ^ conclusion):
            any_with_neg = True
        if mask & conclusion:
            any_with_pos = True
        if any_with_neg and any_with_pos:
            break

    if not any_premise:
        return Inconsistent()
    if not any_with_neg:
        return Answered(Verdict(Truth.TRUE))
    if not any_with_pos:
        return Answered(Verdict(Truth.FALSE))
    return Answered(Verdict(Truth.UNKNOWN))


def oracle_result(oracle, problem, **kw):
    """The outcome, or the ExecError message, as a comparable string."""
    try:
        return str(oracle(problem, **kw))
    except ExecError as e:
        return f"ExecError: {e}"


# the generator configs of the benchmark's eval-batch workload
EVAL_BATCH_SUITES = (
    (GenConfig(fragment=HORN, assumption=WorldAssumption.OWA, seed=1),
     (1, 2, 3)),
    (GenConfig(fragment=HORN, assumption=WorldAssumption.CWA, seed=2),
     (1, 2, 3)),
    (GenConfig(fragment=FULL_FOL, assumption=WorldAssumption.OWA, seed=3),
     (2, 3)),
    (GenConfig(fragment=FULL_FOL, assumption=WorldAssumption.CWA, seed=4),
     (2, 3)),
)


def drawn_problems(suites, n, monkeypatch):
    """Every problem the generator hands the oracle while drawing n
    problems per (config, depths)."""
    seen = []

    def recording(problem):
        seen.append(problem)
        return enumerate_models(problem)

    with monkeypatch.context() as m:
        m.setattr(testkit, "enumerate_models", recording)
        for cfg, depths in suites:
            generate_suite(cfg, n, depths)
    return seen


class TestOracle:
    def test_positive_entailment(self):
        out = enumerate_models(p9("Premises:\np(A)\nall x (p(x) -> q(x))\n"
                                  "Conclusion:\nq(A)\n"))
        assert out.verdict.value is Truth.TRUE

    def test_negative_entailment(self):
        out = enumerate_models(p9("Premises:\n-q(A)\nConclusion:\nq(A)\n"))
        assert out.verdict.value is Truth.FALSE

    def test_independent_conclusion(self):
        out = enumerate_models(p9("Premises:\np(A)\nConclusion:\nq(A)\n"))
        assert out.verdict.value is Truth.UNKNOWN

    def test_contradictory_premises(self):
        out = enumerate_models(p9("Premises:\np(A)\n-p(A)\nConclusion:\nq(A)\n"))
        assert type(out).__name__ == "Inconsistent"

    def test_universal_conclusion_not_overclaimed(self):
        # one named constant satisfies p; an unnamed individual may not
        out = enumerate_models(p9("Premises:\np(A)\nConclusion:\nall x (p(x))\n"))
        assert out.verdict.value is Truth.UNKNOWN

    def test_existential_reasoning_without_constants(self):
        out = enumerate_models(p9("Premises:\nexists x (p(x))\n"
                                  "all x (p(x) -> q(x))\n"
                                  "Conclusion:\nexists y (q(y))\n"))
        assert out.verdict.value is Truth.TRUE

    def test_xor_semantics(self):
        out = enumerate_models(p9("Premises:\np(A) ^ q(A)\np(A)\n"
                                  "Conclusion:\nq(A)\n"))
        assert out.verdict.value is Truth.FALSE

    def test_atom_budget_error(self):
        big = p9("Premises:\nall x (all y (r(x, y)))\n"
                 "Conclusion:\nr(A, B)\n")
        with pytest.raises(ExecError, match="oracle limit"):
            enumerate_models(big, max_atoms=2)

    def test_verdict_ignores_premise_order(self):
        for i in range(5):
            gp = generate_problem(GenConfig(seed=23), i)
            premises = list(gp.problem.premises)
            random.Random(i).shuffle(premises)
            shuffled = dataclasses.replace(gp.problem,
                                           premises=tuple(premises))
            out = enumerate_models(shuffled)
            assert isinstance(out, Answered)
            assert out.verdict.value is gp.gold


class TestAgainstReference:
    def test_generated_draws_agree(self, monkeypatch):
        suites = [(GenConfig(fragment=fragment, assumption=world, seed=seed),
                   (2, 3, 5))
                  for fragment in (HORN, FULL_FOL)
                  for world in WorldAssumption
                  for seed in (23, 101, 907)]
        draws = drawn_problems(suites, 12, monkeypatch)
        draws += drawn_problems(EVAL_BATCH_SUITES, 15, monkeypatch)
        kinds = Counter()
        for problem in draws:
            got = oracle_result(enumerate_models, problem)
            assert got == oracle_result(reference_enumerate_models, problem)
            kinds[got.split(":")[0]] += 1
        assert set(kinds) == {"True", "False", "Unknown", "Inconsistent",
                              "ExecError"}

    @pytest.mark.parametrize("text", [
        # zero-arity atoms
        "Premises:\nr\nr -> s\nConclusion:\ns\n",
        "Premises:\nr -> s\nConclusion:\n-s\n",
        # a pair of opposite ground literals
        "Premises:\np(A)\nall x (p(x) -> q(x))\n-p(A)\nConclusion:\nq(A)\n",
        # every atom fixed or unreferenced: nothing left to enumerate
        "Premises:\np(A)\n-q(B)\nConclusion:\np(A)\n",
        "Premises:\np(A)\n-q(B)\nConclusion:\nq(B)\n",
        # a predicate that occurs only with constant arguments
        "Premises:\nall x (p(x) -> q(x))\nr(A, B) | p(B)\n-r(A, B)\n"
        "Conclusion:\nq(B)\n",
        "Premises:\nr(A, B) | r(B, A)\nall x (p(x))\n"
        "Conclusion:\nr(B, A)\n",
        # a negated ground literal premise
        "Premises:\n-p(A)\nall x (-p(x) -> q(x))\nConclusion:\nq(A)\n",
        "Premises:\n-p(A)\nexists x (p(x))\nConclusion:\n"
        "exists y (-p(y))\n",
    ])
    def test_reduction_edge_cases(self, text):
        problem = p9(text)
        assert (oracle_result(enumerate_models, problem)
                == oracle_result(reference_enumerate_models, problem))

    def test_limit_counts_every_atom(self):
        # six ground atoms, only p(B), r(A) and r(B) left to enumerate
        problem = p9("Premises:\np(A)\n-q(A)\nall x (p(x) -> r(x))\n"
                     "Conclusion:\nr(B)\n")
        want = "ExecError: oracle limit: 6 ground atoms exceeds 4"
        assert oracle_result(enumerate_models, problem, max_atoms=4) == want
        assert oracle_result(reference_enumerate_models, problem,
                             max_atoms=4) == want

    @pytest.mark.parametrize("text", [
        "Premises:\nq(f(A))\np(A)\n-p(A)\nConclusion:\nq(B)\n",
        "Premises:\np(A)\n-p(A)\nq(f(A))\nConclusion:\nq(B)\n",
        "Premises:\np(A)\nConclusion:\nq(f(A))\n",
    ])
    def test_function_terms_rejected_in_any_order(self, text):
        with pytest.raises(ExecError,
                           match="function terms are outside the oracle"):
            enumerate_models(p9(text))


@pytest.fixture(scope="module")
def reference_draws():
    """The draws of TestAgainstReference, with their ground atom counts."""
    suites = [(GenConfig(fragment=fragment, assumption=world, seed=seed),
               (2, 3, 5))
              for fragment in (HORN, FULL_FOL)
              for world in WorldAssumption
              for seed in (23, 101, 907)]
    with pytest.MonkeyPatch.context() as m:
        draws = drawn_problems(suites, 12, m)
        draws += drawn_problems(EVAL_BATCH_SUITES, 15, m)
    return [(problem, sum(len(oracle_universe(problem)) ** arity
                          for _, arity in reference_collect_arities(problem)))
            for problem in draws]


class TestBlockSizes:
    # at most 2**12 high assignments per problem, so small blocks stay fast
    MAX_HIGH_ATOMS = 12

    @pytest.mark.parametrize("block", [1, 3, _BLOCK_ATOMS])
    def test_agrees_with_reference(self, block, reference_draws,
                                   monkeypatch):
        monkeypatch.setattr(testkit, "_BLOCK_ATOMS", block)
        kinds = Counter()
        for problem, atoms in reference_draws:
            if block + self.MAX_HIGH_ATOMS < atoms <= ORACLE_MAX_ATOMS:
                continue
            got = oracle_result(enumerate_models, problem)
            assert got == oracle_result(reference_enumerate_models, problem)
            kinds[got.split(":")[0]] += 1
        assert set(kinds) == {"True", "False", "Unknown", "Inconsistent",
                              "ExecError"}
        if block == _BLOCK_ATOMS:
            assert sum(kinds.values()) == len(reference_draws)


class TestOracleUniverse:
    def test_named_constants_plus_conclusion_witness(self):
        p = p9("Premises:\np(A)\nConclusion:\nall x (p(x))\n")
        assert oracle_universe(p) == ["A", "_w0"]

    def test_premise_existentials_add_witnesses(self):
        p = p9("Premises:\nexists x (p(x))\nall x (p(x) -> q(x))\n"
               "Conclusion:\nexists y (q(y))\n")
        assert oracle_universe(p) == ["_w0", "_w1"]

    def test_negated_universal_counts_as_existential(self):
        p = p9("Premises:\n-(all x (p(x)))\nConclusion:\np(A)\n")
        assert oracle_universe(p) == ["A", "_w0"]

    def test_ground_problem_needs_no_witnesses(self):
        p = p9("Premises:\np(A)\nConclusion:\nq(B)\n")
        assert oracle_universe(p) == ["A", "B"]


class TestGenerator:
    def test_deterministic_per_seed_and_index(self):
        cfg = GenConfig(seed=11)
        assert generate_problem(cfg, 3) == generate_problem(cfg, 3)

    def test_different_indices_differ(self):
        cfg = GenConfig(seed=11)
        assert generate_problem(cfg, 0).id != generate_problem(cfg, 1).id

    def test_id_and_tags(self):
        gp = generate_problem(GenConfig(seed=7), 0)
        assert gp.id == "gen-horn-s7-00000"
        assert gp.tags["fragment"] == "horn"
        assert gp.tags["dataset"] == "generated"

    def test_horn_mode_emits_all_three_dialects(self):
        gp = generate_problem(GenConfig(seed=7), 0)
        assert sorted(gp.texts) == ["prover9", "pyke", "z3"]

    def test_full_fol_mode_omits_rule_engine_text(self):
        gp = generate_problem(GenConfig(fragment="full-fol", seed=7), 0)
        assert sorted(gp.texts) == ["prover9", "z3"]

    def test_gold_matches_oracle(self):
        for i in range(5):
            gp = generate_problem(GenConfig(seed=5), i)
            out = enumerate_models(gp.problem, max_atoms=28)
            assert isinstance(out, Answered)
            assert out.verdict.value is gp.gold

    def test_texts_reparse_to_the_same_problem(self):
        for i in range(5):
            gp = generate_problem(GenConfig(seed=9), i)
            again = parse_prover9(gp.texts["prover9"])
            assert again.premises == gp.problem.premises
            assert again.conclusion == gp.problem.conclusion

    def test_z3_text_reparses_equivalently(self):
        for i in range(3):
            gp = generate_problem(GenConfig(seed=13), i)
            z = parse_z3(gp.texts["z3"])
            assert z.premises == gp.problem.premises
            assert z.conclusion == gp.problem.conclusion

    def test_z3_text_refuses_a_function_term(self):
        # the solver-API dialect has no function terms: leaving f(A) out
        # would print p(B), an atom of another arity
        f = Atom("p", (Function("f", (Constant("A"),)), Constant("B")))
        with pytest.raises(ExecError, match="function terms"):
            testkit._render_z3(Problem((), f))
        assert testkit._render_z3(Problem((), Atom("p", (Constant("B"),)))) \
            == "return p(B)\n"

    @pytest.mark.parametrize("render, parse", [
        (testkit._render_prover9, parse_prover9),
        (testkit._render_z3, parse_z3)], ids=["prover9", "z3"])
    def test_zero_arity_atoms_round_trip(self, render, parse):
        # the generator draws unary predicates only, so no generated text
        # has a bare atom
        rain, wet, cold = (Atom(name, ()) for name in ("rain", "wet", "cold"))
        problem = Problem((rain, Implies(rain, wet), Not(cold)), wet)
        assert parse(render(problem)) == problem

    def test_pyke_text_parses(self):
        gp = generate_problem(GenConfig(seed=7), 0)
        assert parse_pyke(gp.texts["pyke"]).conclusion == gp.problem.conclusion

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(constants=1)
        with pytest.raises(ValueError):
            GenConfig(fragment="horn", depth=6, unary_predicates=6)
        with pytest.raises(ValueError):
            GenConfig(fragment="nonsense")

    @pytest.mark.parametrize("knobs,message", [
        ({"unary_predicates": 0}, "need at least one unary predicate"),
        ({"distractor_facts": -1}, "counts must be nonnegative"),
        ({"depth": 0}, "depth must be at least 1"),
        ({"constants": 5, "unary_predicates": 5},
         "25 base ground atoms exceeds the oracle limit of 24"),
    ])
    def test_config_guard_messages(self, knobs, message):
        with pytest.raises(ValueError) as raised:
            GenConfig(**knobs)
        assert str(raised.value) == message

    def test_suite_cycles_depths(self):
        suite = generate_suite(GenConfig(seed=3), 6, depths=(2, 3, 5))
        assert [gp.tags["depth"] for gp in suite] == ["2", "3", "5", "2", "3", "5"]

    def test_minimal_config_label_is_positive(self):
        # a bare chain with nothing to distract always derives its goal
        cfg = GenConfig(depth=1, distractor_facts=0, distractor_rules=0)
        assert generate_problem(cfg, 0).gold is Truth.TRUE

    def test_horn_labels_stay_balanced(self):
        # chi-square against uniform over {True, Unknown}; 6.635 is the
        # df=1 critical value at p=0.01
        cfg = GenConfig(seed=17)
        counts = Counter(generate_problem(cfg, i).gold for i in range(3000))
        assert set(counts) == {Truth.TRUE, Truth.UNKNOWN}
        expected = 3000 / 2
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 6.635

    def test_output_digest(self):
        # recorded before the oracle enumerated only the atoms that matter;
        # pins every id, gold label, tag and text of `trilogic gen`
        suites = [(cfg, depths, 50) for cfg, depths in EVAL_BATCH_SUITES]
        suites.append((GenConfig(seed=101, fragment=FULL_FOL), (2, 3, 5), 60))
        h = hashlib.sha256()
        for cfg, depths, n in suites:
            for gp in generate_suite(cfg, n, depths):
                h.update(json.dumps([gp.id, gp.gold.value,
                                     sorted(gp.tags.items()),
                                     sorted(gp.texts.items())]).encode())
        assert h.hexdigest() == ("8af6f172fbb661a723b6762c1e2310f0"
                                 "c310145e3a2e92ba3b7b676448e04663")

    def test_full_fol_labels_stay_balanced(self):
        # df=2 critical value at p=0.01 is 9.210
        cfg = GenConfig(seed=17, fragment="full-fol")
        counts = Counter(generate_problem(cfg, i).gold for i in range(450))
        expected = 450 / 3
        chi2 = sum((counts.get(t, 0) - expected) ** 2 / expected
                   for t in (Truth.TRUE, Truth.FALSE, Truth.UNKNOWN))
        assert chi2 < 9.210


class TestRenderPyke:
    @staticmethod
    def round_trips(text):
        problem = parse_pyke(text)
        assert parse_pyke(_render_pyke(problem)) == problem

    def test_fixtures_round_trip(self):
        # anne.pyke has a rule with no variable, contradict.pyke a False fact
        parsed = []
        for path in sorted(DATA_DIR.glob("*.pyke")):
            try:
                problem = parse_pyke(path.read_text(encoding="utf-8"))
            except (ParseError, ExecError):
                continue
            assert parse_pyke(_render_pyke(problem)) == problem, path.name
            parsed.append(path.name)
        assert parsed == ["anne.pyke", "contradict.pyke"]

    def test_generated_horn_texts_round_trip(self):
        for cfg, depths in EVAL_BATCH_SUITES:
            if cfg.fragment == HORN:
                for gp in generate_suite(cfg, 12, depths):
                    self.round_trips(gp.texts["pyke"])

    @pytest.mark.parametrize("rule", [
        "quiet(Anne, True) >>> red(Anne, True)",  # no variable
        "quiet($x, False) >>> red($x, True)",  # negated body literal
        "quiet($x, True) >>> red($x, False)",  # negated head
        "red($x, True) && quiet($y, False) >>> near($x, $y, True)",
        "odd(True) >>> red(Anne, True)",  # zero-arity predicate
    ])
    def test_rule_shapes_round_trip(self, rule):
        self.round_trips("Facts:\nquiet(Anne, False)\nnear(Anne, Bob, True)\n"
                         f"Rules:\n{rule}\nQuery:\nred(Anne)\n")

    @pytest.mark.parametrize("premise", [
        Or((Atom("p", (Constant("A"),)), Atom("q", (Constant("A"),)))),
        Not(Not(Atom("p", (Constant("A"),)))),
        ForAll("x", Atom("p", (Variable("x"),))),
        Implies(Or((Atom("p", (Constant("A"),)), Atom("q", (Constant("A"),)))),
                Atom("r", (Constant("A"),))),
        ForAll("x", Implies(Atom("p", (Variable("x"),)),
                            And((Atom("q", (Variable("x"),)),
                                 Atom("r", (Variable("x"),)))))),
    ])
    def test_premise_outside_the_dialect_raises(self, premise):
        with pytest.raises(ExecError, match="outside the rule dialect"):
            _render_pyke(Problem((premise,), Atom("p", (Constant("A"),))))

    def test_query_must_be_an_atom(self):
        a = Atom("p", (Constant("A"),))
        with pytest.raises(ExecError, match="must be an atom"):
            _render_pyke(Problem((a,), Not(a)))


class TestDifferential:
    def test_clean_engines_agree(self):
        report = differential_check(20, GenConfig(seed=21))
        assert report.checked == 20
        assert report.ok

    def test_planted_bug_is_caught(self, monkeypatch):
        monkeypatch.setattr(testkit, "run_translation",
                            lambda text, dialect, engine, limits:
                            Answered(Verdict(Truth.TRUE)))
        report = differential_check(10, GenConfig(seed=21),
                                    engines=["resolution"])
        assert not report.ok
        bad = report.mismatches[0]
        assert bad.engine == "resolution"
        assert bad.expected in ("True", "False", "Unknown")
        assert "prover9" in bad.texts

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown engine\(s\): magic$"):
            differential_check(1, GenConfig(seed=21), engines=["magic"])

    def test_engine_names(self):
        assert sorted(testkit._DIFF_DIALECTS) == sorted(ENGINES)

    def test_broken_text_is_parse_failure(self):
        dialect = testkit._DIFF_DIALECTS["resolution"]
        out = run_translation(BROKEN_P9, dialect, "resolution",
                              DEFAULT_LIMITS)
        assert isinstance(out, ParseFailed)

    def test_broken_text_is_reported_as_mismatch(self, monkeypatch):
        def breaks_text(text, dialect, engine, limits):
            return run_translation(
                BROKEN_P9 if dialect == "prover9" else text, dialect,
                engine, limits)

        monkeypatch.setattr(testkit, "run_translation", breaks_text)
        report = differential_check(3, GenConfig(seed=21),
                                    engines=["resolution"])
        assert len(report.mismatches) == 3
        assert all(m.got.startswith("ParseError: ")
                   for m in report.mismatches)


BROKEN_P9 = "Premises:\np(A\nConclusion:\nq(A)\n"
