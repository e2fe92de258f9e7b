"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each test prints a single summary line before asserting, so a verbose run
shows the verdict for every criterion even when later assertions fail.
"""

import json
import time

import pytest

from trilogic.cli import main as cli_main
from trilogic.dialects import parse_prover9, parse_pyke, parse_z3
from trilogic.fol import Answered, ParseError, Truth, WorldAssumption
from trilogic.harness import (
    FigureCategory, apply_world_assumption, classify_outcome,
    compute_metrics, evaluate, load_dataset, load_translations, pearson,
    run_translation,
)
from trilogic.resolution import Proved, replay_trace, resolution_runs
from trilogic.testkit import GenConfig, differential_check, generate_problem

from conftest import DATA_DIR, read_fixture


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} {name}: {verdict}{suffix}")


def timed_verdict(text, dialect, engine, assumption=WorldAssumption.OWA):
    start = time.perf_counter()
    outcome = apply_world_assumption(run_translation(text, dialect, engine),
                                     assumption)
    elapsed = time.perf_counter() - start
    value = outcome.verdict.value.value if isinstance(outcome, Answered) \
        else type(outcome).__name__
    return value, elapsed


def test_criterion_1_worked_problems():
    failures = []
    checks = [
        ("anne/resolution", read_fixture("anne.p9"), "prover9", "resolution",
         WorldAssumption.OWA, "True"),
        ("anne/sat", read_fixture("anne.z3"), "z3", "sat",
         WorldAssumption.OWA, "True"),
        ("anne/chaining", read_fixture("anne.pyke"), "pyke", "chaining",
         WorldAssumption.OWA, "True"),
        ("q774/resolution", read_fixture("q774.p9"), "prover9", "resolution",
         WorldAssumption.OWA, "False"),
        ("prontoqa-q3/resolution", read_fixture("prontoqa_q3.p9"), "prover9",
         "resolution", WorldAssumption.CWA, "True"),
        ("marvin-erroneous/sat", read_fixture("marvin_bad.z3"), "z3", "sat",
         WorldAssumption.OWA, "Unknown"),
        ("marvin-corrected/sat", read_fixture("marvin_fixed.z3"), "z3", "sat",
         WorldAssumption.OWA, "False"),
    ]
    for name, text, dialect, engine, assumption, expected in checks:
        value, elapsed = timed_verdict(text, dialect, engine, assumption)
        if value != expected:
            failures.append(f"{name}: got {value}, want {expected}")
        if elapsed >= 1.0:
            failures.append(f"{name}: took {elapsed:.2f}s")
    report(1, "worked-problems", not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_2_error_taxonomy():
    def category(text, dialect, engine):
        outcome = run_translation(text, dialect, engine)
        return classify_outcome(outcome, False)

    got = (category(read_fixture("exist_typo.z3"), "z3", "sat"),
           category(read_fixture("contradict.pyke"), "pyke", "chaining"),
           category(read_fixture("arity_bad.pyke"), "pyke", "chaining"))
    want = (FigureCategory.NONEXEC_PARSE, FigureCategory.NONEXEC_RUNTIME,
            FigureCategory.NONEXEC_RUNTIME)
    ok = got == want
    report(2, "error-taxonomy", ok,
           "" if ok else f"got {[c.value for c in got]}")
    assert got == want


def test_criterion_3_differential_suite():
    start = time.perf_counter()
    horn = differential_check(500, GenConfig(seed=101), depths=(2, 3, 5))
    full = differential_check(200, GenConfig(fragment="full-fol", seed=202))
    elapsed = time.perf_counter() - start
    ok = horn.ok and full.ok and horn.checked == 500 \
        and full.checked == 200 and elapsed < 60.0
    report(3, "differential-suite", ok,
           f"horn {horn.checked - len(horn.mismatches)}/{horn.checked}, "
           f"full-fol {full.checked - len(full.mismatches)}/{full.checked}, "
           f"{elapsed:.1f}s")
    assert horn.ok, horn.mismatches[:3]
    assert full.ok, full.mismatches[:3]
    assert elapsed < 60.0


def test_criterion_4_rule_dialect_rejects_full_fol():
    attempts = [
        "Facts:\nXor(rich(Marvin, True), quiet(Marvin, True))\n\nQuery:\nrich(Marvin)\n",
        "Facts:\nExists(turtle($x, True))\n\nQuery:\nturtle(Rock)\n",
        "Facts:\nrich(Marvin, True) ^ quiet(Marvin, True)\n\nQuery:\nrich(Marvin)\n",
        "Facts:\nrich(Marvin, True) ∨ quiet(Marvin, True)\n\nQuery:\nrich(Marvin)\n",
        "Rules:\nForAll(person($x, True)) >>> mortal($x, True)\n\nQuery:\nmortal(Marvin)\n",
    ]
    rejected = 0
    for text in attempts:
        try:
            parse_pyke(text)
        except ParseError as e:
            assert "unsupported connective" in e.message
            rejected += 1
    ok = rejected == len(attempts)
    report(4, "rule-dialect-restriction", ok,
           f"{rejected}/{len(attempts)} rejected")
    assert rejected == len(attempts)


def test_criterion_5_metric_definitions():
    records = load_dataset(DATA_DIR / "micro" / "dataset.jsonl")
    translations = load_translations(
        DATA_DIR / "micro" / "translations_prover9.jsonl")
    runs = evaluate(records, translations, "prover9", "resolution")
    m = compute_metrics(runs)[0]
    shown = (f"{m.exec_rate * 100:.2f}%", f"{m.accuracy * 100:.2f}%")
    ok = shown == ("75.00%", "50.00%")

    import random

    from trilogic.fol import ExecFailed, Verdict
    from trilogic.harness import RunRecord

    rng = random.Random(1234)
    cats = list(FigureCategory)
    invariant_holds = True
    for _ in range(1000):
        n = rng.randint(1, 40)
        fuzzed = []
        for i in range(n):
            cat = rng.choice(cats)
            outcome = Answered(Verdict(Truth.TRUE)) \
                if cat in (FigureCategory.EXEC_CORRECT,
                           FigureCategory.EXEC_INCORRECT) else ExecFailed("x")
            fuzzed.append(RunRecord(f"r{i}", "prover9", "resolution", outcome,
                                    cat, cat is FigureCategory.EXEC_CORRECT,
                                    0.0, False, {}))
        fm = compute_metrics(fuzzed, group_by=())[0]
        if fm.accuracy > fm.exec_rate + 1e-12:
            invariant_holds = False
            break
    ok = ok and invariant_holds
    report(5, "metric-definitions", ok,
           f"ExecR {shown[0]}, Acc {shown[1]}, "
           f"acc<=execR fuzz {'held' if invariant_holds else 'violated'}")
    assert shown == ("75.00%", "50.00%")
    assert invariant_holds


# Paired (executable %, accuracy %) figures reported per solver style across
# sixteen benchmark configurations (four model variants, four dataset splits).
RESOLUTION_STYLE_ROWS = [
    (97.33, 95.67), (90.67, 87.00), (86.83, 62.50), (61.33, 56.66),
    (98.00, 98.00), (94.00, 93.83), (84.83, 58.50), (58.67, 58.33),
    (100.00, 100.00), (85.50, 63.50), (100.00, 97.50), (64.50, 46.50),
    (84.00, 66.50), (61.00, 39.99), (67.50, 50.00), (50.50, 32.50),
]
SAT_STYLE_ROWS = [
    (75.00, 74.17), (84.83, 82.88), (93.00, 91.00), (88.67, 87.00),
    (77.83, 77.83), (88.33, 88.00), (96.83, 96.83), (92.50, 92.50),
    (96.00, 96.00), (95.50, 93.49), (100.00, 100.00), (93.00, 87.00),
    (40.00, 36.00), (29.00, 24.49), (31.00, 25.50), (25.50, 19.00),
]


def test_criterion_6_correlation_ordering():
    r_resolution = pearson([x for x, _ in RESOLUTION_STYLE_ROWS],
                           [y for _, y in RESOLUTION_STYLE_ROWS])
    r_sat = pearson([x for x, _ in SAT_STYLE_ROWS],
                    [y for _, y in SAT_STYLE_ROWS])
    threshold_ok = r_resolution >= 0.90
    ordering_ok = r_resolution > r_sat
    ok = threshold_ok and ordering_ok
    report(6, "correlation-ordering", ok,
           f"r_resolution {r_resolution:.4f} (>=0.90 "
           f"{'holds' if threshold_ok else 'fails'}), r_sat {r_sat:.4f} "
           f"(strictly-exceeds {'holds' if ordering_ok else 'fails'})")
    assert threshold_ok, r_resolution
    assert ordering_ok, (r_resolution, r_sat)


def test_criterion_7_determinism(tmp_path, capsys):
    csv_1 = tmp_path / "jobs1.csv"
    csv_8 = tmp_path / "jobs8.csv"
    base = ["eval", "--dataset", str(DATA_DIR / "micro" / "dataset.jsonl"),
            "--translations",
            str(DATA_DIR / "micro" / "translations_prover9.jsonl"),
            "--dialect", "prover9", "--engine", "resolution"]
    assert cli_main(base + ["--csv", str(csv_1), "--jobs", "1"]) == 0
    assert cli_main(base + ["--csv", str(csv_8), "--jobs", "8"]) == 0
    eval_ok = csv_1.read_bytes() == csv_8.read_bytes()

    gen_a = tmp_path / "gen_a"
    gen_b = tmp_path / "gen_b"
    for out_dir in (gen_a, gen_b):
        assert cli_main(["gen", "--n", "12", "--seed", "9",
                         "--out", str(out_dir)]) == 0
    gen_ok = all(
        (gen_a / name).read_bytes() == (gen_b / name).read_bytes()
        for name in ("dataset.jsonl", "translations_prover9.jsonl",
                     "translations_pyke.jsonl", "translations_z3.jsonl"))
    capsys.readouterr()
    ok = eval_ok and gen_ok
    report(7, "determinism", ok,
           f"eval bytes {'equal' if eval_ok else 'differ'}, "
           f"gen bytes {'equal' if gen_ok else 'differ'}")
    assert eval_ok
    assert gen_ok


def test_criterion_8_trace_replay():
    replayed = 0
    proofs = 0
    index = 0
    while proofs < 100 and index < 400:
        gp = generate_problem(GenConfig(seed=303), index)
        index += 1
        _, neg_run, pos_run = resolution_runs(gp.problem)
        proof = neg_run if isinstance(neg_run, Proved) else \
            pos_run if isinstance(pos_run, Proved) else None
        if proof is None:
            continue
        proofs += 1
        if replay_trace(proof):
            replayed += 1
    ok = proofs == 100 and replayed == 100
    report(8, "trace-replay", ok, f"{replayed}/{proofs} replayed")
    assert proofs == 100
    assert replayed == 100
