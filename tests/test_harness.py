"""Evaluation harness: loading, running, taxonomy, metrics, reports."""

import csv
import dataclasses
import io
import json
import math
import random
import re

import pytest

from trilogic.fol import (
    Answered, ExecFailed, Inconsistent, ParseFailed, SourceSpan, Truth,
    Verdict, WorldAssumption,
)
from trilogic.harness import (
    DatasetRecord, ENGINES, FigureCategory, Metrics, RunRecord,
    TranslationRecord, apply_world_assumption, classify_outcome,
    compute_metrics, evaluate, load_dataset, load_translations, pearson,
    render_report, run_translation, solve_translation,
)

from conftest import DATA_DIR, call_at_depth


def write_jsonl(path, lines):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines),
                    encoding="utf-8")


class TestLoadDataset:
    def test_micro_fixture(self):
        records = load_dataset(DATA_DIR / "micro" / "dataset.jsonl")
        assert [r.id for r in records] == ["m1", "m2", "m3", "m4"]
        assert records[0].gold is Truth.TRUE
        assert records[3].gold is Truth.FALSE
        assert records[0].tags == {"dataset": "micro"}

    # a line nested past the recursion limit is invalid JSON too
    @pytest.mark.parametrize("bad", ["{oops", "[" * 100_000 + "]" * 100_000],
                             ids=["broken", "deep"])
    @pytest.mark.parametrize("load,first", [
        (load_dataset, {"id": "a", "gold": "True", "assumption": "OWA"}),
        (load_translations, {"id": "a", "dialect": "z3", "text": "x"})],
        ids=["dataset", "translations"])
    def test_invalid_json_names_line(self, tmp_path, load, first, bad):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps(first) + "\n" + bad + "\n")
        with pytest.raises(ValueError, match="^line 2: invalid JSON"):
            load(p)

    def test_missing_key_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [{"id": "a", "gold": "True"}])
        with pytest.raises(ValueError, match="line 1: missing 'assumption'"):
            load_dataset(p)

    def test_duplicate_id_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [{"id": "a", "gold": "True", "assumption": "OWA"},
                        {"id": "a", "gold": "False", "assumption": "OWA"}])
        with pytest.raises(ValueError, match="line 2: duplicate id 'a'"):
            load_dataset(p)

    def test_bad_gold_label_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [{"id": "a", "gold": "Maybe", "assumption": "OWA"}])
        with pytest.raises(ValueError, match="^line 1: bad gold label 'Maybe'$"):
            load_dataset(p)

    def test_closed_world_gold_cannot_be_unknown(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [{"id": "a", "gold": "Unknown", "assumption": "CWA"}])
        with pytest.raises(ValueError,
                           match="line 1: record 'a': closed-world gold"):
            load_dataset(p)

    @pytest.mark.parametrize("value", [["x"], 3, None, {"a": "b"}, True])
    def test_non_string_tag_names_line(self, tmp_path, value):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [{"id": "a", "gold": "True", "assumption": "OWA"},
                        {"id": "b", "gold": "True", "assumption": "OWA",
                         "tags": {"dataset": value}}])
        with pytest.raises(ValueError,
                           match="^line 2: tag 'dataset' must be a string$"):
            load_dataset(p)

    @pytest.mark.parametrize("line,message", [
        ({"id": "a", "gold": "True", "assumption": "open"},
         "line 1: bad assumption 'open'"),
        (["a"], "line 1: expected a JSON object"),
        ({"id": "a", "gold": "True", "assumption": "OWA", "tags": ["x"]},
         "line 1: tags must be an object"),
    ], ids=["assumption", "not-an-object", "tags"])
    def test_rejected_line_message(self, tmp_path, line, message):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [line])
        with pytest.raises(ValueError) as info:
            load_dataset(p)
        assert str(info.value) == message

    def test_boolean_gold_accepted(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [{"id": "a", "gold": True, "assumption": "CWA"}])
        assert load_dataset(p)[0].gold is Truth.TRUE


class TestLoadTranslations:
    def test_micro_fixture(self):
        ts = load_translations(DATA_DIR / "micro" / "translations_prover9.jsonl")
        assert len(ts) == 4
        assert {t.dialect for t in ts} == {"prover9"}

    def test_unknown_dialect(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"id": "a", "dialect": "coq", "text": "x"}])
        with pytest.raises(ValueError, match="line 1: unknown dialect 'coq'"):
            load_translations(p)

    def test_duplicate_pair(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"id": "a", "dialect": "z3", "text": "x"},
                        {"id": "a", "dialect": "z3", "text": "y"}])
        with pytest.raises(ValueError, match="line 2: duplicate translation"):
            load_translations(p)

    def test_same_id_different_dialects_ok(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"id": "a", "dialect": "z3", "text": "x"},
                        {"id": "a", "dialect": "prover9", "text": "y"}])
        assert len(load_translations(p)) == 2

    def test_integer_id_names_line(self, tmp_path):
        # an integer id once loaded as the string "5" and dodged the
        # duplicate check against a later "5"
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"id": "a", "dialect": "z3", "text": "x"},
                        {"id": 5, "dialect": "z3", "text": "a"},
                        {"id": "5", "dialect": "z3", "text": "b"}])
        with pytest.raises(ValueError,
                           match="^line 2: id must be a nonempty string$"):
            load_translations(p)

    @pytest.mark.parametrize("bad", [{"id": ""}, {"id": None},
                                     {"id": ["a"]}])
    def test_bad_id_names_line(self, tmp_path, bad):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"id": "a", "dialect": "z3", "text": "x"},
                        {"dialect": "z3", "text": "x", **bad}])
        with pytest.raises(ValueError,
                           match="^line 2: id must be a nonempty string$"):
            load_translations(p)

    @pytest.mark.parametrize("key,value", [
        ("text", ["b"]), ("text", 3), ("text", None),
        ("provider", 7), ("provider", None)])
    def test_non_string_field_names_line(self, tmp_path, key, value):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"id": "a", "dialect": "z3", "text": "x"},
                        {"id": "b", "dialect": "z3", "text": "y",
                         key: value}])
        with pytest.raises(ValueError,
                           match=f"^line 2: {key} must be a string$"):
            load_translations(p)

    def test_fields_stored_as_given(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"id": "5", "dialect": "z3", "text": "a",
                         "provider": "model-x"},
                        {"id": "6", "dialect": "z3", "text": "b"}])
        assert load_translations(p) == [
            TranslationRecord("5", "z3", "a", "model-x"),
            TranslationRecord("6", "z3", "b", "unknown")]

    def test_unhashable_dialect_names_line(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"id": "a", "dialect": ["z3"], "text": "x"}])
        with pytest.raises(ValueError,
                           match=r"^line 1: unknown dialect \['z3'\]$"):
            load_translations(p)


class TestRunTranslation:
    def test_parse_error_becomes_parse_failed(self):
        out = run_translation("Premises:\np(A\nConclusion:\nq(A)\n",
                              "prover9", "resolution")
        assert isinstance(out, ParseFailed)
        assert out.span is not None

    def test_engine_dialect_pairing_enforced(self):
        # every engine reads every dialect; only unknown names are refused
        with pytest.raises(ValueError, match="^unknown engine 'tableau'$"):
            run_translation("x", "pyke", "tableau")
        with pytest.raises(ValueError, match="^unknown dialect 'tptp'$"):
            run_translation("x", "tptp", "chaining")

    def test_each_engine_answers(self):
        p9 = "Premises:\np(A)\nConclusion:\np(A)\n"
        z3 = "P(A)\nreturn P(A)\n"
        pk = ("Predicates:\np($x, bool)\n\nFacts:\np(Anne, True)\n\n"
              "Query:\np(Anne)\n")
        for text, dialect, engine in ((p9, "prover9", "resolution"),
                                      (z3, "z3", "sat"),
                                      (pk, "pyke", "chaining")):
            out = run_translation(text, dialect, engine)
            assert isinstance(out, Answered)
            assert out.verdict.value is Truth.TRUE

    def test_deep_nesting_is_a_parse_failure_not_a_crash(self):
        # the same conclusion nested 150 and 3000 levels deep
        cases = (
            ("prover9", "resolution", lambda n: "Premises:\np(A)\nConclusion:\n"
             + "(" * n + "p(A)" + ")" * n + "\n"),
            ("prover9", "sat", lambda n: "Premises:\np(A)\nConclusion:\n"
             + "--" * (n // 2) + "p(A)\n"),
            ("z3", "resolution", lambda n: "p(A)\nreturn " + "Not(Not(" * (n // 2)
             + "p(A)" + "))" * (n // 2) + "\n"),
            ("z3", "sat", lambda n: "p(A)\nreturn "
             + "".join(f"ForAll([x{i}], " for i in range(n)) + "p(A)" + ")" * n
             + "\n"),
            ("pyke", "chaining", lambda n: "Facts:\np(A, True)\nRules:\n"
             + " && ".join(["p($x, True)"] * n) + " >>> q($x, True)\n"
             + "Query:\nq(A)\n"),
        )
        for dialect, engine, text in cases:
            assert run_translation(text(150), dialect, engine) \
                == Answered(Verdict(Truth.TRUE)), (dialect, engine)
            out = run_translation(text(3000), dialect, engine)
            assert isinstance(out, ParseFailed), (dialect, engine)
            assert "nested deeper than" in out.detail

    def test_each_quantified_variable_counts_as_one_level(self):
        # ForAll([x0, ..., xn], ...) builds one quantifier per variable
        def text(n):
            xs = ", ".join(f"x{i}" for i in range(n))
            return ("p(" + ", ".join(["A"] * n) + ")\n"
                    f"ForAll([{xs}], Implies(p({xs}), q(x0)))\nreturn q(A)\n")
        for engine in ("resolution", "sat", "chaining"):
            assert run_translation(text(150), "z3", engine) \
                == Answered(Verdict(Truth.TRUE)), engine
            out = run_translation(text(3000), "z3", engine)
            assert isinstance(out, ParseFailed), engine
            assert "nested deeper than" in out.detail


class TestDeepCaller:
    # under the nesting cap, yet a caller deep in its own stack runs out of
    # it: in the z3 parser, or in clausifying the prover9 function terms
    TEXTS = {
        "prover9": "Premises:\np(A)\nConclusion:\np(" + "f(" * 199 + "A"
        + ")" * 199 + ")\n",
        "z3": "p(A)\nreturn " + "Not(" * 200 + "p(A)" + ")" * 200 + "\n",
    }
    SHALLOW = {
        ("prover9", "resolution"): Answered(Verdict(Truth.UNKNOWN)),
        ("prover9", "sat"): ExecFailed(
            "unsupported fragment: function term f/1 (function terms need "
            "the resolution engine)"),
        ("prover9", "chaining"): ExecFailed("formula outside the rule fragment"),
        ("z3", "resolution"): Answered(Verdict(Truth.TRUE)),
        ("z3", "sat"): Answered(Verdict(Truth.TRUE)),
        ("z3", "chaining"): ExecFailed("formula outside the rule fragment"),
    }

    @pytest.mark.parametrize("dialect,engine", sorted(SHALLOW))
    def test_outcome_whatever_the_caller_depth(self, dialect, engine):
        text, shallow = self.TEXTS[dialect], self.SHALLOW[dialect, engine]
        assert solve_translation(text, dialect, engine)[0] == shallow
        outcome, _ = call_at_depth(450, solve_translation, text, dialect,
                                   engine)
        assert outcome in (shallow, ExecFailed(
            "nested too deeply for the interpreter stack"))


class TestClassifyOutcome:
    def test_all_four_categories(self):
        a = Answered(Verdict(Truth.TRUE))
        assert classify_outcome(a, True) is FigureCategory.EXEC_CORRECT
        assert classify_outcome(a, False) is FigureCategory.EXEC_INCORRECT
        p = ParseFailed("bad", SourceSpan(1, 1))
        assert classify_outcome(p, False) is FigureCategory.NONEXEC_PARSE
        x = ExecFailed("boom")
        assert classify_outcome(x, False) is FigureCategory.NONEXEC_RUNTIME

    def test_inconsistent_counts_as_runtime(self):
        assert classify_outcome(Inconsistent(), False) \
            is FigureCategory.NONEXEC_RUNTIME


class TestWorldAssumption:
    def test_cwa_maps_unknown_to_false(self):
        out = apply_world_assumption(Answered(Verdict(Truth.UNKNOWN)),
                                     WorldAssumption.CWA)
        assert out.verdict.value is Truth.FALSE

    def test_cwa_is_idempotent(self):
        once = apply_world_assumption(Answered(Verdict(Truth.UNKNOWN)),
                                      WorldAssumption.CWA)
        twice = apply_world_assumption(once, WorldAssumption.CWA)
        assert once == twice

    def test_owa_passes_through(self):
        out = Answered(Verdict(Truth.UNKNOWN))
        assert apply_world_assumption(out, WorldAssumption.OWA) is out

    def test_definite_answers_untouched(self):
        out = Answered(Verdict(Truth.TRUE))
        assert apply_world_assumption(out, WorldAssumption.CWA) is out

    def test_failures_untouched(self):
        out = ExecFailed("boom")
        assert apply_world_assumption(out, WorldAssumption.CWA) is out

    def test_cwa_leaves_resource_limited_unknown(self):
        # a cut search proved nothing either way, so it is no evidence
        # that the conclusion is false
        out = Answered(Verdict(Truth.UNKNOWN, resource_limited=True))
        assert apply_world_assumption(out, WorldAssumption.CWA) is out


def micro_runs(jobs=1):
    records = load_dataset(DATA_DIR / "micro" / "dataset.jsonl")
    translations = load_translations(
        DATA_DIR / "micro" / "translations_prover9.jsonl")
    return evaluate(records, translations, "prover9", "resolution", jobs=jobs)


class TestEvaluate:
    def test_micro_categories(self):
        runs = micro_runs()
        assert [r.category.value for r in runs] == [
            "ExecCorrect", "ExecIncorrect", "NonExecParse", "ExecCorrect"]

    def test_missing_translation_is_parse_failure(self):
        records = load_dataset(DATA_DIR / "micro" / "dataset.jsonl")
        runs = evaluate(records, [], "prover9", "resolution")
        assert all(r.category is FigureCategory.NONEXEC_PARSE for r in runs)
        assert runs[0].outcome.detail == "translation absent"

    def test_jobs_do_not_change_results(self):
        def stable(runs):
            return [(r.id, r.category, r.correct, r.outcome) for r in runs]

        assert stable(micro_runs(jobs=1)) == stable(micro_runs(jobs=8))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            evaluate([], [], "prover9", "tableau")

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError,
                           match=f"jobs must be at least 1, got {jobs}"):
            micro_runs(jobs=jobs)

    def test_results_sorted_by_id(self):
        runs = micro_runs()
        assert [r.id for r in runs] == sorted(r.id for r in runs)


class TestComputeMetrics:
    def test_micro_metrics(self):
        m = compute_metrics(micro_runs())[0]
        assert m.group == "dataset=micro"
        assert (m.total, m.exec_correct, m.exec_incorrect,
                m.nonexec_parse, m.nonexec_runtime) == (4, 2, 1, 1, 0)
        assert m.exec_rate == pytest.approx(0.75)
        assert m.accuracy == pytest.approx(0.50)

    def test_group_by_engine_and_dialect(self):
        m = compute_metrics(micro_runs(), group_by=("dialect", "engine"))[0]
        assert m.group == "dialect=prover9|engine=resolution"

    def test_missing_tag_groups_under_dash(self):
        m = compute_metrics(micro_runs(), group_by=("nope",))[0]
        assert m.group == "nope=-"

    def test_group_by_provider(self):
        # the translation's provider; a record without one groups under -
        records = load_dataset(DATA_DIR / "micro" / "dataset.jsonl")
        translations = load_translations(
            DATA_DIR / "micro" / "translations_prover9.jsonl")
        translations[0] = dataclasses.replace(translations[0],
                                              provider="model-x")
        runs = evaluate(records, translations[:3], "prover9", "resolution")
        assert [(m.group, m.total) for m in
                compute_metrics(runs, group_by=("provider",))] == [
            ("provider=-", 1), ("provider=fixture", 2),
            ("provider=model-x", 1)]

    def test_empty_input_gives_no_rows(self):
        assert compute_metrics([]) == []

    def test_all_correct_pins_both_rates_at_one(self):
        runs = [RunRecord(f"r{i}", "prover9", "resolution",
                          Answered(Verdict(Truth.TRUE)),
                          FigureCategory.EXEC_CORRECT, True, 0.0, False,
                          {"dataset": "edge"})
                for i in range(3)]
        m = compute_metrics(runs)[0]
        assert m.exec_rate == pytest.approx(1.0)
        assert m.accuracy == pytest.approx(1.0)

    def test_all_parse_failures_pin_both_rates_at_zero(self):
        runs = [RunRecord(f"r{i}", "prover9", "resolution", ExecFailed("x"),
                          FigureCategory.NONEXEC_PARSE, False, 0.0, False,
                          {"dataset": "edge"})
                for i in range(3)]
        m = compute_metrics(runs)[0]
        assert m.exec_rate == pytest.approx(0.0)
        assert m.accuracy == pytest.approx(0.0)

    def test_accuracy_never_exceeds_exec_rate_on_fuzzed_runs(self):
        rng = random.Random(42)
        cats = list(FigureCategory)
        for trial in range(1000):
            n = rng.randint(1, 30)
            runs = []
            for i in range(n):
                cat = rng.choice(cats)
                outcome = Answered(Verdict(Truth.TRUE)) \
                    if cat in (FigureCategory.EXEC_CORRECT,
                               FigureCategory.EXEC_INCORRECT) \
                    else ExecFailed("x")
                runs.append(RunRecord(
                    f"r{i}", "prover9", "resolution", outcome, cat,
                    cat is FigureCategory.EXEC_CORRECT, 0.0, False,
                    {"dataset": "fuzz"}))
            m = compute_metrics(runs)[0]
            assert m.accuracy <= m.exec_rate + 1e-12
            assert 0.0 <= m.accuracy <= 1.0
            assert 0.0 <= m.exec_rate <= 1.0


class TestPearson:
    def test_identity_is_one(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_known_value(self):
        # by hand: Sxy 5.5, Sxx 5, Syy 8.75
        r = pearson([1, 2, 3, 4], [1, 3, 2, 5])
        assert r == pytest.approx(5.5 / math.sqrt(5 * 8.75))

    def test_degenerate_input_raises(self):
        with pytest.raises(ValueError, match="degenerate input"):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError, match="degenerate input"):
            pearson([1], [2])


class TestRenderReport:
    def test_markdown_table(self):
        text = render_report(compute_metrics(micro_runs())).decode()
        assert "| dataset=micro | prover9 | resolution | 4 | 75.00% | 50.00% |" in text
        assert "ExecCorrect 50.00%, ExecIncorrect 25.00%, " \
               "NonExecParse 25.00%, NonExecRuntime 0.00%" in text

    def test_csv_fixed_header_and_crlf(self):
        raw = render_report(compute_metrics(micro_runs()), "csv")
        lines = raw.decode().split("\r\n")
        assert lines[0] == ("group,dialect,engine,total,exec_correct,"
                            "exec_incorrect,nonexec_parse,nonexec_runtime,"
                            "exec_rate,accuracy,resource_limited")
        assert lines[1] == "dataset=micro,prover9,resolution,4,2,1,1,0,0.7500,0.5000,0"

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report([], "xml")

    @staticmethod
    def tagged(value):
        """The micro runs' metrics with every run's dataset tag set to value,
        or with value as every run's tags, grouped by all of them."""
        tags = value if isinstance(value, dict) else {"dataset": value}
        return compute_metrics([dataclasses.replace(r, tags=tags)
                                for r in micro_runs()], tuple(tags))

    @pytest.mark.parametrize("value,group", [
        ("x\ny", "dataset=x\ny"), ("x\r\ny", "dataset=x\r\ny"),
        ("x\ry", "dataset=x\ry"), ("a,b", "dataset=a,b"),
        ("p|q", "dataset=p\\|q"), ('a"b', 'dataset=a"b')])
    def test_csv_keeps_one_record_per_group(self, value, group):
        raw = render_report(self.tagged(value), "csv").decode()
        rows = list(csv.reader(io.StringIO(raw, newline="")))
        assert len(rows) == 2
        assert len(rows[1]) == len(rows[0]) == 11
        assert rows[1][0] == group

    @pytest.mark.parametrize("value,shown", [
        ("x\ny", "x y"), ("x\r\ny", "x y"), ("x\ry", "x y"),
        ("p|q", "p\\|q"), ("p\\|q", "p\\\\\\|q"),
        # two keys, as eval-batch's fragment,world grouping gives
        pytest.param({"dataset": "p", "world": "OWA"}, "p\\|world=OWA",
                     id="two-keys"),
        pytest.param({"dataset": "p\\", "world": "OWA"},
                     "p\\\\\\|world=OWA", id="two-keys-backslash")])
    def test_markdown_keeps_one_row_per_group(self, value, shown):
        lines = render_report(self.tagged(value)).decode().split("\n")
        assert lines[3] == ""  # the table is header, rule and one row
        # a cell ends at a `|` that no odd run of backslashes escapes
        cells = re.split(r"(?<!\\)(?:\\\\)*\|", lines[2])
        assert len(cells) == 8  # six cells between the outer bars
        assert lines[2].startswith(f"| dataset={shown} | prover9 |")
        assert lines[5].startswith(f"- dataset={shown} (prover9/")

    def test_run_field_values_escape_like_tag_values(self):
        # a provider ending in `\` or holding `|` must not read as another
        runs = [dataclasses.replace(r, provider=provider,
                                    tags={"dataset": "x"})
                for provider in ("m\\", "m", "m|x") for r in micro_runs()]
        metrics = compute_metrics(runs, ("provider", "dataset"))
        assert [m.group for m in metrics] == [
            "provider=m\\\\|dataset=x", "provider=m\\|x|dataset=x",
            "provider=m|dataset=x"]
        rows = render_report(metrics).decode().split("\n")[2:5]
        assert len(set(rows)) == 3


class TestEngineTable:
    def test_engine_names(self):
        assert ENGINES == ("resolution", "sat", "chaining")
