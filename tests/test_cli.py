"""Command line behavior: verdict printing, exit codes, reports, datasets."""

import json

import pytest

from trilogic.cli import main

from conftest import DATA_DIR

MICRO = DATA_DIR / "micro"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_resolution_verdict(self, capsys):
        code, out, _ = run(capsys, "solve", DATA_DIR / "anne.p9",
                           "--dialect", "prover9", "--engine", "resolution")
        assert (code, out) == (0, "True\n")

    def test_sat_verdict(self, capsys):
        code, out, _ = run(capsys, "solve", DATA_DIR / "anne.z3",
                           "--dialect", "z3", "--engine", "sat")
        assert (code, out) == (0, "True\n")

    def test_chaining_verdict(self, capsys):
        code, out, _ = run(capsys, "solve", DATA_DIR / "anne.pyke",
                           "--dialect", "pyke", "--engine", "chaining")
        assert (code, out) == (0, "True\n")

    def test_parse_error_exit_1(self, capsys):
        code, out, _ = run(capsys, "solve", DATA_DIR / "exist_typo.z3",
                           "--dialect", "z3", "--engine", "sat")
        assert code == 1
        assert out == "ParseError: unknown operator 'Exist' (line 4, column 1)\n"

    def test_conclusion_only_file_is_unknown(self, capsys, tmp_path):
        f = tmp_path / "c.p9"
        f.write_text("Conclusion:\nquiet(Anne)\n")
        code, out, _ = run(capsys, "solve", f,
                           "--dialect", "prover9", "--engine", "resolution")
        assert (code, out) == (0, "Unknown\n")

    def test_inconsistent_exit_1(self, capsys):
        code, out, _ = run(capsys, "solve", DATA_DIR / "contradict.pyke",
                           "--dialect", "pyke", "--engine", "chaining")
        assert (code, out) == (1, "Inconsistent\n")

    def test_trace_prints_refutation(self, capsys):
        code, out, _ = run(capsys, "solve", DATA_DIR / "anne.p9",
                           "--dialect", "prover9", "--engine", "resolution",
                           "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "True"
        assert any(l.startswith("clause ") for l in lines)
        assert any("$false" in l for l in lines)

    def test_trace_on_z3_text(self, capsys):
        code, out, _ = run(capsys, "solve", DATA_DIR / "anne.z3",
                           "--dialect", "z3", "--engine", "resolution",
                           "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "True"
        assert "clause 15: -white(Anne)" in lines
        assert lines[-1].endswith("=> $false")

    def test_trace_of_false_answer_refutes_conclusion(self, capsys, tmp_path):
        f = tmp_path / "f.p9"
        f.write_text("Premises:\np(A)\n-q(A)\nConclusion:\nq(A)\n")
        code, out, _ = run(capsys, "solve", f, "--dialect", "prover9",
                           "--engine", "resolution", "--trace")
        assert (code, out) == (0, "False\nclause 2: -q(A)\nclause 3: q(A)\n"
                                  "step 4: resolve(2, 3) with {} => $false\n")

    def test_trace_on_parse_error(self, capsys):
        code, out, _ = run(capsys, "solve", DATA_DIR / "exist_typo.z3",
                           "--dialect", "z3", "--engine", "resolution",
                           "--trace")
        assert code == 1
        assert out == "ParseError: unknown operator 'Exist' (line 4, column 1)\n"

    def test_trace_with_sat_prints_verdict_only(self, capsys):
        code, out, _ = run(capsys, "solve", DATA_DIR / "anne.z3",
                           "--dialect", "z3", "--engine", "sat", "--trace")
        assert (code, out) == (0, "True\n")

    def test_cwa_flag_firms_up_unknown(self, capsys, tmp_path):
        f = tmp_path / "c.p9"
        f.write_text("Premises:\np(A)\nConclusion:\nq(A)\n")
        code, out, _ = run(capsys, "solve", f, "--dialect", "prover9",
                           "--engine", "resolution", "--assumption", "CWA")
        assert (code, out) == (0, "False\n")

    def test_incompatible_engine_dialect_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", DATA_DIR / "anne.pyke",
                           "--dialect", "pyke", "--engine", "resolution")
        assert code == 2
        assert "does not accept dialect" in err

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        f = tmp_path / "latin1.p9"
        f.write_bytes(b"Premises:\np(Ren\xe9e)\nConclusion:\nq(A)\n")
        code, _, err = run(capsys, "solve", f,
                           "--dialect", "prover9", "--engine", "resolution")
        assert code == 2
        assert "error:" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", tmp_path / "nope.p9",
                           "--dialect", "prover9", "--engine", "resolution")
        assert code == 2
        assert "error:" in err


class TestEval:
    def args(self, **extra):
        base = ["eval", "--dataset", MICRO / "dataset.jsonl",
                "--translations", MICRO / "translations_prover9.jsonl",
                "--dialect", "prover9", "--engine", "resolution"]
        for key, value in extra.items():
            base.extend([f"--{key}", value])
        return base

    def test_summary_line(self, capsys):
        code, out, _ = run(capsys, *self.args())
        assert code == 0
        assert out == "4 runs  ExecR 75.00%  Acc 50.00%\n"

    def test_reports_written(self, capsys, tmp_path):
        md = tmp_path / "r.md"
        csv = tmp_path / "r.csv"
        code, _, _ = run(capsys, *self.args(md=str(md), csv=str(csv)))
        assert code == 0
        assert "| dataset=micro |" in md.read_text()
        assert csv.read_bytes().startswith(b"group,dialect,engine,")

    def test_jobs_do_not_change_csv_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *self.args(csv=str(a), jobs="1"))
        run(capsys, *self.args(csv=str(b), jobs="8"))
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_dataset_line_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "gold": "True", "assumption": "OWA"}\n'
                       "not json\n")
        code, _, err = run(capsys, "eval", "--dataset", bad,
                           "--translations", MICRO / "translations_prover9.jsonl",
                           "--dialect", "prover9", "--engine", "resolution")
        assert code == 2
        assert "line 2" in err

    def test_missing_dataset_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--dataset", tmp_path / "nope.jsonl",
                           "--translations", MICRO / "translations_prover9.jsonl",
                           "--dialect", "prover9", "--engine", "resolution")
        assert code == 2
        assert "error:" in err

    def test_group_by_engine(self, capsys, tmp_path):
        md = tmp_path / "r.md"
        code, _, _ = run(capsys, *self.args(md=str(md), **{"group-by": "engine"}))
        assert code == 0
        assert "| engine=resolution |" in md.read_text()


class TestGen:
    def test_writes_dataset_and_translations(self, capsys, tmp_path):
        out_dir = tmp_path / "suite"
        code, out, _ = run(capsys, "gen", "--n", "6", "--seed", "5",
                           "--out", out_dir)
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["dataset.jsonl", "translations_prover9.jsonl",
                         "translations_pyke.jsonl", "translations_z3.jsonl"]
        rows = [json.loads(l) for l in
                (out_dir / "dataset.jsonl").read_text().splitlines()]
        assert len(rows) == 6
        assert all(r["assumption"] == "OWA" for r in rows)

    def test_label_distribution_printed(self, capsys, tmp_path):
        _, out, _ = run(capsys, "gen", "--n", "6", "--seed", "5",
                        "--out", tmp_path / "suite")
        total = sum(int(l.split(": ")[1]) for l in out.splitlines()
                    if l.split(":")[0] in ("True", "False", "Unknown"))
        assert total == 6

    def test_seed_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "gen", "--n", "8", "--seed", "3", "--out", a)
        run(capsys, "gen", "--n", "8", "--seed", "3", "--out", b)
        for name in ("dataset.jsonl", "translations_prover9.jsonl",
                     "translations_pyke.jsonl", "translations_z3.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_full_fol_omits_rule_engine_with_notice(self, capsys, tmp_path):
        out_dir = tmp_path / "suite"
        code, out, _ = run(capsys, "gen", "--n", "4", "--seed", "2",
                           "--fragment", "full-fol", "--out", out_dir)
        assert code == 0
        assert "note: no rule-engine texts for this fragment" in out
        assert not (out_dir / "translations_pyke.jsonl").exists()

    def test_cwa_flag_firms_up_gold_labels(self, capsys, tmp_path):
        out_dir = tmp_path / "suite"
        run(capsys, "gen", "--n", "10", "--seed", "4",
            "--assumption", "CWA", "--out", out_dir)
        rows = [json.loads(l) for l in
                (out_dir / "dataset.jsonl").read_text().splitlines()]
        assert all(r["gold"] in ("True", "False") for r in rows)

    def test_bad_config_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--n", "4", "--constants", "1",
                           "--out", tmp_path / "suite")
        assert code == 2
        assert "error:" in err


class TestDiff:
    def test_clean_run_exit_0(self, capsys):
        code, out, _ = run(capsys, "diff", "--n", "8", "--seed", "17")
        assert code == 0
        assert "checked 8 problems" in out

    def test_engine_subset(self, capsys):
        code, out, _ = run(capsys, "diff", "--n", "4", "--seed", "17",
                           "--engines", "resolution,sat")
        assert code == 0

    def test_unknown_engine_flag_exit_2(self, capsys):
        code, _, err = run(capsys, "diff", "--n", "4",
                           "--engines", "resolution,magic")
        assert code == 2
        assert "unknown engine(s): magic" in err

    def test_bad_depths_exit_2(self, capsys):
        code, _, err = run(capsys, "diff", "--n", "4", "--depths", "2,x")
        assert code == 2
        assert "bad depth list" in err


class TestLimitsEnv:
    def test_valid_override_applies(self, capsys, monkeypatch, tmp_path):
        # a one-clause cap makes even the tiny problem hit the budget
        monkeypatch.setenv("TRILOGIC_LIMITS",
                           json.dumps({"max_ground_literals": 1}))
        f = tmp_path / "p.z3"
        f.write_text("P(A)\nQ(A)\nreturn R(A)\n")
        code, out, _ = run(capsys, "solve", f, "--dialect", "z3",
                           "--engine", "sat")
        assert code == 1
        assert out.startswith("ExecError: grounding budget")

    def test_unknown_field_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("TRILOGIC_LIMITS", json.dumps({"max_rockets": 3}))
        code, _, err = run(capsys, "solve", str(DATA_DIR / "anne.p9"),
                           "--dialect", "prover9", "--engine", "resolution")
        assert code == 2
        assert "unknown limit field(s): max_rockets" in err

    def test_non_integer_value_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("TRILOGIC_LIMITS", json.dumps({"wall_ms": "fast"}))
        code, _, err = run(capsys, "solve", str(DATA_DIR / "anne.p9"),
                           "--dialect", "prover9", "--engine", "resolution")
        assert code == 2
        assert "wall_ms must be a positive integer" in err

    def test_invalid_json_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("TRILOGIC_LIMITS", "{oops")
        code, _, err = run(capsys, "solve", str(DATA_DIR / "anne.p9"),
                           "--dialect", "prover9", "--engine", "resolution")
        assert code == 2
        assert "TRILOGIC_LIMITS" in err
