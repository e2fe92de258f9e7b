"""Command line behavior: verdict printing, exit codes, reports, datasets."""

import json

import pytest

from trilogic import cli, testkit
from trilogic.cli import main
from trilogic.fol import ExecError, ExecFailed

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
        # the goal clause is numbered after the saturated premise base
        assert "clause 28: -white(Anne)" in lines
        assert lines[-1].endswith("=> $false")

    def test_trace_of_false_answer_refutes_conclusion(self, capsys, tmp_path):
        f = tmp_path / "f.p9"
        f.write_text("Premises:\np(A)\n-q(A)\nConclusion:\nq(A)\n")
        code, out, _ = run(capsys, "solve", f, "--dialect", "prover9",
                           "--engine", "resolution", "--trace")
        assert (code, out) == (0, "False\nclause 2: -q(A)\nclause 3: q(A)\n"
                                  "step 4: resolve(3, 2) with {} => $false\n")

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

    @pytest.mark.parametrize("assumption,verdict",
                             [("OWA", "Unknown"), ("CWA", "False")])
    def test_chaining_absent_query(self, capsys, tmp_path, assumption,
                                   verdict):
        # the fixpoint holds quiet(Anne) but says nothing about calm(Anne)
        f = tmp_path / "absent.pyke"
        f.write_text("Predicates:\nquiet($x, bool)\ncalm($x, bool)\n"
                     "Facts:\nquiet(Anne, True)\nQuery:\ncalm(Anne)\n")
        code, out, _ = run(capsys, "solve", f, "--dialect", "pyke",
                           "--engine", "chaining", "--assumption", assumption)
        assert (code, out) == (0, f"{verdict}\n")

    def test_incompatible_engine_dialect_exit_2(self, capsys):
        # any engine reads any dialect; an unknown name is a usage error
        for dialect, engine, bad in (("pyke", "tableau", "tableau"),
                                     ("tptp", "chaining", "tptp")):
            with pytest.raises(SystemExit) as info:
                run(capsys, "solve", DATA_DIR / "anne.pyke",
                    "--dialect", dialect, "--engine", engine)
            assert info.value.code == 2
            assert f"invalid choice: '{bad}'" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["resolution", "sat", "chaining"])
    def test_every_engine_reads_pyke(self, capsys, engine):
        code, out, _ = run(capsys, "solve", DATA_DIR / "anne.pyke",
                           "--dialect", "pyke", "--engine", engine)
        assert (code, out) == (0, "True\n")

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

    def test_directory_as_file_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", tmp_path,
                             "--dialect", "prover9", "--engine", "resolution")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_program_fault_is_not_a_usage_error(self, capsys, monkeypatch):
        # only ValueError, OSError and ExecError mean exit 2
        def crash(*args):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(cli, "solve_translation", crash)
        with pytest.raises(RuntimeError, match="engine bug"):
            run(capsys, "solve", DATA_DIR / "anne.p9",
                "--dialect", "prover9", "--engine", "resolution")


class TestEval:
    def args(self, dataset=MICRO / "dataset.jsonl", **extra):
        base = ["eval", "--dataset", dataset,
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

    def test_md_to_a_directory_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, *self.args(md=str(tmp_path)))
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_failed_csv_write_keeps_the_markdown(self, capsys, tmp_path):
        md = tmp_path / "r.md"
        code, out, err = run(capsys, *self.args(md=str(md),
                                                csv=str(tmp_path)))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "| dataset=micro |" in md.read_text()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, out, err = run(capsys, *self.args(jobs=jobs))
        assert (code, out) == (2, "")
        assert err == f"error: jobs must be at least 1, got {jobs}\n"

    def test_group_by_engine(self, capsys, tmp_path):
        md = tmp_path / "r.md"
        code, _, _ = run(capsys, *self.args(md=str(md), **{"group-by": "engine"}))
        assert code == 0
        assert "| engine=resolution |" in md.read_text()

    def test_unknown_group_by_key_exit_2(self, capsys, monkeypatch,
                                         tmp_path):
        def no_run(*args, **kwargs):
            raise AssertionError("evaluate ran")

        monkeypatch.setattr(cli, "evaluate", no_run)
        md = tmp_path / "r.md"
        code, out, err = run(capsys, *self.args(
            md=str(md), **{"group-by": "dataset,nosuchkey,engine,also"}))
        assert (code, out, err) == (
            2, "", "error: unknown group-by key(s): also, nosuchkey\n")
        assert not md.exists()

    def test_default_group_by_needs_no_dataset_tag(self, capsys, tmp_path):
        # the dataset tag is the default key, not one given on the command line
        dataset = tmp_path / "d.jsonl"
        dataset.write_text('{"id": "m1", "gold": "True", "assumption": "OWA"}\n')
        md = tmp_path / "r.md"
        code, out, err = run(capsys, *self.args(dataset, md=str(md)))
        assert (code, out, err) == (
            0, "1 runs  ExecR 100.00%  Acc 100.00%\n", "")
        assert "| dataset=- | prover9 | resolution | 1 |" in md.read_text()

    @pytest.mark.parametrize("extra", [{}, {"group-by": "nosuchkey"}],
                             ids=["default", "unknown-group-by-key"])
    def test_empty_dataset_is_0_runs(self, capsys, tmp_path, extra):
        # an empty dataset carries no tags, so no key is checked against it
        dataset = tmp_path / "d.jsonl"
        dataset.write_text("")
        code, out, err = run(capsys, *self.args(dataset, **extra))
        assert (code, out, err) == (0, "0 runs\n", "")

    def test_group_by_provider(self, capsys, tmp_path):
        # the four micro translations all name the provider "fixture"
        md = tmp_path / "r.md"
        code, _, _ = run(capsys, *self.args(md=str(md),
                                            **{"group-by": "provider"}))
        assert code == 0
        assert "| provider=fixture | prover9 | resolution | 4 |" \
            in md.read_text()


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

    def test_n_below_one_exit_2(self, capsys, tmp_path):
        out_dir = tmp_path / "suite"
        code, out, err = run(capsys, "gen", "--n", "-2", "--out", out_dir)
        assert (code, out) == (2, "")
        assert err == "error: --n must be at least 1, got -2\n"
        assert not out_dir.exists()

    def test_out_under_a_file_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run(capsys, "gen", "--n", "2", "--seed", "1",
                           "--out", blocker / "suite")
        assert code == 2
        assert err.startswith("error:")

    def test_generator_exec_error_exit_2(self, capsys, monkeypatch,
                                         tmp_path):
        def give_up(cfg, index=0):
            raise ExecError(f"generator gave up on index {index} "
                            "after 60 attempts")

        monkeypatch.setattr(testkit, "generate_problem", give_up)
        out_dir = tmp_path / "suite"
        code, out, err = run(capsys, "gen", "--n", "3", "--out", out_dir)
        assert (code, out) == (2, "")
        assert err == ("error: generator gave up on index 0 "
                       "after 60 attempts\n")
        assert not out_dir.exists()


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
        code, out, err = run(capsys, "diff", "--n", "4",
                             "--engines", "resolution,magic")
        assert (code, out, err) == (2, "", "error: unknown engine(s): magic\n")

    def test_n_below_one_exit_2(self, capsys):
        code, out, err = run(capsys, "diff", "--n", "-5")
        assert (code, out) == (2, "")
        assert err == "error: --n must be at least 1, got -5\n"

    def test_bad_depths_exit_2(self, capsys):
        code, _, err = run(capsys, "diff", "--n", "4", "--depths", "2,x")
        assert code == 2
        assert "bad depth list" in err

    def test_empty_depth_list_exit_2(self, capsys):
        code, out, err = run(capsys, "diff", "--n", "4", "--depths", ",")
        assert (code, out, err) == (2, "", "error: bad depth list ','\n")

    def test_mismatch_exit_1(self, capsys, monkeypatch):
        # every sat run is wrong, so 11 mismatches show as 10 lines and the
        # first one's texts
        real = testkit.run_translation
        monkeypatch.setattr(
            testkit, "run_translation",
            lambda text, dialect, engine, limits:
            ExecFailed("planted fault") if engine == "sat"
            else real(text, dialect, engine, limits))
        code, out, err = run(capsys, "diff", "--n", "11", "--seed", "17")
        suite = testkit.generate_suite(testkit.GenConfig(seed=17), 11)
        first = suite[0]
        want = ["checked 11 problems: 11 mismatch(es)\n"]
        want += [f"  {gp.id} [sat]: expected {gp.gold.value}, "
                 "got ExecError: planted fault\n" for gp in suite[:10]]
        for dialect in ("prover9", "pyke", "z3"):
            want += [f"--- {first.id} [{dialect}] ---\n", first.texts[dialect]]
        assert (code, out, err) == (1, "".join(want), "")

    @pytest.mark.parametrize("flags", [
        ("--engines", ","),
        ("--engines", ""),
        ("--fragment", "full-fol", "--engines", "chaining")],
        ids=["none-named", "empty", "chaining-on-full-fol"])
    def test_no_engine_to_check_exit_2(self, capsys, flags):
        # full-fol problems have no pyke text, so chaining checks none
        code, out, err = run(capsys, "diff", "--n", "3", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: no engine to check")

    @pytest.mark.parametrize("command", ["gen", "diff"])
    def test_rejected_depth_exit_2(self, capsys, tmp_path, command):
        extra = ["--out", tmp_path / "suite"] if command == "gen" else []
        code, out, err = run(capsys, command, "--n", "3", "--depths", "2,9",
                             *extra)
        assert (code, out) == (2, "")
        assert err == "error: horn chains need unary_predicates > depth\n"

    def test_generator_exec_error_exit_2(self, capsys, monkeypatch):
        def give_up(cfg, index=0):
            raise ExecError(f"generator gave up on index {index} "
                            "after 60 attempts")

        monkeypatch.setattr(testkit, "generate_problem", give_up)
        code, out, err = run(capsys, "diff", "--n", "3")
        assert (code, out) == (2, "")
        assert err == ("error: generator gave up on index 0 "
                       "after 60 attempts\n")


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

    def test_too_large_wall_ms_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("TRILOGIC_LIMITS",
                           '{"wall_ms": 1%s}' % ("0" * 400))
        code, out, err = run(capsys, "solve", str(DATA_DIR / "anne.p9"),
                             "--dialect", "prover9", "--engine", "resolution")
        assert (code, out, err) == (
            2, "", "error: TRILOGIC_LIMITS: wall_ms is too large\n")

    def test_invalid_json_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("TRILOGIC_LIMITS", "{oops")
        code, _, err = run(capsys, "solve", str(DATA_DIR / "anne.p9"),
                           "--dialect", "prover9", "--engine", "resolution")
        assert code == 2
        assert "TRILOGIC_LIMITS" in err

    def test_non_object_json_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("TRILOGIC_LIMITS", "[1]")
        code, out, err = run(capsys, "solve", str(DATA_DIR / "anne.p9"),
                             "--dialect", "prover9", "--engine", "resolution")
        assert (code, out, err) == (
            2, "", "error: TRILOGIC_LIMITS: expected a JSON object\n")

    def test_deeply_nested_json_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("TRILOGIC_LIMITS", "[" * 100_000)
        code, out, err = run(capsys, "solve", str(DATA_DIR / "anne.p9"),
                             "--dialect", "prover9", "--engine", "resolution")
        assert (code, out) == (2, "")
        assert err == "error: TRILOGIC_LIMITS: nested too deeply\n"
