"""Footprint: importing trilogic and solving one problem stay lean, and a
run leaves nothing behind for the cyclic collector.

The thread pool, statistics and csv are imported where they are used
(evaluate with jobs > 1, pearson, a CSV report), so a process that never
reaches them never pays for them. The other LAZY_MODULES are imported
nowhere in the package; the guard keeps it that way.
"""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from trilogic import harness, testkit
from trilogic.fol import Answered, Outcome, ResourceLimits, WorldAssumption
from trilogic.testkit import FULL_FOL, HORN, GenConfig

from conftest import DATA_DIR
from test_sat import pigeonhole_text

SRC = Path(__file__).resolve().parent.parent / "src"

# modules a trilogic process loads only on the code paths that need them
LAZY_MODULES = (
    "ssl", "http.client", "urllib.request", "email", "socket", "hashlib",
    "logging", "concurrent.futures", "statistics", "csv",
)

# prints the modules loaded after interpreter start-up
_SCRIPT = """
import json, sys
at_start = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import trilogic, trilogic.cli
if len(sys.argv) > 2:
    trilogic.cli.main(sys.argv[2:])
print(json.dumps(sorted(set(sys.modules) - at_start)))
"""


def loaded_lazy_modules(*argv: str) -> list[str]:
    """The LAZY_MODULES a fresh interpreter loads by importing trilogic
    and, given argv, by one `trilogic` command after it."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", _SCRIPT, str(SRC), *argv],
        capture_output=True, text=True, check=True, timeout=60)
    loaded = set(json.loads(out.stdout.splitlines()[-1]))
    return [m for m in LAZY_MODULES if m in loaded]


def test_import_loads_no_lazy_module():
    assert loaded_lazy_modules() == []


def test_one_solve_loads_no_lazy_module():
    assert loaded_lazy_modules("solve", str(DATA_DIR / "anne.p9"),
                               "--dialect", "prover9",
                               "--engine", "resolution") == []


def test_package_namespace_holds_only_its_modules():
    # every name is reached through its module; `import trilogic` loads
    # the eight modules and binds nothing else
    code = ("import json, sys, types; sys.path.insert(0, sys.argv[1]); "
            "import trilogic; print(json.dumps(sorted("
            "(n, isinstance(v, types.ModuleType)) for n, v in "
            "vars(trilogic).items() if not n.startswith('_'))))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert json.loads(out.stdout) == [
        [name, True] for name in ("chaining", "dialects", "fol", "harness",
                                  "normalize", "resolution", "sat",
                                  "testkit")]


# --- no reference cycles: reference counting frees what a run allocates ---

def cyclic_garbage(path) -> int:
    """The objects that only the cyclic collector can free once path()
    returns. path runs once beforehand, so that lazy imports and regex
    caches are not counted, and then once with the collector paused."""
    path()
    gc.collect()
    gc.disable()
    try:
        path()
        return gc.collect()
    finally:
        gc.enable()


# the (engine, dialect) passes of `trilogic eval` that the eval-batch
# benchmark runs
EVAL_PASSES = (("resolution", "prover9"), ("resolution", "z3"),
               ("sat", "prover9"), ("sat", "z3"), ("chaining", "pyke"))


def eval_suite() -> tuple[list, list]:
    """Dataset and translation records of a small generated suite, Horn
    under the open world and full FOL under the closed world, whose first
    record's every text has a parse error at its end."""
    records, translations = [], []
    for fragment, world, seed in ((HORN, WorldAssumption.OWA, 1),
                                  (FULL_FOL, WorldAssumption.CWA, 2)):
        cfg = GenConfig(fragment=fragment, assumption=world, seed=seed)
        for gp in testkit.generate_suite(cfg, 3, (2, 3)):
            records.append(harness.DatasetRecord(
                gp.id, world.firm(gp.gold), world, gp.tags))
            for dialect, text in gp.texts.items():
                if not translations:
                    text += " ("
                translations.append(
                    harness.TranslationRecord(gp.id, dialect, text))
    return records, translations


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("engine, dialect", EVAL_PASSES)
def test_evaluate_and_reports_leave_no_cycles(engine, dialect, jobs):
    records, translations = eval_suite()

    def path():
        runs = harness.evaluate(records, translations, dialect, engine,
                                jobs=jobs)
        metrics = harness.compute_metrics(runs, ("fragment", "world"))
        for fmt in ("markdown", "csv"):
            harness.render_report(metrics, fmt)

    assert cyclic_garbage(path) == 0


DEEP = "f(" * 150 + "A" + ")" * 150
F10 = "f(" * 10 + "x" + ")" * 10
# p(A), p(f(A)), p(f(f(A))) and so on, without end
GROW = "Premises:\np(A)\nall x (p(x) -> p(f(x)))\nConclusion:\nq(A)\n"

LIMITED = "Unknown, resource-limited"

# (text, dialect, engine, limits, how the run ends) of runs that stop at a
# limit or an error
LIMIT_AND_ERROR_RUNS = {
    "pigeonhole past the deadline, sat": (
        pigeonhole_text(7, 6), "z3", "sat", ResourceLimits(wall_ms=1),
        LIMITED),
    "pigeonhole past the deadline, resolution": (
        pigeonhole_text(7, 6), "z3", "resolution", ResourceLimits(wall_ms=5),
        LIMITED),
    "ground literal budget": (
        pigeonhole_text(7, 6), "z3", "sat",
        ResourceLimits(max_ground_literals=50), "ExecFailed"),
    "clause explosion": (
        "Premises:\np(A)\nConclusion:\n" + " ^ ".join(["p(A)"] * 8) + "\n",
        "prover9", "resolution", ResourceLimits(), "ExecFailed"),
    "function term, sat": (
        GROW, "prover9", "sat", ResourceLimits(), "ExecFailed"),
    "deep terms past the nesting cap": (
        f"Premises:\np({DEEP})\nall x (p(x) -> p({F10}))\n"
        "Conclusion:\nq(A)\n", "prover9", "resolution",
        ResourceLimits(wall_ms=500), LIMITED),
    "growing terms past the deadline": (
        GROW, "prover9", "resolution", ResourceLimits(wall_ms=100), LIMITED),
    "parse error": (
        "Premises:\np(A)\nConclusion:\np(A) (\n", "prover9", "resolution",
        ResourceLimits(), "ParseFailed"),
}


def how_it_ends(outcome: Outcome) -> str:
    if isinstance(outcome, Answered):
        limited = ", resource-limited" if outcome.verdict.resource_limited \
            else ""
        return outcome.verdict.value.value + limited
    return type(outcome).__name__


@pytest.mark.parametrize("name", sorted(LIMIT_AND_ERROR_RUNS))
def test_limit_and_error_runs_leave_no_cycles(name):
    text, dialect, engine, limits, ends = LIMIT_AND_ERROR_RUNS[name]

    def path():
        return harness.run_translation(text, dialect, engine, limits)

    assert how_it_ends(path()) == ends
    assert cyclic_garbage(path) == 0


def test_differential_check_leaves_no_cycles():
    cfg = GenConfig(seed=3)
    assert cyclic_garbage(
        lambda: testkit.differential_check(4, cfg, depths=(2, 3))) == 0
