#!/usr/bin/env python3
"""trilogic benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload eval-batch \
        [--seed 7] [--seconds 45] [--trace 0|1]

Each workload is a closed loop with one client in one thread of one
process: the next call starts when the previous one returns. Every verdict
is checked against a known answer.

With ``--trace 0`` the workload repeats for at least ``--seconds`` and
the end-to-end metrics are reported. With ``--trace 1`` one fixed pass of
the workload runs untraced and then traced (see tracer.py); the verdicts of
the two passes must agree, and the per-layer metrics cover the traced set-up
and the traced pass. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it describes
the run (seed, machine, sample counts, tail percentile, failed share).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
NPROC = len(os.sched_getaffinity(0))
# set-ups per timed run: enough to spend about SETUP_SECONDS, within
# SETUP_SAMPLES
SETUP_SECONDS = 5.0
SETUP_SAMPLES = (5, 15)
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail value
# probe() time that timings are scaled to: its typical median on the
# machine of the baseline in perfbench/README.md
PROBE_NOMINAL_S = 0.005
SETUP_PROBES = 10  # probes around each set-up, half before and half after

sys.path.insert(0, str(SRC))
try:
    import trilogic  # noqa: E402
except ImportError as e:
    sys.exit(f"error: cannot import trilogic from {SRC}: {e}")
if Path(trilogic.__file__).resolve().parent != SRC / "trilogic":
    sys.exit(f"error: trilogic was imported from {trilogic.__file__}, "
             f"not from {SRC}")

from trilogic import harness, testkit  # noqa: E402
from trilogic.fol import (  # noqa: E402
    DEFAULT_LIMITS, Answered, Outcome, Truth, WorldAssumption,
)
from trilogic.harness import FigureCategory  # noqa: E402
from trilogic.testkit import FULL_FOL, HORN, GenConfig  # noqa: E402

from tracer import UNITS, Tracer  # noqa: E402


def verdict_of(outcome: Outcome) -> str:
    if isinstance(outcome, Answered):
        v = outcome.verdict
        return v.value.value + (" resource-limited" if v.resource_limited
                                else "")
    return type(outcome).__name__


@dataclass
class Tally:
    """What a stretch of closed-loop work did, and what went wrong."""

    units: float = 0
    attempted: int = 0
    failed: int = 0
    # problem -> its times to verdict, in ms
    samples: dict[str, list[float]] = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    reports: dict = field(default_factory=dict)

    def sample(self, key: str, ms: float) -> None:
        self.samples.setdefault(key, []).append(ms)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(what)

    def merge(self, other: "Tally") -> None:
        """Add other's counts and times; verdicts are not kept, so a long
        run's memory grows only by one float per problem run."""
        self.units += other.units
        self.attempted += other.attempted
        self.failed += other.failed
        for key, ms in other.samples.items():
            self.samples.setdefault(key, []).extend(ms)
        self.failures.extend(other.failures[:20 - len(self.failures)])
        self.reports.update(other.reports)


# ---------------------------------------------------------------------------
# eval-batch: the five (engine, dialect) evaluations of `trilogic eval`

PASSES = (("resolution", "prover9"), ("resolution", "z3"),
          ("sat", "prover9"), ("sat", "z3"), ("chaining", "pyke"))
GROUP_BY = ("fragment", "world")
EVAL_SUITES = ((HORN, WorldAssumption.OWA, (1, 2, 3)),
               (HORN, WorldAssumption.CWA, (1, 2, 3)),
               (FULL_FOL, WorldAssumption.OWA, (2, 3)),
               (FULL_FOL, WorldAssumption.CWA, (2, 3)))
EVAL_GENERATOR_SEED = 1
NAME = re.compile(r"\b([Cp])(\d+)\b")  # generated constants and predicates


@dataclass
class EvalInputs:
    dataset: Path
    translations: dict[str, Path]
    expected: dict[tuple[str, str], FigureCategory]
    records: int
    jobs: int
    ids_by_text: dict[str, str]


def break_text(text: str) -> str:
    """Append an unclosed parenthesis to the last line: a parse error in
    every dialect."""
    lines = text.rstrip("\n").split("\n")
    lines[-1] += " ("
    return "\n".join(lines) + "\n"


def renaming(rng: random.Random) -> Callable[[str], str]:
    """A seeded bijection on the generator's constant and predicate names;
    a renamed problem has the same verdict."""
    cfg = GenConfig()
    perm = {"C": rng.sample(range(cfg.constants), cfg.constants),
            "p": rng.sample(range(cfg.unary_predicates),
                            cfg.unary_predicates)}
    return lambda text: NAME.sub(
        lambda m: f"{m[1]}{perm[m[1]][int(m[2])]}", text)


def eval_setup(seed: int, workdir: Path, params: dict) -> EvalInputs:
    """Generate the suite, break a share of it, write `trilogic gen` files.

    The suite is fixed, as ROADMAP's eval workload asks, and the seed
    renames each record's constants and predicates. A suite drawn from the
    seed moves the cost of a pass by 25% and the latency tail by 60%
    between seeds, more than any bound could absorb. The even mix of
    suites and the broken share are chosen, not measured traffic.
    """
    dataset_lines: list[str] = []
    per_dialect: dict[str, list[str]] = {"prover9": [], "z3": [], "pyke": []}
    suite: list[testkit.GeneratedProblem] = []
    for k, (fragment, world, depths) in enumerate(EVAL_SUITES):
        cfg = GenConfig(fragment=fragment, assumption=world,
                        seed=EVAL_GENERATOR_SEED + k)
        suite += testkit.generate_suite(cfg, params["per_suite"], depths)
    broken = set(random.Random("eval-broken").sample(
        [gp.id for gp in suite], round(params["broken_share"] * len(suite))))
    rng = random.Random(f"eval:{seed}")
    expected: dict[tuple[str, str], FigureCategory] = {}
    ids_by_text: dict[str, str] = {}
    for gp in suite:
        rename = renaming(rng)
        # firm closed-world gold the way `trilogic gen` does
        world = WorldAssumption(gp.tags["world"])
        gold = gp.gold
        if world is WorldAssumption.CWA and gold is Truth.UNKNOWN:
            gold = Truth.FALSE
        dataset_lines.append(json.dumps({
            "id": gp.id, "gold": gold.value, "assumption": world.value,
            "tags": dict(gp.tags)}))
        for dialect, text in gp.texts.items():
            text = rename(text)
            if gp.id in broken:
                text = break_text(text)
            ids_by_text[text] = gp.id
            per_dialect[dialect].append(json.dumps({
                "id": gp.id, "dialect": dialect, "text": text,
                "provider": "generator"}))
        for engine, dialect in PASSES:
            runs = gp.id not in broken and dialect in gp.texts
            expected[(gp.id, engine)] = (
                FigureCategory.EXEC_CORRECT if runs
                else FigureCategory.NONEXEC_PARSE)
    workdir.mkdir(parents=True, exist_ok=True)
    dataset = workdir / "dataset.jsonl"
    dataset.write_text("\n".join(dataset_lines) + "\n", encoding="utf-8")
    translations = {}
    for dialect, lines in per_dialect.items():
        translations[dialect] = workdir / f"translations_{dialect}.jsonl"
        translations[dialect].write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    return EvalInputs(dataset, translations, expected, len(suite),
                      params["jobs"], ids_by_text)


def eval_rep(inputs: EvalInputs, rep: int) -> Tally:
    """One `trilogic eval` pass: load, evaluate, metrics, both reports."""
    engine, dialect = PASSES[rep % len(PASSES)]
    where = f"eval {engine}x{dialect}"
    # a record counts as one problem once all five passes have run it
    tally = Tally(units=inputs.records / len(PASSES),
                  attempted=inputs.records)
    try:
        records = harness.load_dataset(inputs.dataset)
        translations = harness.load_translations(inputs.translations[dialect])
        runs = harness.evaluate(records, translations, dialect, engine,
                                jobs=inputs.jobs)
        metrics = harness.compute_metrics(runs, GROUP_BY)
        tally.reports[(engine, dialect)] = tuple(
            harness.render_report(metrics, fmt) for fmt in ("markdown", "csv"))
    except Exception as e:  # a crash fails every run of the pass
        tally.fail(f"{where}: {type(e).__name__}: {e}", inputs.records)
        tally.verdicts.append((where, type(e).__name__))
        return tally
    if len(runs) != inputs.records:
        tally.fail(f"{where}: {len(runs)} runs for {inputs.records} records",
                   abs(inputs.records - len(runs)))
    limit_ms = DEFAULT_LIMITS.wall_ms
    for run in runs:
        tally.sample(f"{run.id}/{engine}/{dialect}", run.wall_ms)
        tally.verdicts.append((run.id, engine, dialect, run.category.value,
                               verdict_of(run.outcome)))
        want = inputs.expected[(run.id, engine)]
        if run.category is not want or run.resource_limited \
                or run.wall_ms > limit_ms:
            tally.fail(f"{where} {run.id}: {run.category.value} "
                       f"({verdict_of(run.outcome)}, {run.wall_ms:.0f} ms), "
                       f"want {want.value}")
    return tally


# ---------------------------------------------------------------------------
# solve-search: run_translation on search problems with known answers

# (family, dialect, engine, sizes); every set holds each size once
SOLVE_FAMILIES = (
    ("php-unsat", "z3", "sat", (4, 5, 6)),
    ("php-sat", "z3", "sat", (4, 5, 6)),
    ("closure-pyke-fwd", "pyke", "chaining", (12, 16, 20)),
    ("closure-pyke-rev", "pyke", "chaining", (12, 16, 20)),
    ("closure-z3-fwd", "z3", "sat", (6, 8, 10)),
    ("closure-z3-rev", "z3", "sat", (6, 8, 10)),
)


@dataclass(frozen=True)
class SearchProblem:
    id: str
    text: str
    dialect: str
    engine: str
    answer: str


def names(prefix: str, n: int, rng: random.Random) -> list[str]:
    """n distinct seeded constant names."""
    return [f"{prefix}{k}" for k in rng.sample(range(10 * n), n)]


# The seed picks constant names and the queried pigeon and hole only. Clause order stays
# canonical: DPLL's branching order and the naive chaining loop's pass
# count follow the order of the text, and a shuffled order makes the cost
# of one problem vary by 2x from seed to seed.
def pigeonhole(pigeons: int, holes: int, rng: random.Random) -> str:
    """Every pigeon in some hole, no hole shared; z3 text.

    More pigeons than holes is contradictory (Inconsistent); otherwise
    inh(P, H) for any one pigeon and hole is neither entailed nor refuted
    (Unknown)."""
    ps, hs = names("P", pigeons, rng), names("H", holes, rng)
    lines = ["Or(" + ", ".join(f"inh({p}, {h})" for h in hs) + ")"
             for p in ps]
    lines += [f"Not(And(inh({a}, {h}), inh({b}, {h})))"
              for h in hs for i, a in enumerate(ps) for b in ps[i + 1:]]
    lines.append(f"return inh({rng.choice(ps)}, {rng.choice(hs)})")
    return "\n".join(lines) + "\n"


def closure(n: int, dialect: str, forward: bool, rng: random.Random) -> str:
    """A chain of n constants under a transitive path rule.

    path(first, last) is entailed (True); path(last, first) is neither
    entailed nor refuted (Unknown)."""
    cs = names("C", n, rng)
    src, dst = (cs[0], cs[-1]) if forward else (cs[-1], cs[0])
    if dialect == "pyke":
        lines = ["Predicates:", "edge($x, $y, bool)", "path($x, $y, bool)",
                 "Facts:", *(f"edge({a}, {b}, True)"
                             for a, b in zip(cs, cs[1:])),
                 "Rules:", "edge($x, $y, True) >>> path($x, $y, True)",
                 "path($x, $y, True) && edge($y, $z, True) "
                 ">>> path($x, $z, True)",
                 "Query:", f"path({src}, {dst})"]
    else:
        lines = [f"edge({a}, {b})" for a, b in zip(cs, cs[1:])]
        lines += ["ForAll([x, y], Implies(edge(x, y), path(x, y)))",
                  "ForAll([x, y, z], Implies(And(path(x, y), edge(y, z)), "
                  "path(x, z)))",
                  f"return path({src}, {dst})"]
    return "\n".join(lines) + "\n"


def search_problem(family: str, size: int, dialect: str,
                   rng: random.Random) -> tuple[str, str]:
    """(text, known answer) for one member of a family."""
    if family == "php-unsat":
        return pigeonhole(size + 1, size, rng), "Inconsistent"
    if family == "php-sat":
        return pigeonhole(size, size, rng), "Unknown"
    forward = family.endswith("-fwd")
    return (closure(size, dialect, forward, rng),
            "True" if forward else "Unknown")


def solve_setup(seed: int, workdir: Path, params: dict
                ) -> list[list[SearchProblem]]:
    sets = []
    for s in range(params["sets"]):
        rng = random.Random(f"solve:{seed}:{s}")
        members = []
        for family, dialect, engine, sizes in SOLVE_FAMILIES:
            for size in sizes:
                text, answer = search_problem(family, size, dialect, rng)
                members.append(SearchProblem(f"{family}-{size}-set{s}", text,
                                             dialect, engine, answer))
        rng.shuffle(members)
        sets.append(members)
    return sets


def solve_rep(sets: list[list[SearchProblem]], rep: int) -> Tally:
    tally = Tally()
    limit_ms = DEFAULT_LIMITS.wall_ms
    for p in sets[rep % len(sets)]:
        tally.attempted += 1
        start = time.perf_counter()
        try:
            outcome = harness.run_translation(p.text, p.dialect, p.engine)
        except Exception as e:
            tally.fail(f"{p.id}: {type(e).__name__}: {e}")
            tally.verdicts.append((p.id, type(e).__name__))
            continue
        ms = (time.perf_counter() - start) * 1000.0
        tally.units += 1
        tally.sample(p.id, ms)
        got = verdict_of(outcome)
        tally.verdicts.append((p.id, got))
        if got != p.answer or ms > limit_ms:
            tally.fail(f"{p.id}: {got} in {ms:.0f} ms, want {p.answer}")
    return tally


# ---------------------------------------------------------------------------
# workload table


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    held_out_seed: int
    params: dict
    setup: Callable[[int, Path, dict], object]
    rep: Callable[[object, int], Tally]
    # parts in one pass, which uses every input once; rep r runs part
    # r % parts
    parts: Callable[[object], int]
    # problem text -> id for the tracer, for texts built at set-up
    texts: Callable[[object], dict[str, str]]


WORKLOADS = {w.name: w for w in (
    Workload("eval-batch", 7, 907,
             {"per_suite": 50, "broken_share": 0.15, "jobs": 1},
             eval_setup, eval_rep, lambda inputs: len(PASSES),
             lambda inputs: inputs.ids_by_text),
    Workload("solve-search", 11, 911, {"sets": 5},
             solve_setup, solve_rep, len,
             lambda sets: {p.text: p.id for ps in sets for p in ps}),
)}


# ---------------------------------------------------------------------------
# set-up, runs and reporting


def warm_up(workdir: Path) -> None:
    """One tiny eval through every engine, parser and harness step, so
    first-call costs stay out of the timed region. The workload itself
    checks the verdicts."""
    params = {"per_suite": 1, "broken_share": 0.0, "jobs": 1}
    inputs = eval_setup(0, workdir / "warm-up", params)
    for rep in range(len(PASSES)):
        eval_rep(inputs, rep)


def import_seconds() -> float:
    """Time to import trilogic in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import trilogic; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout)


def set_up(w: Workload, seed: int, workdir: Path, params: dict) -> object:
    inputs = w.setup(seed, workdir, params)
    warm_up(workdir)
    return inputs


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key, self.value = key, value


def probe() -> float:
    """Seconds taken by one fixed pure-Python task that uses no trilogic
    code: dict and set look-ups, small objects, tuples, string formatting
    and a sort, as the workloads do. The collector is off while it runs,
    so the size of the benchmark's heap does not change its cost."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        nodes = [_Node(i, (i * 2654435761) % 100003) for i in range(3000)]
        buckets: dict[int, list[_Node]] = {}
        for node in nodes:
            buckets.setdefault(node.value % 997, []).append(node)
        sorted(buckets, key=lambda k: (len(buckets[k]), k))
        frozenset((node.key, node.value) for node in nodes[::3])
        seen: dict[int, int] = {}
        for i in range(4000):
            k = (i * 7919) % 1009
            seen[k] = seen.get(k, 0) + len(str(i))
        " ".join(f"p{n.key}(c{n.value})" for n in nodes[:1000]).split()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def latency_metrics(samples: dict[str, list[float]]
                    ) -> tuple[float, float, float, int]:
    """p50 and tail over per-problem median times, the tail percentile, n."""
    per_problem = sorted(statistics.median(ms) for ms in samples.values())
    n = len(per_problem)
    if n <= TAIL_BEYOND:
        return statistics.median(per_problem), per_problem[-1], 100.0, n
    tail = per_problem[n - TAIL_BEYOND - 1]
    return (statistics.median(per_problem), tail,
            100.0 * (n - TAIL_BEYOND) / n, n)


@dataclass
class Result:
    tally: Tally
    metrics: dict[str, float]
    units: dict[str, str]
    info: dict
    correct: bool


def timed_run(w: Workload, seed: int, seconds: float, workdir: Path,
              params: dict) -> Result:
    """Repeat the workload for at least `seconds` of measured time.

    The speed of a shared 2-vCPU virtual machine drifts by up to 1.8x, in
    spells that can outlast a run (other tenants share the host). Two
    things keep the timings steady under it:

    - Every timing is a median over the run: throughput is one pass's
      problems over the sum of each part's median time, latency is taken
      over each problem's median time, and set-up time is the median of
      the set-ups spread over the run. A median sees the whole run; the
      fastest of a few samples depends on whether a fast spell came.
    - Every timing is scaled to one host speed: multiplied by
      PROBE_NOMINAL_S over the median time of probe(). The probe uses no
      trilogic code, so the scale follows the host and not the program.
      It runs before every rep, and the reps are scaled by the median of
      all those probes. The set-ups are few and far apart, so the host's
      speed can differ between them: each set-up is scaled by
      SETUP_PROBES probes of its own, taken just before and after it.
      The unscaled values are in the run line.

    The number of set-ups scales with their cost: about SETUP_SECONDS of
    them, within SETUP_SAMPLES.
    """
    def set_up_timed() -> object:
        around = [probe() for _ in range(SETUP_PROBES // 2)]
        imported = import_seconds()
        start = time.perf_counter()
        inputs = set_up(w, seed, workdir, params)
        setups.append(imported + time.perf_counter() - start)
        around += [probe() for _ in range(SETUP_PROBES // 2)]
        setup_scales.append(PROBE_NOMINAL_S / statistics.median(around))
        return inputs

    setups: list[float] = []
    setup_scales: list[float] = []
    inputs = set_up_timed()
    fewest, most = SETUP_SAMPLES
    setup_count = max(fewest, min(most, math.ceil(SETUP_SECONDS / setups[0])))
    tally = Tally()
    parts = w.parts(inputs)
    times: dict[int, list[float]] = {}  # part of the pass -> its times
    part_units: dict[int, float] = {}
    probes: list[float] = []
    measured = 0.0
    rep = 0
    while measured < seconds or rep < parts:
        probes.append(probe())
        start = time.perf_counter()
        done = w.rep(inputs, rep)
        rep_seconds = time.perf_counter() - start
        measured += rep_seconds
        times.setdefault(rep % parts, []).append(rep_seconds)
        part_units[rep % parts] = done.units
        tally.merge(done)
        rep += 1
        if len(setups) < setup_count * min(1.0, measured / seconds):
            set_up_timed()
    while len(setups) < setup_count:
        set_up_timed()

    scale = PROBE_NOMINAL_S / statistics.median(probes)
    pass_s = sum(statistics.median(ts) for ts in times.values())
    p50, tail, percentile, n = latency_metrics(tally.samples)
    raw = {
        "problems_per_s": sum(part_units.values()) / pass_s,
        "solve_ms_p50": p50,
        "solve_ms_tail": tail,
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "problems_per_s": raw["problems_per_s"] / scale,
        "solve_ms_p50": p50 * scale,
        "solve_ms_tail": tail * scale,
        "setup_s": statistics.median(
            t * k for t, k in zip(setups, setup_scales)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    units = {"problems_per_s": "1/s", "solve_ms_p50": "ms",
             "solve_ms_tail": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    info = {"reps": rep, "measured_s": measured, "units_done": tally.units,
            "mean_problems_per_s": tally.units / measured,
            "latency_problems": n, "tail_percentile": percentile,
            "probe_median_ms": 1000.0 * statistics.median(probes),
            "probe_samples": len(probes), "scale": scale, "unscaled": raw,
            "setup_samples_s": setups}
    return Result(tally, metrics, units, info, tally.failed == 0)


def traced_run(w: Workload, seed: int, workdir: Path, params: dict,
               trace_file: Optional[Path] = None) -> Result:
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        inputs = set_up(w, seed, workdir, params)
        setup_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.ids_by_text.update(w.texts(inputs))

    def one_pass() -> tuple[Tally, float]:
        tally = Tally()
        start = time.perf_counter()
        for rep in range(w.parts(inputs)):
            done = w.rep(inputs, rep)
            tally.merge(done)
            tally.verdicts += done.verdicts
        return tally, time.perf_counter() - start

    plain, plain_wall = one_pass()
    tracer.install()
    try:
        traced, traced_wall = one_pass()
    finally:
        tracer.uninstall()

    metrics = tracer.metrics(traced_wall / plain_wall - 1.0)
    same = plain.verdicts == traced.verdicts
    if not same:
        traced.failures.insert(0, "traced verdicts differ from untraced")
    wall = setup_wall + traced_wall
    info = {"untraced_pass_s": plain_wall, "traced_pass_s": traced_wall,
            "traced_setup_s": setup_wall, "spans": len(tracer.spans),
            "verdicts_match_untraced": same,
            "layer_share_of_traced_wall": {
                name: metrics[name] / wall
                for name in sorted(metrics) if UNITS[name] == "s"}}
    if trace_file is not None:
        tracer.write(trace_file)
        info["trace_file"] = str(trace_file)
    return Result(traced, metrics, dict(UNITS), info,
                  same and plain.failed == 0 and traced.failed == 0)


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="minimum measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(w, seed, workdir, w.params,
                                OUT / f"trace-{w.name}-s{seed}.jsonl")
        else:
            result = timed_run(w, seed, args.seconds, workdir, w.params)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = result.tally
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    run_info = {
        "workload": w.name, "seed": seed, "trace": args.trace,
        "default_seed": w.default_seed, "held_out_seed": w.held_out_seed,
        "params": w.params, "nproc": NPROC,
        "python": platform.python_version(), "cpu": cpu_model(),
        "commit": git_commit(),
        "failed_share": tally.failed / max(tally.attempted, 1),
        **result.info}
    print("run " + json.dumps(run_info))
    print(json.dumps({
        "correct": result.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": result.units[name]}
                    for name, value in result.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
