"""Span tracer for the traced benchmark run.

The tracer rebinds the module attributes that trilogic's own callers look
up at call time (``trilogic.harness.parse_z3``, ``trilogic.sat.dpll`` and
so on), so nothing under ``src/`` changes. Each wrapped boundary records a
span (name, wall and thread CPU start and end, thread, parent, problem id)
and the counts it can read off the arguments and the value returned.
``resolvents`` and ``subsumes`` are called hundreds of thousands of times
per workload, so they get count-only wrappers. Spans stay in memory until
``write``.

A layer's time is the CPU self time of its spans: the span's thread CPU
time minus that of its direct children on the same thread. With
``evaluate``'s two pool workers sharing the interpreter lock, a wall-clock
span would also count the time its thread waited for the other worker.

A span opened on a worker thread with nothing open on that thread is
parented to the innermost span open on the main thread, so the trace file
shows ``evaluate``'s pool work under the ``evaluate`` span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

from trilogic import chaining, harness, resolution, sat, testkit
from trilogic.fol import ExecError, ParseError
from trilogic.resolution import LimitReached, Proved, Saturated

# span name -> the layer whose self time it counts towards
SPAN_LAYERS = {
    "parse_prover9": "dialects.parse_s",
    "parse_z3": "dialects.parse_s",
    "parse_pyke": "dialects.parse_s",
    "clausify_all": "normalize.clausify_s",
    "saturate": "resolution.saturate_s",
    "ground": "sat.ground_s",
    "dpll": "sat.dpll_s",
    "compile_rules": "chaining.compile_s",
    "forward_chain": "chaining.fixpoint_s",
    "generate_problem": "testkit.generate_s",
    "enumerate_models": "testkit.oracle_s",
    "evaluate": "harness.evaluate_s",
    "load_dataset": "harness.load_s",
    "load_translations": "harness.load_s",
    "compute_metrics": "harness.report_s",
    "render_report": "harness.report_s",
}
LAYER_TIMES = sorted(set(SPAN_LAYERS.values()))

COUNTS = (
    "dialects.parse_calls", "dialects.parse_errors",
    "normalize.clausify_calls", "normalize.clauses_out",
    "normalize.literals_out",
    "resolution.saturate_calls", "resolution.proved", "resolution.saturated",
    "resolution.limit_reached", "resolution.proof_steps",
    "resolution.resolvents_calls", "resolution.subsumes_calls",
    "sat.ground_calls", "sat.ground_clauses", "sat.ground_atoms",
    "sat.ground_errors", "sat.dpll_calls", "sat.dpll_unsat",
    "chaining.fixpoint_calls", "chaining.fixpoint_facts", "chaining.errors",
    "testkit.generate_calls", "testkit.oracle_calls", "testkit.oracle_errors",
    "harness.runs",
)
RATIOS = (
    "resolution.resolvents_hit_ratio", "resolution.subsumes_hit_ratio",
    "testkit.oracle_accept_ratio",
)
# every per-layer metric the traced run reports, with its unit
UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in COUNTS},
    **{name: "ratio" for name in RATIOS},
    "dialects.parse_kb_per_s": "kB/s",
    "trace.overhead_share": "ratio",
}


# --- what each boundary counts, read from its arguments and result ---

def _parse(t: "Tracer", args: tuple, result: object) -> None:
    t.add("dialects.parse_calls")
    t.add("dialects.parse_bytes", len(args[0].encode("utf-8")))


def _clausify(t: "Tracer", args: tuple, result: list) -> None:
    t.add("normalize.clausify_calls")
    t.add("normalize.clauses_out", len(result))
    t.add("normalize.literals_out", sum(len(c) for c in result))


def _saturate(t: "Tracer", args: tuple, result: object) -> None:
    t.add("resolution.saturate_calls")
    if isinstance(result, Proved):
        t.add("resolution.proved")
        t.add("resolution.proof_steps", len(result.steps))
    elif isinstance(result, Saturated):
        t.add("resolution.saturated")
    elif isinstance(result, LimitReached):
        t.add("resolution.limit_reached")


def _ground(t: "Tracer", args: tuple, result: sat.PropClauseSet) -> None:
    t.add("sat.ground_calls")
    t.add("sat.ground_clauses", len(result.clauses))
    t.add("sat.ground_atoms", result.atom_count)


def _dpll(t: "Tracer", args: tuple, result: object) -> None:
    t.add("sat.dpll_calls")
    if result is None:
        t.add("sat.dpll_unsat")


def _fixpoint(t: "Tracer", args: tuple, result: tuple) -> None:
    t.add("chaining.fixpoint_calls")
    t.add("chaining.fixpoint_facts", len(result))


def _generate(t: "Tracer", args: tuple, result: testkit.GeneratedProblem
              ) -> None:
    t.add("testkit.generate_calls")
    for text in result.texts.values():
        t.ids_by_text[text] = result.id


def _oracle(t: "Tracer", args: tuple, result: object) -> None:
    t.add("testkit.oracle_calls")


def _evaluate(t: "Tracer", args: tuple, result: list) -> None:
    t.add("harness.runs", len(result))


def _text_id(t: "Tracer", args: tuple, kwargs: dict) -> Optional[str]:
    text = args[0] if args else kwargs.get("text")
    return t.ids_by_text.get(text)


def _index_id(t: "Tracer", args: tuple, kwargs: dict) -> Optional[str]:
    # the id generate_problem will give the problem: config plus index
    cfg = args[0] if args else kwargs["cfg"]
    index = args[1] if len(args) > 1 else kwargs.get("index", 0)
    return f"gen-{cfg.fragment}-s{cfg.seed}-{index:05d}"


_PARSE = dict(observe=_parse, error_key="dialects.parse_errors",
              id_of=_text_id)
_PLAIN: dict = {}
# (module, attribute, wrapper options); options name the observer, the
# counter bumped when the call raises ExecError or ParseError, and how to
# read a problem id off the arguments
WRAP_POINTS = (
    *((m, f"parse_{d}", _PARSE)
      for m in (harness, testkit) for d in ("prover9", "z3", "pyke")),
    *((m, f"entail_{e}", _PLAIN)
      for m in (harness, testkit) for e in ("resolution", "sat", "chaining")),
    (resolution, "clausify_all", dict(observe=_clausify)),
    (sat, "clausify_all", dict(observe=_clausify)),
    (resolution, "saturate", dict(observe=_saturate)),
    (sat, "ground", dict(observe=_ground, error_key="sat.ground_errors")),
    (sat, "dpll", dict(observe=_dpll)),
    (chaining, "compile_rules", dict(error_key="chaining.errors")),
    (chaining, "forward_chain", dict(observe=_fixpoint,
                                     error_key="chaining.errors")),
    (testkit, "generate_problem", dict(observe=_generate, id_of=_index_id)),
    (testkit, "enumerate_models", dict(observe=_oracle,
                                       error_key="testkit.oracle_errors")),
    (harness, "run_translation", dict(id_of=_text_id)),
    (harness, "load_dataset", _PLAIN),
    (harness, "load_translations", _PLAIN),
    (harness, "evaluate", dict(observe=_evaluate)),
    (harness, "compute_metrics", _PLAIN),
    (harness, "render_report", _PLAIN),
)
# (module, attribute, counter prefix): count calls and truthy results only
COUNT_POINTS = (
    (resolution, "resolvents", "resolution.resolvents"),
    (resolution, "subsumes", "resolution.subsumes"),
)


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        # (span id, parent id, name, start, end, CPU start, CPU end,
        #  thread ident, problem id)
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        # problem text -> id; generate_problem adds its texts, and the
        # benchmark adds the texts it builds
        self.ids_by_text: dict[str, str] = {}
        self._lock = threading.Lock()
        self._next_id = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[tuple[int, Optional[str]]] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # --- spans ---

    def _stack(self) -> list[tuple[int, Optional[str]]]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, problem_id: Optional[str] = None
             ) -> tuple[list, int, Optional[int], Optional[str]]:
        stack = self._stack()
        outer = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        parent = outer[0] if outer else None
        if problem_id is None and outer is not None:
            problem_id = outer[1]
        sid = next(self._next_id)
        stack.append((sid, problem_id))
        return stack, sid, parent, problem_id

    def close(self, opened: tuple, name: str, start: float,
              cpu_start: float) -> None:
        cpu_end = time.thread_time()
        end = time.perf_counter()
        stack, sid, parent, problem_id = opened
        stack.pop()
        self.spans.append((sid, parent, name, start - self.origin,
                           end - self.origin, cpu_start, cpu_end,
                           threading.get_ident(), problem_id))

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # --- wrapping ---

    def _spanned(self, name: str, fn: Callable, observe=None,
                 error_key: Optional[str] = None, id_of=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = tracer.open(id_of(tracer, args, kwargs) if id_of
                                 else None)
            start = time.perf_counter()
            cpu_start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except (ExecError, ParseError):
                if error_key:
                    tracer.add(error_key)
                raise
            finally:
                tracer.close(opened, name, start, cpu_start)
            if observe:
                observe(tracer, args, result)
            return result

        return wrapper

    def _counted(self, prefix: str, fn: Callable) -> Callable:
        tracer = self
        calls, hits = f"{prefix}_calls", f"{prefix}_hits"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with tracer._lock:
                tracer.counts[calls] += 1
                if result:
                    tracer.counts[hits] += 1
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, options in WRAP_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._spanned(attr, original, **options))
        for module, attr, prefix in COUNT_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._counted(prefix, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # --- results ---

    def self_times(self) -> dict[int, float]:
        """Span CPU time minus its same-thread children's CPU time.

        Children on one thread nest and do not overlap, so their CPU times
        add up; a child on another thread used another thread's clock."""
        thread_of = {span[0]: span[7] for span in self.spans}
        own = {span[0]: span[6] - span[5] for span in self.spans}
        for _, parent, _, _, _, cpu_start, cpu_end, thread, _ in self.spans:
            if parent is not None and thread_of[parent] == thread:
                own[parent] -= cpu_end - cpu_start
        return own

    def layer_seconds(self) -> dict[str, float]:
        own = self.self_times()
        totals = {name: 0.0 for name in LAYER_TIMES}
        for sid, _, name, *_ in self.spans:
            layer = SPAN_LAYERS.get(name)
            if layer is not None:
                totals[layer] += own[sid]
        return totals

    def metrics(self, overhead_share: float) -> dict[str, float]:
        """Every per-layer metric, keyed by name (see UNITS)."""
        c = self.counts
        out: dict[str, float] = dict(self.layer_seconds())
        out.update({name: c[name] for name in COUNTS})

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        out["resolution.resolvents_hit_ratio"] = ratio(
            c["resolution.resolvents_hits"], c["resolution.resolvents_calls"])
        out["resolution.subsumes_hit_ratio"] = ratio(
            c["resolution.subsumes_hits"], c["resolution.subsumes_calls"])
        out["testkit.oracle_accept_ratio"] = ratio(
            c["testkit.generate_calls"], c["testkit.oracle_calls"])
        parse_s = out["dialects.parse_s"]
        out["dialects.parse_kb_per_s"] = (
            c["dialects.parse_bytes"] / 1000 / parse_s if parse_s else 0.0)
        out["trace.overhead_share"] = overhead_share
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "start", "end", "cpu_start",
                "cpu_end", "thread", "problem")
        with path.open("w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def counts_only(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly between two traced runs."""
    return {k: v for k, v in metrics.items()
            if UNITS[k] in ("count", "ratio") and k != "trace.overhead_share"}
