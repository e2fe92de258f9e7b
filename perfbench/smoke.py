#!/usr/bin/env python3
"""Small-size smoke test of the benchmark's promises.

    python3 perfbench/smoke.py

For each workload at a small size it checks that every verdict is right,
that the traced pass gives the untraced pass's verdicts, that every
per-layer count repeats exactly across two traced runs, and that the
metric names match BENCHMARK.json. On eval-batch it also checks that the
counts and the report bytes are the same at jobs=1 and jobs=nproc. Exits
1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from tracer import counts_only

SMALL = {
    "eval-batch": {"per_suite": 3, "broken_share": 0.25, "jobs": run.NPROC},
    "solve-search": {"sets": 1},
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    workdir = run.OUT / f"smoke-{os.getpid()}"
    try:
        for name, params in SMALL.items():
            w = run.WORKLOADS[name]
            timed = run.timed_run(w, w.default_seed, 0.2, workdir, params)
            check(timed.correct, f"{name}: untraced verdicts are right")
            check(set(timed.metrics) == end_to_end,
                  f"{name}: end-to-end metrics are BENCHMARK.json's")
            first = run.traced_run(w, w.default_seed, workdir, params)
            second = run.traced_run(w, w.default_seed, workdir, params)
            check(first.correct and second.correct,
                  f"{name}: traced verdicts are right and match untraced")
            check(set(first.metrics) == per_layer,
                  f"{name}: per-layer metrics are BENCHMARK.json's")
            check(counts_only(first.metrics) == counts_only(second.metrics),
                  f"{name}: per-layer counts repeat across two traced runs")
            if name == "eval-batch":
                serial = run.traced_run(w, w.default_seed, workdir,
                                        {**params, "jobs": 1})
                check(counts_only(serial.metrics)
                      == counts_only(first.metrics),
                      f"{name}: counts match at jobs=1 and jobs={run.NPROC}")
                check(serial.tally.reports == first.tally.reports,
                      f"{name}: report bytes match at jobs=1 and "
                      f"jobs={run.NPROC}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
