"""Command line front end: solve, eval, gen, diff.

Exit codes: 0 for an answered verdict (or a clean batch), 1 for a
non-executable problem or a differential mismatch, 2 for usage, IO, or
configuration errors. Commands raise ValueError, OSError or ExecError for
such an error, and `main` alone reports it as one `error: <message>` line
on stderr with exit 2 (argparse reports bad flags itself, also with 2).
Resource limits can be overridden process-wide via the TRILOGIC_LIMITS
environment variable holding a JSON object whose keys name ResourceLimits
fields; its errors read `error: TRILOGIC_LIMITS: <message>`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from .fol import (
    Answered, ExecError, ResourceLimits, DEFAULT_LIMITS, WorldAssumption,
)
from .harness import (
    ENGINES, apply_world_assumption, compute_metrics, evaluate,
    load_dataset, load_translations, render_report, solve_translation,
)
from .resolution import render_trace
from .dialects import DIALECTS
from .testkit import (
    FRAGMENTS, GenConfig, differential_check, generate_suite,
)


def _limits_from_env() -> ResourceLimits:
    raw = os.environ.get("TRILOGIC_LIMITS")
    if not raw:
        return DEFAULT_LIMITS
    try:
        data = json.loads(raw)
    except RecursionError:
        raise ValueError("nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    names = {f.name for f in dataclasses.fields(ResourceLimits)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValueError(f"unknown limit field(s): {', '.join(unknown)}")
    return dataclasses.replace(DEFAULT_LIMITS, **data)


def _gen_config(args: argparse.Namespace
                ) -> tuple[GenConfig, Optional[list[int]]]:
    """The generator config and depth list of gen and diff. Raises
    ValueError on any value the generator would reject, the config of
    each listed depth included."""
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    cfg = GenConfig(
        constants=args.constants,
        unary_predicates=args.unary,
        depth=args.depth,
        distractor_facts=args.distractor_facts,
        distractor_rules=args.distractor_rules,
        fragment=args.fragment,
        assumption=WorldAssumption(args.assumption),
        seed=args.seed)
    depths = _parse_depths(args.depths)
    for depth in depths or ():
        dataclasses.replace(cfg, depth=depth)
    return cfg, depths


def _parse_depths(value: Optional[str]) -> Optional[list[int]]:
    if value is None:
        return None
    try:
        depths = [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad depth list {value!r}")
    if not depths or any(d < 1 for d in depths):
        raise ValueError(f"bad depth list {value!r}")
    return depths


def cmd_solve(args: argparse.Namespace, limits: ResourceLimits) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    outcome, proof = solve_translation(text, args.dialect, args.engine, limits)
    outcome = apply_world_assumption(outcome,
                                     WorldAssumption(args.assumption))
    if isinstance(outcome, Answered):
        print(outcome.verdict.value.value)
        if args.trace and proof is not None:
            print(render_trace(proof))
        return 0
    print(str(outcome))
    return 1


def cmd_eval(args: argparse.Namespace, limits: ResourceLimits) -> int:
    records = load_dataset(args.dataset)
    group_by = [k.strip() for k in args.group_by.split(",") if k.strip()]
    unknown = sorted(set(group_by) - {"dialect", "engine", "provider"}
                     - {key for record in records for key in record.tags})
    if records and unknown:
        raise ValueError(f"unknown group-by key(s): {', '.join(unknown)}")
    translations = load_translations(args.translations)
    runs = evaluate(records, translations, args.dialect, args.engine,
                    limits, jobs=args.jobs)
    metrics = compute_metrics(runs, group_by or ("dataset",))
    if args.md:
        Path(args.md).write_bytes(render_report(metrics, "markdown"))
    if args.csv:
        Path(args.csv).write_bytes(render_report(metrics, "csv"))
    if runs:
        (overall,) = compute_metrics(runs, ())
        print(f"{overall.total} runs  ExecR {overall.exec_rate * 100:.2f}%  "
              f"Acc {overall.accuracy * 100:.2f}%")
    else:
        print("0 runs")
    return 0


def cmd_gen(args: argparse.Namespace, limits: ResourceLimits) -> int:
    del limits
    cfg, depths = _gen_config(args)
    suite = generate_suite(cfg, args.n, depths)
    labels: Counter[str] = Counter()
    dataset_lines = []
    per_dialect: dict[str, list[str]] = {}
    for gp in suite:
        gold = cfg.assumption.firm(gp.gold)
        labels[gold.value] += 1
        dataset_lines.append(json.dumps({
            "id": gp.id, "gold": gold.value,
            "assumption": cfg.assumption.value, "tags": dict(gp.tags)}))
        for dialect, text in gp.texts.items():
            per_dialect.setdefault(dialect, []).append(json.dumps({
                "id": gp.id, "dialect": dialect, "text": text,
                "provider": "generator"}))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "dataset.jsonl").write_text(
        "\n".join(dataset_lines) + "\n", encoding="utf-8")
    for dialect in sorted(per_dialect):
        path = out_dir / f"translations_{dialect}.jsonl"
        path.write_text("\n".join(per_dialect[dialect]) + "\n",
                        encoding="utf-8")
    if "pyke" not in per_dialect:
        print("note: no rule-engine texts for this fragment")
    for label in ("True", "False", "Unknown"):
        if labels[label]:
            print(f"{label}: {labels[label]}")
    return 0


def cmd_diff(args: argparse.Namespace, limits: ResourceLimits) -> int:
    cfg, depths = _gen_config(args)
    engines = ENGINES if args.engines is None else [
        n.strip() for n in args.engines.split(",") if n.strip()]
    report = differential_check(args.n, cfg, engines=engines,
                                depths=depths, limits=limits)
    if report.ok:
        print(f"checked {report.checked} problems: all engines agree "
              "with the oracle")
        return 0
    print(f"checked {report.checked} problems: "
          f"{len(report.mismatches)} mismatch(es)")
    for mismatch in report.mismatches[:10]:
        print(f"  {mismatch}")
    first = report.mismatches[0]
    for dialect in sorted(first.texts):
        print(f"--- {first.problem_id} [{dialect}] ---")
        print(first.texts[dialect], end="")
    return 1


def _add_gen_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=20,
                     help="number of problems to generate")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--fragment", choices=FRAGMENTS, default="horn")
    sub.add_argument("--depth", type=int, default=3,
                     help="rule chain length")
    sub.add_argument("--depths", default=None,
                     help="comma list cycled across problems, e.g. 2,3,5")
    sub.add_argument("--constants", type=int, default=3)
    sub.add_argument("--unary", type=int, default=6,
                     help="unary predicate count")
    sub.add_argument("--distractor-facts", type=int, default=2)
    sub.add_argument("--distractor-rules", type=int, default=2)
    sub.add_argument("--assumption", choices=["OWA", "CWA"], default="OWA")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trilogic",
        description="First-order reasoning workbench: three solver styles, "
                    "one data model, plus evaluation tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="answer one problem file")
    solve.add_argument("file")
    solve.add_argument("--dialect", choices=DIALECTS, required=True)
    solve.add_argument("--engine", choices=list(ENGINES), required=True)
    solve.add_argument("--assumption", choices=["OWA", "CWA"], default="OWA")
    solve.add_argument("--trace", action="store_true",
                       help="print the refutation trace (resolution only)")
    solve.set_defaults(func=cmd_solve)

    ev = sub.add_parser("eval", help="run a dataset through one engine")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--translations", required=True)
    ev.add_argument("--dialect", choices=DIALECTS, required=True)
    ev.add_argument("--engine", choices=list(ENGINES), required=True)
    ev.add_argument("--md", default=None, help="markdown report path")
    ev.add_argument("--csv", default=None, help="CSV report path")
    ev.add_argument("--jobs", type=int, default=1)
    ev.add_argument("--group-by", default="",
                    help="comma list: tag keys, dialect, engine, provider "
                         "(default: dataset)")
    ev.set_defaults(func=cmd_eval)

    gen = sub.add_parser("gen", help="emit a seeded dataset with texts")
    _add_gen_flags(gen)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    diff = sub.add_parser("diff",
                          help="cross-check engines against the oracle")
    _add_gen_flags(diff)
    diff.add_argument("--engines", default=None,
                      help="comma subset of engines to check")
    diff.set_defaults(func=cmd_diff)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        limits = _limits_from_env()
    except ValueError as e:
        print(f"error: TRILOGIC_LIMITS: {e}", file=sys.stderr)
        return 2
    try:
        return args.func(args, limits)
    except (ValueError, OSError, ExecError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
