"""Dataset loading, batch evaluation, error taxonomy, metrics, reports.

A run is one (record, translation, engine) execution. Outcomes fall into
four chart categories: answered-and-right, answered-and-wrong, failed to
parse, failed at runtime (contradictions land here too). Executable rate
counts the first two; accuracy counts only the first, over all records, so
accuracy can never exceed executable rate.

The thread pool and statistics are imported inside the functions that
use them, so a process that only solves never loads them
(tests/test_footprint.py checks this).
"""

from __future__ import annotations

import enum
import json
import re
import time
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .chaining import entail_chaining
from .dialects import DIALECTS, parse_prover9, parse_pyke, parse_z3
from .fol import (
    Answered, ExecError, ExecFailed, Inconsistent, Outcome, ParseError,
    ParseFailed, ResourceLimits, DEFAULT_LIMITS, SourceSpan, Truth, Verdict,
    WorldAssumption,
)
# entail_resolution is not called here; perfbench/tracer.py wraps it
from .resolution import Proved, entail_resolution, resolution_runs
from .sat import entail_sat

ENGINES = ("resolution", "sat", "chaining")


class FigureCategory(enum.Enum):
    EXEC_CORRECT = "ExecCorrect"
    EXEC_INCORRECT = "ExecIncorrect"
    NONEXEC_PARSE = "NonExecParse"
    NONEXEC_RUNTIME = "NonExecRuntime"


@dataclass(frozen=True)
class DatasetRecord:
    id: str
    gold: Truth
    assumption: WorldAssumption
    tags: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.assumption is WorldAssumption.CWA \
                and self.gold is Truth.UNKNOWN:
            raise ValueError(
                f"record {self.id!r}: closed-world gold must be True or False")


@dataclass(frozen=True)
class TranslationRecord:
    id: str
    dialect: str
    text: str
    provider: str = "unknown"


@dataclass(frozen=True)
class RunRecord:
    id: str
    dialect: str
    engine: str
    outcome: Outcome
    category: FigureCategory
    correct: bool
    wall_ms: float
    resource_limited: bool
    tags: Mapping[str, str] = field(default_factory=dict)
    # the translation's, or "-" when the record has none
    provider: str = "-"


@dataclass(frozen=True)
class Metrics:
    group: str
    dialect: str
    engine: str
    total: int
    exec_correct: int
    exec_incorrect: int
    nonexec_parse: int
    nonexec_runtime: int
    exec_rate: float
    accuracy: float
    resource_limited: int


def _parse_truth(value: object, where: str) -> Truth:
    if value is True:
        return Truth.TRUE
    if value is False:
        return Truth.FALSE
    if isinstance(value, str):
        for t in Truth:
            if t.value == value:
                return t
    raise ValueError(f"{where}: bad gold label {value!r}")


def _parse_assumption(value: object, where: str) -> WorldAssumption:
    if isinstance(value, str):
        for a in WorldAssumption:
            if a.value == value:
                return a
    raise ValueError(f"{where}: bad assumption {value!r}")


def _jsonl_records(path: str | Path, keys: tuple[str, ...]
                   ) -> Iterable[tuple[str, dict]]:
    """Each line's object and its "line N" label, once the object holds
    an id that is a nonempty string and every one of keys."""
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"line {line_no}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"{where}: invalid JSON ({e.msg})") from e
        except RecursionError:
            raise ValueError(f"{where}: invalid JSON (nested too deeply)") \
                from None
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: expected a JSON object")
        for key in ("id", *keys):
            if key not in obj:
                raise ValueError(f"{where}: missing {key!r}")
        if not isinstance(obj["id"], str) or not obj["id"]:
            raise ValueError(f"{where}: id must be a nonempty string")
        yield where, obj


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """Read dataset JSONL; every error message names its line."""
    records: list[DatasetRecord] = []
    seen: set[str] = set()
    for where, obj in _jsonl_records(path, ("gold", "assumption")):
        rid = obj["id"]
        if rid in seen:
            raise ValueError(f"{where}: duplicate id {rid!r}")
        seen.add(rid)
        tags = obj.get("tags", {})
        if not isinstance(tags, dict):
            raise ValueError(f"{where}: tags must be an object")
        for key, value in tags.items():
            if not isinstance(value, str):
                raise ValueError(f"{where}: tag {key!r} must be a string")
        gold = _parse_truth(obj["gold"], where)
        assumption = _parse_assumption(obj["assumption"], where)
        try:
            record = DatasetRecord(rid, gold, assumption, tags)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        records.append(record)
    return records


def load_translations(path: str | Path) -> list[TranslationRecord]:
    """Read translations JSONL; every error message names its line."""
    records: list[TranslationRecord] = []
    seen: set[tuple[str, str]] = set()
    for where, obj in _jsonl_records(path, ("dialect", "text")):
        rid, dialect = obj["id"], obj["dialect"]
        if dialect not in DIALECTS:
            raise ValueError(f"{where}: unknown dialect {dialect!r}")
        for key in ("text", "provider"):
            if not isinstance(obj.get(key, ""), str):
                raise ValueError(f"{where}: {key} must be a string")
        if (rid, dialect) in seen:
            raise ValueError(f"{where}: duplicate translation for id {rid!r} "
                             f"dialect {dialect!r}")
        seen.add((rid, dialect))
        records.append(TranslationRecord(
            rid, dialect, obj["text"], obj.get("provider", "unknown")))
    return records


def check_pair(engine: str, dialect: str) -> None:
    """ValueError unless both the engine and the dialect are known."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}")


def solve_translation(text: str, dialect: str, engine: str,
                      limits: ResourceLimits = DEFAULT_LIMITS
                      ) -> tuple[Outcome, Proved | None]:
    """Parse one translation and run one engine; never raises ParseError.

    A parser's ExecError (pyke's load-time declaration checks) is
    ExecFailed. The proof is the refutation behind a resolution True or
    False answer; every other outcome and engine gives None.
    """
    check_pair(engine, dialect)
    try:
        if dialect == "prover9":
            problem = parse_prover9(text)
        elif dialect == "z3":
            problem = parse_z3(text)
        else:
            problem = parse_pyke(text)
    except ParseError as e:
        return ParseFailed(e.message, e.span), None
    except ExecError as e:
        return ExecFailed(str(e)), None
    if engine == "chaining":
        return entail_chaining(problem, limits), None
    if engine == "sat":
        return entail_sat(problem, limits), None
    outcome, *runs = resolution_runs(problem, limits)
    # one proof backs a True or False answer; two mean Inconsistent
    proofs = [run for run in runs if isinstance(run, Proved)]
    return outcome, proofs[0] if len(proofs) == 1 else None


def run_translation(text: str, dialect: str, engine: str,
                    limits: ResourceLimits = DEFAULT_LIMITS) -> Outcome:
    """solve_translation without the proof."""
    return solve_translation(text, dialect, engine, limits)[0]


def classify_outcome(outcome: Outcome, correct: bool) -> FigureCategory:
    if isinstance(outcome, Answered):
        return FigureCategory.EXEC_CORRECT if correct \
            else FigureCategory.EXEC_INCORRECT
    if isinstance(outcome, ParseFailed):
        return FigureCategory.NONEXEC_PARSE
    if isinstance(outcome, (ExecFailed, Inconsistent)):
        return FigureCategory.NONEXEC_RUNTIME
    raise TypeError(f"unexpected outcome {type(outcome).__name__}")


def apply_world_assumption(outcome: Outcome,
                           assumption: WorldAssumption) -> Outcome:
    """An engine's outcome under the assumption (WorldAssumption.firm).

    Every engine answers open-world; this is where each answer gets the
    closed-world reading. A resource-limited Unknown stays as it is: a
    search that was cut short is no evidence that the conclusion is false.
    """
    if isinstance(outcome, Answered) and not outcome.verdict.resource_limited:
        firmed = assumption.firm(outcome.verdict.value)
        if firmed is not outcome.verdict.value:
            return Answered(Verdict(firmed))
    return outcome


def evaluate(records: Sequence[DatasetRecord],
             translations: Sequence[TranslationRecord],
             dialect: str, engine: str,
             limits: ResourceLimits = DEFAULT_LIMITS,
             jobs: int = 1) -> list[RunRecord]:
    """Run one engine over one dialect's translations for every record.

    Results are sorted by record id before returning, so the worker count
    never changes the output. Raises ValueError for jobs below 1.
    """
    check_pair(engine, dialect)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    by_id = {t.id: t for t in translations if t.dialect == dialect}

    def solve_one(record: DatasetRecord) -> RunRecord:
        translation = by_id.get(record.id)
        start = time.perf_counter()
        if translation is None:
            outcome: Outcome = ParseFailed("translation absent",
                                           SourceSpan(1, 1))
        else:
            outcome = run_translation(translation.text, dialect, engine,
                                      limits)
        wall_ms = (time.perf_counter() - start) * 1000.0
        limited = isinstance(outcome, Answered) \
            and outcome.verdict.resource_limited
        outcome = apply_world_assumption(outcome, record.assumption)
        correct = isinstance(outcome, Answered) \
            and outcome.verdict.value is record.gold
        return RunRecord(record.id, dialect, engine, outcome,
                         classify_outcome(outcome, correct), correct,
                         wall_ms, limited, record.tags,
                         "-" if translation is None else translation.provider)

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(solve_one, records))
    else:
        runs = [solve_one(r) for r in records]
    runs.sort(key=lambda r: r.id)
    return runs


def compute_metrics(runs: Sequence[RunRecord],
                    group_by: Sequence[str] = ("dataset",)) -> list[Metrics]:
    """Aggregate runs into one Metrics row per nonempty group."""
    groups: dict[str, list[RunRecord]] = {}
    for run in runs:
        parts = []
        for key in group_by:
            if key in ("dialect", "engine", "provider"):
                value = getattr(run, key)
            else:
                # a bare `|` parts two keys, so a tag value escapes its own
                value = run.tags.get(key, "-").replace("\\", "\\\\") \
                    .replace("|", "\\|")
            parts.append(f"{key}={value}")
        groups.setdefault("|".join(parts), []).append(run)

    out: list[Metrics] = []
    for label in sorted(groups):
        bucket = groups[label]
        counts = {c: 0 for c in FigureCategory}
        for run in bucket:
            counts[run.category] += 1
        total = len(bucket)
        ec = counts[FigureCategory.EXEC_CORRECT]
        ei = counts[FigureCategory.EXEC_INCORRECT]
        dialects = sorted({r.dialect for r in bucket})
        engines = sorted({r.engine for r in bucket})
        out.append(Metrics(
            group=label,
            dialect=dialects[0] if len(dialects) == 1 else "mixed",
            engine=engines[0] if len(engines) == 1 else "mixed",
            total=total,
            exec_correct=ec,
            exec_incorrect=ei,
            nonexec_parse=counts[FigureCategory.NONEXEC_PARSE],
            nonexec_runtime=counts[FigureCategory.NONEXEC_RUNTIME],
            exec_rate=(ec + ei) / total,
            accuracy=ec / total,
            resource_limited=sum(1 for r in bucket if r.resource_limited)))
    return out


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample correlation coefficient; ValueError on degenerate input."""
    import statistics
    try:
        return statistics.correlation(list(xs), list(ys))
    except statistics.StatisticsError as e:
        raise ValueError(f"degenerate input for correlation: {e}") from e


def _percent(x: float) -> str:
    return f"{x * 100:.2f}%"


def _md_group(group: str) -> str:
    """A group label on one markdown line, with a backslash before each `|`
    that would end the table cell: one after an even run of backslashes."""
    line = group.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")
    return re.sub(r"(?<!\\)((?:\\\\)*)\|", r"\1\\|", line)


def render_report(metrics: Sequence[Metrics], fmt: str = "markdown") -> bytes:
    """Report bytes: a markdown table or a CSV with fixed columns."""
    if fmt == "markdown":
        lines = [
            "| group | dialect | engine | total | ExecR | Acc |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for m in metrics:
            lines.append(
                f"| {_md_group(m.group)} | {m.dialect} | {m.engine} "
                f"| {m.total} | {_percent(m.exec_rate)} "
                f"| {_percent(m.accuracy)} |")
        lines.append("")
        lines.append("Category proportions:")
        for m in metrics:
            total = m.total or 1
            lines.append(
                f"- {_md_group(m.group)} ({m.dialect}/{m.engine}): "
                f"ExecCorrect {_percent(m.exec_correct / total)}, "
                f"ExecIncorrect {_percent(m.exec_incorrect / total)}, "
                f"NonExecParse {_percent(m.nonexec_parse / total)}, "
                f"NonExecRuntime {_percent(m.nonexec_runtime / total)}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "csv":
        buf = StringIO()
        buf.write("group,dialect,engine,total,exec_correct,exec_incorrect,"
                  "nonexec_parse,nonexec_runtime,exec_rate,accuracy,"
                  "resource_limited\r\n")
        for m in metrics:
            group = m.group.replace('"', "'")
            if any(c in group for c in ",\r\n"):
                group = f'"{group}"'
            buf.write(f"{group},{m.dialect},{m.engine},{m.total},"
                      f"{m.exec_correct},{m.exec_incorrect},"
                      f"{m.nonexec_parse},{m.nonexec_runtime},"
                      f"{m.exec_rate:.4f},{m.accuracy:.4f},"
                      f"{m.resource_limited}\r\n")
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")

