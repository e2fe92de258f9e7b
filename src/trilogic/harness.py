"""Dataset loading, batch evaluation, error taxonomy, metrics, reports.

A run is one (record, translation, engine) execution. Outcomes fall into
four chart categories: answered-and-right, answered-and-wrong, failed to
parse, failed at runtime (contradictions land here too). Executable rate
counts the first two; accuracy counts only the first, over all records, so
accuracy can never exceed executable rate.
"""

from __future__ import annotations

import copy
import enum
import json
import logging
import statistics
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .chaining import entail_chaining
from .dialects import DIALECTS, parse_prover9, parse_pyke, parse_z3
from .fol import (
    Answered, ExecFailed, Inconsistent, Outcome, ParseError, ParseFailed,
    ResourceLimits, DEFAULT_LIMITS, SourceSpan, Truth, Verdict,
    WorldAssumption,
)
# entail_resolution is not called here; perfbench/tracer.py wraps it
from .resolution import Proved, entail_resolution, resolution_runs
from .sat import entail_sat

log = logging.getLogger(__name__)

ENGINE_DIALECTS: dict[str, tuple[str, ...]] = {
    "resolution": ("prover9", "z3"),
    "sat": ("prover9", "z3"),
    "chaining": ("pyke",),
}
ENGINES = tuple(ENGINE_DIALECTS)


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


def _jsonl_objects(path: str | Path) -> Iterable[tuple[int, dict]]:
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"line {line_no}: invalid JSON ({e.msg})") from e
        if not isinstance(obj, dict):
            raise ValueError(f"line {line_no}: expected a JSON object")
        yield line_no, obj


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """Read dataset JSONL; every error message names its line."""
    records: list[DatasetRecord] = []
    seen: set[str] = set()
    for line_no, obj in _jsonl_objects(path):
        where = f"line {line_no}"
        for key in ("id", "gold", "assumption"):
            if key not in obj:
                raise ValueError(f"{where}: missing {key!r}")
        rid = obj["id"]
        if not isinstance(rid, str) or not rid:
            raise ValueError(f"{where}: id must be a nonempty string")
        if rid in seen:
            raise ValueError(f"{where}: duplicate id {rid!r}")
        seen.add(rid)
        tags = obj.get("tags", {})
        if not isinstance(tags, dict):
            raise ValueError(f"{where}: tags must be an object")
        gold = _parse_truth(obj["gold"], where)
        assumption = _parse_assumption(obj["assumption"], where)
        try:
            record = DatasetRecord(
                rid, gold, assumption,
                {str(k): str(v) for k, v in tags.items()})
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        records.append(record)
    return records


def load_translations(path: str | Path) -> list[TranslationRecord]:
    records: list[TranslationRecord] = []
    seen: set[tuple[str, str]] = set()
    for line_no, obj in _jsonl_objects(path):
        where = f"line {line_no}"
        for key in ("id", "dialect", "text"):
            if key not in obj:
                raise ValueError(f"{where}: missing {key!r}")
        dialect = obj["dialect"]
        if dialect not in DIALECTS:
            raise ValueError(f"{where}: unknown dialect {dialect!r}")
        key2 = (obj["id"], dialect)
        if key2 in seen:
            raise ValueError(
                f"{where}: duplicate translation for id {obj['id']!r} "
                f"dialect {dialect!r}")
        seen.add(key2)
        records.append(TranslationRecord(
            str(obj["id"]), dialect, str(obj["text"]),
            str(obj.get("provider", "unknown"))))
    return records


def check_pair(engine: str, dialect: str) -> None:
    """ValueError unless engine is known and reads dialect."""
    if engine not in ENGINE_DIALECTS:
        raise ValueError(f"unknown engine {engine!r}")
    if dialect not in ENGINE_DIALECTS[engine]:
        raise ValueError(
            f"engine {engine!r} does not accept dialect {dialect!r}")


def solve_translation(text: str, dialect: str, engine: str,
                      limits: ResourceLimits = DEFAULT_LIMITS
                      ) -> tuple[Outcome, Proved | None]:
    """Parse one translation and run one engine; never raises ParseError.

    The proof is the refutation behind a resolution True or False answer;
    every other outcome and engine gives None.
    """
    check_pair(engine, dialect)
    try:
        if engine == "chaining":
            return entail_chaining(parse_pyke(text), limits), None
        problem = parse_prover9(text) if dialect == "prover9" \
            else parse_z3(text)
    except ParseError as e:
        return ParseFailed(e.message, e.span), None
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
    """Closed-world reading: a complete search's Unknown becomes False.

    A resource-limited Unknown stays as it is: a search that was cut
    short is no evidence that the conclusion is false.
    """
    if assumption is WorldAssumption.CWA \
            and outcome == Answered(Verdict(Truth.UNKNOWN)):
        return Answered(Verdict(Truth.FALSE))
    return outcome


def evaluate(records: Sequence[DatasetRecord],
             translations: Sequence[TranslationRecord],
             dialect: str, engine: str,
             limits: ResourceLimits = DEFAULT_LIMITS,
             jobs: int = 1) -> list[RunRecord]:
    """Run one engine over one dialect's translations for every record.

    Results are sorted by record id before returning, so the worker count
    never changes the output.
    """
    check_pair(engine, dialect)
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
                         wall_ms, limited, record.tags)

    if jobs > 1:
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
            if key == "dialect":
                value = run.dialect
            elif key == "engine":
                value = run.engine
            else:
                value = run.tags.get(key, "-")
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
    try:
        return statistics.correlation(list(xs), list(ys))
    except statistics.StatisticsError as e:
        raise ValueError(f"degenerate input for correlation: {e}") from e


def _percent(x: float) -> str:
    return f"{x * 100:.2f}%"


def render_report(metrics: Sequence[Metrics], fmt: str = "markdown") -> bytes:
    """Report bytes: a markdown table or a CSV with fixed columns."""
    if fmt == "markdown":
        lines = [
            "| group | dialect | engine | total | ExecR | Acc |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for m in metrics:
            lines.append(
                f"| {m.group} | {m.dialect} | {m.engine} | {m.total} "
                f"| {_percent(m.exec_rate)} | {_percent(m.accuracy)} |")
        lines.append("")
        lines.append("Category proportions:")
        for m in metrics:
            total = m.total or 1
            lines.append(
                f"- {m.group} ({m.dialect}/{m.engine}): "
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
            if "," in group:
                group = f'"{group}"'
            buf.write(f"{group},{m.dialect},{m.engine},{m.total},"
                      f"{m.exec_correct},{m.exec_incorrect},"
                      f"{m.nonexec_parse},{m.nonexec_runtime},"
                      f"{m.exec_rate:.4f},{m.accuracy:.4f},"
                      f"{m.resource_limited}\r\n")
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")


# --- translation providers ---


def _get_path(obj: object, dotted: str) -> object:
    node = obj
    for part in dotted.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            node = node[part]
        else:
            raise KeyError(dotted)
    return node


def _set_path(obj: object, dotted: str, value: object) -> None:
    parts = dotted.split(".")
    node = obj
    for part in parts[:-1]:
        node = node[int(part)] if isinstance(node, list) else node[part]
    last = parts[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value


def fetch_translations(config: Mapping[str, object],
                       records: Sequence[DatasetRecord]
                       ) -> list[TranslationRecord]:
    """Fetch translations via the configured provider.

    The file provider reads an existing translations JSONL. The http
    provider posts a templated prompt per (record, dialect) to a JSON API
    and extracts the completion; each fetched translation is appended to
    the cache file immediately, and failures degrade to per-record absence
    rather than aborting the batch.
    """
    provider = config.get("provider")
    if provider == "file":
        wanted = {r.id for r in records}
        only = config.get("dialect")
        out = [t for t in load_translations(str(config["path"]))
               if t.id in wanted and (only is None or t.dialect == only)]
        missing = wanted - {t.id for t in out}
        if missing:
            log.warning("no translation found for %d record(s): %s",
                        len(missing), ", ".join(sorted(missing)[:5]))
        return out
    if provider != "http":
        raise ValueError(f"unknown provider {provider!r}")

    url = str(config["url"])
    method = str(config.get("method", "POST"))
    headers = {str(k): str(v)
               for k, v in dict(config.get("headers", {})).items()}
    headers.setdefault("Content-Type", "application/json")
    template = config.get("request_template", {})
    prompt_field = str(config["prompt_field"])
    completion_field = str(config["completion_field"])
    timeout = float(config.get("timeout_s", 30))
    cache = config.get("cache")
    prompt_templates = {
        d: Path(str(p)).read_text(encoding="utf-8")
        for d, p in dict(config["prompt_templates"]).items()}
    for d in prompt_templates:
        if d not in DIALECTS:
            raise ValueError(f"unknown dialect {d!r} in prompt_templates")

    out: list[TranslationRecord] = []
    for record in records:
        for dialect in sorted(prompt_templates):
            try:
                prompt = prompt_templates[dialect].format(
                    id=record.id, **record.tags)
            except (KeyError, IndexError) as e:
                log.warning("record %s/%s: prompt template needs %s",
                            record.id, dialect, e)
                continue
            body = copy.deepcopy(template)
            try:
                _set_path(body, prompt_field, prompt)
                request = urllib.request.Request(
                    url, data=json.dumps(body).encode("utf-8"),
                    headers=headers, method=method)
                with urllib.request.urlopen(request, timeout=timeout) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
                text = str(_get_path(payload, completion_field))
            except (urllib.error.URLError, OSError, KeyError, IndexError,
                    ValueError) as e:
                log.warning("record %s/%s: fetch failed: %s",
                            record.id, dialect, e)
                continue
            translation = TranslationRecord(record.id, dialect, text, url)
            out.append(translation)
            if cache:
                line = json.dumps({"id": translation.id,
                                   "dialect": translation.dialect,
                                   "text": translation.text,
                                   "provider": translation.provider})
                with open(str(cache), "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
    return out
