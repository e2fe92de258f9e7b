"""A first-order reasoning workbench with three solver styles.

One shared formula and clause model feeds three engines: resolution
saturation, grounding plus CDCL satisfiability, and typed forward
chaining. Around them sit a model-enumeration oracle, a seeded problem
generator, a batch evaluation harness with an error taxonomy, and a CLI.
"""

from .chaining import (
    InconsistentFacts, RuleBase, answer_query, compile_rules, dump_fixpoint,
    entail_chaining, forward_chain,
)
from .dialects import DIALECTS, parse_prover9, parse_pyke, parse_z3
from .fol import (
    And, Answered, Atom, Clause, Constant, DeadlineExceeded, ExecError,
    ExecFailed, Exists, ForAll, Formula, Function, Iff, Implies,
    Inconsistent, Literal, Not, Or, Outcome, ParseError, ParseFailed,
    Problem, ResourceLimits, DEFAULT_LIMITS, SourceSpan, Term, Truth,
    Variable, Verdict, WorldAssumption, Xor, free_variables, pretty,
)
from .harness import (
    DatasetRecord, ENGINES, FigureCategory, Metrics, RunRecord,
    TranslationRecord, apply_world_assumption, classify_outcome,
    compute_metrics, evaluate, load_dataset, load_translations, pearson,
    render_report, run_translation, solve_translation,
)
from .normalize import clausify_all
from .resolution import (
    LimitReached, ProofStep, Proved, Saturated, entail_resolution,
    render_trace, replay_trace, resolution_runs, saturate, subsumes, unify,
)
from .sat import dpll, entail_sat, ground, to_dimacs
from .testkit import (
    DiffReport, GenConfig, GeneratedProblem, differential_check,
    enumerate_models, generate_problem, generate_suite,
)

__version__ = "0.1.0"
