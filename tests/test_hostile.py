"""Hostile translations keep the run contract.

Every mutated generator text, through every engine and dialect pair,
lands in exactly one run category without raising, within its budget.
"""

import time

import pytest

from trilogic.fol import ResourceLimits
from trilogic.harness import (
    ENGINE_DIALECTS, FigureCategory, classify_outcome, run_translation,
)

from hostile import mutants

LIMITS = ResourceLimits(wall_ms=300)
PAIRS = [(e, d) for e, dialects in ENGINE_DIALECTS.items() for d in dialects]


@pytest.mark.parametrize("engine,dialect", PAIRS)
def test_mutated_translations_keep_the_run_contract(engine, dialect):
    texts = [t for d, t in mutants(29, 20, 25) if d == dialect]
    assert len(texts) >= 500
    for text in texts:
        start = time.perf_counter()
        outcome = run_translation(text, dialect, engine, LIMITS)
        elapsed = time.perf_counter() - start
        assert classify_outcome(outcome, True) in FigureCategory
        assert elapsed < 2 * LIMITS.wall_ms / 1000, (text, elapsed)
