"""The benchmark tracer's wrap points still name trilogic's call path.

perfbench/tracer.py rebinds module attributes by name, so a renamed or
bypassed function would silently drop a per-layer metric; these checks
catch that in the fast suite.
"""

import sys
from pathlib import Path

import pytest

from trilogic import harness
from trilogic.harness import ENGINE_DIALECTS

from conftest import read_fixture

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TEXTS = {"prover9": "anne.p9", "z3": "anne.z3", "pyke": "anne.pyke"}
SEARCH_COUNTER = {
    "resolution": "resolution.saturate_calls",
    "sat": "sat.dpll_calls",
    "chaining": "chaining.fixpoint_calls",
}


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    return tracer


def test_wrap_points_resolve(tracer):
    for module, attr, _ in (*tracer.WRAP_POINTS, *tracer.COUNT_POINTS):
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"


@pytest.mark.parametrize("engine,dialect", [
    (e, d) for e, dialects in ENGINE_DIALECTS.items() for d in dialects])
def test_run_translation_is_traced(tracer, engine, dialect):
    text = read_fixture(TEXTS[dialect])
    t = tracer.Tracer()
    t.install()
    try:
        harness.run_translation(text, dialect, engine)
    finally:
        t.uninstall()
    assert t.counts["dialects.parse_calls"] == 1
    assert t.counts[SEARCH_COUNTER[engine]] >= 1
