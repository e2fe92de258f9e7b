"""The benchmark tracer's wrap points still name trilogic's call path.

perfbench/tracer.py rebinds module attributes by name, so a renamed or
bypassed function would silently drop a per-layer metric; these checks
catch that in the fast suite.
"""

import itertools
import sys
from pathlib import Path

import pytest

from trilogic import harness
from trilogic.dialects import DIALECTS

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


@pytest.mark.parametrize("engine,dialect",
                         itertools.product(harness.ENGINES, DIALECTS))
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


@pytest.mark.parametrize("engine,dialect",
                         itertools.product(harness.ENGINES, DIALECTS))
def test_clausification_is_traced(tracer, engine, dialect):
    # dual_run clausifies the premises and both goals through
    # resolution.clausify_all, which the tracer rebinds; a driver that
    # called normalize.clausify_all directly would count 0 here
    text = read_fixture(TEXTS[dialect])
    t = tracer.Tracer()
    t.install()
    try:
        harness.run_translation(text, dialect, engine)
    finally:
        t.uninstall()
    want = 0 if engine == "chaining" else 3
    assert t.counts["normalize.clausify_calls"] == want


def test_sat_grounds_the_premises_once_and_searches_per_run(tracer):
    # anne.z3's conclusion is ground, so the premises are grounded once and
    # each run grounds its goal on top (3 ground calls), and each run
    # searches on its own (2 dpll calls); one search shared by both runs
    # would count 1
    t = tracer.Tracer()
    t.install()
    try:
        harness.run_translation(read_fixture("anne.z3"), "z3", "sat")
    finally:
        t.uninstall()
    assert t.counts["sat.ground_calls"] == 3
    assert t.counts["sat.dpll_calls"] == 2


def test_resolution_saturates_once_per_run(tracer):
    # the premise base is saturated inside the first run's saturate call,
    # so each run is still one traced call; a base saturated outside
    # saturate would count 3, or leave its time out of the layer
    t = tracer.Tracer()
    t.install()
    try:
        harness.run_translation(read_fixture("anne.p9"), "prover9",
                                "resolution")
    finally:
        t.uninstall()
    assert t.counts["resolution.saturate_calls"] == 2
