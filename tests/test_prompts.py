"""The prompt templates under prompts/: each formats, and the worked
example in each is a translation that every engine answers."""

import re
from pathlib import Path

import pytest

from trilogic.dialects import DIALECTS
from trilogic.fol import Answered, Truth, Verdict
from trilogic.harness import ENGINES, run_translation

PROMPTS = Path(__file__).resolve().parent.parent / "prompts"


def template(dialect):
    return (PROMPTS / f"{dialect}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("dialect", DIALECTS)
def test_template_formats_with_id_and_text(dialect):
    prompt = template(dialect).format(id="r1", text="Anne is quiet.")
    assert "Problem: Anne is quiet.\n" in prompt
    assert re.search(r"\{[^{}]*\}", prompt) is None


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dialect", DIALECTS)
def test_worked_example_answers_true(dialect, engine):
    prompt = template(dialect)
    start = prompt.index("Answer:\n") + len("Answer:\n")
    example = prompt[start:prompt.index("Now translate")]
    assert run_translation(example, dialect, engine) \
        == Answered(Verdict(Truth.TRUE))
