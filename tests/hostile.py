"""Seeded hostile-input mutator over generator texts.

Shared by the dialect corpus test and the run-contract fuzz test. Each
mutant takes one to three edits of a generated translation: truncation,
junk tokens, a run of 150-260 open brackets, a swapped connective, or a
deleted span. The same seed always gives the same texts.
"""

import random
from functools import lru_cache

from trilogic.testkit import FULL_FOL, GenConfig, generate_suite

# tokens of all three dialects, plus characters every dialect rejects
JUNK = (
    "(", ")", "[", "]", ",", ":", "&", "|", "^", "-", "->", "<->", "==",
    "=", "&&", ">>>", ">", "$", "$x", "_x", "@", "#", ":::", "!", "1",
    "¬", "∧", "∨", "⊕", "→", "↔", "∀", "∃", "²", "½", "é", "\t", "\n",
    "True", "False", "bool", "all", "exists", "x", "A", "Not(", "And(",
    "ForAll([x], ", "Exists([", "return", "return ", "def solution():",
    "Predicates:", "Premises:", "Conclusion:", "Facts:", "Rules:", "Query:",
)
CONNECTIVES = (
    "->", "<->", "&", "|", "^", "-", "&&", ">>>", "==", "And", "Or", "Not",
    "Xor", "Implies", "all", "exists", "ForAll", "Exists", "∧", "∨", "¬",
    "→", "↔", "⊕", "∀", "∃",
)


def _truncate(text, rng):
    return text[:rng.randrange(len(text) + 1)]


def _junk(text, rng):
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(JUNK) + text[at:]
    return text


def _brackets(text, rng):
    at = rng.randrange(len(text) + 1)
    return text[:at] + rng.choice("([") * rng.randint(150, 260) + text[at:]


def _swap(text, rng):
    present = [c for c in CONNECTIVES if c in text]
    if not present:
        return _junk(text, rng)
    old = rng.choice(present)
    starts = [i for i in range(len(text)) if text.startswith(old, i)]
    at = rng.choice(starts)
    return text[:at] + rng.choice(CONNECTIVES) + text[at + len(old):]


def _delete(text, rng):
    at = rng.randrange(len(text) + 1)
    return text[:at] + text[at + rng.randint(1, 20):]


EDITS = (_truncate, _junk, _brackets, _swap, _delete)


def mutate(text, rng):
    for _ in range(rng.randint(1, 3)):
        text = rng.choice(EDITS)(text, rng)
    return text


@lru_cache(maxsize=None)
def base_texts(seed, n):
    """(dialect, text) pairs: n Horn problems in all three dialects and
    n // 2 full-FOL problems in prover9 and z3."""
    problems = generate_suite(GenConfig(seed=seed), n) + generate_suite(
        GenConfig(seed=seed, fragment=FULL_FOL), n // 2)
    return tuple(pair for gp in problems for pair in sorted(gp.texts.items()))


def mutants(seed, n, per_text):
    """per_text seeded mutants of each of base_texts(seed, n)."""
    rng = random.Random(seed)
    return [(d, mutate(t, rng))
            for d, t in base_texts(seed, n) for _ in range(per_text)]
