"""The dual-run entailment driver, through a stub engine.

dual_run owns the policy that resolution and sat share: clausify once,
split the budget, map errors, and turn two run answers into an Outcome.
A stub prepare lets each answer and each failure be chosen directly.
"""

import time

import pytest

from trilogic import resolution
from trilogic.dialects import parse_prover9
from trilogic.fol import (
    Answered, DeadlineExceeded, ExecError, ExecFailed, Inconsistent,
    ResourceLimits, Truth, Verdict,
)
from trilogic.resolution import LimitReached, Proved, Saturated, dual_run

PROBLEM = parse_prover9("Premises:\np(A)\nConclusion:\nq(A)\n")

REFUTED = Proved((), ())
OPEN = Saturated()
UNDECIDED = LimitReached("stub limit")

TRUE = Answered(Verdict(Truth.TRUE))
FALSE = Answered(Verdict(Truth.FALSE))
UNKNOWN = Answered(Verdict(Truth.UNKNOWN))
LIMITED = Answered(Verdict(Truth.UNKNOWN, resource_limited=True))


class Stub:
    """A prepare whose refute hands out the given answers in turn; an
    exception among them is raised instead. Records every call."""

    def __init__(self, *answers):
        self.answers = list(answers)
        self.prepared = []
        self.calls = []

    def __call__(self, p, premises, limits, deadline):
        self.prepared.append((p, premises, limits, deadline))

        def refute(goal, run_deadline):
            self.calls.append((goal, run_deadline))
            answer = self.answers.pop(0)
            if isinstance(answer, Exception):
                raise answer
            return answer

        return refute


# (P and not C run, P and C run) -> outcome
TABLE = [
    (REFUTED, REFUTED, Inconsistent()),
    (REFUTED, OPEN, TRUE),
    (REFUTED, UNDECIDED, TRUE),
    (OPEN, REFUTED, FALSE),
    (UNDECIDED, REFUTED, FALSE),
    (OPEN, OPEN, UNKNOWN),
    (OPEN, UNDECIDED, LIMITED),
    (UNDECIDED, OPEN, LIMITED),
    (UNDECIDED, UNDECIDED, LIMITED),
]


@pytest.mark.parametrize("neg,pos,want", TABLE)
def test_verdict_table(neg, pos, want):
    outcome, neg_run, pos_run = dual_run(PROBLEM, Stub(neg, pos))
    assert outcome == want
    assert (neg_run, pos_run) == (neg, pos)
    limited = isinstance(outcome, Answered) and outcome.verdict.resource_limited
    assert limited == (want == LIMITED)


def test_runs_get_the_goals_and_split_budget():
    stub = Stub(OPEN, OPEN)
    limits = ResourceLimits(wall_ms=10_000)
    start = time.monotonic()
    dual_run(PROBLEM, stub, limits)
    end = time.monotonic()
    [(p, premises, got_limits, deadline)] = stub.prepared
    assert p is PROBLEM and got_limits is limits
    assert [str(c) for c in premises] == ["p(A)"]
    (neg_goal, first), (pos_goal, second) = stub.calls
    assert [str(c) for c in neg_goal] == ["-q(A)"]
    assert [str(c) for c in pos_goal] == ["q(A)"]
    # the first run stops at half the budget, the second and the shared
    # set-up at all of it
    assert start + 5.0 <= first <= end + 5.0
    assert start + 10.0 <= second <= end + 10.0
    assert deadline == second


def test_exec_error_in_second_run_is_exec_failed():
    stub = Stub(REFUTED, ExecError("grounding budget exceeded"))
    assert dual_run(PROBLEM, stub) == (
        ExecFailed("grounding budget exceeded"), None, None)


def test_exec_error_in_first_run_skips_the_second():
    stub = Stub(ExecError("boom"), REFUTED)
    assert dual_run(PROBLEM, stub) == (ExecFailed("boom"), None, None)
    assert len(stub.calls) == 1


def test_exec_error_in_prepare_is_exec_failed():
    def prepare(p, premises, limits, deadline):
        raise ExecError("unsupported fragment")

    assert dual_run(PROBLEM, prepare) == (
        ExecFailed("unsupported fragment"), None, None)


def test_deadline_in_clausification_is_limited_unknown(monkeypatch):
    def clausify_all(*args, **kwargs):
        raise DeadlineExceeded("wall clock budget")

    monkeypatch.setattr(resolution, "clausify_all", clausify_all)
    stub = Stub(REFUTED, REFUTED)
    assert dual_run(PROBLEM, stub) == (LIMITED, None, None)
    assert stub.prepared == [] and stub.calls == []


def test_exec_error_in_clausification_is_exec_failed(monkeypatch):
    def clausify_all(*args, **kwargs):
        raise ExecError("clause explosion")

    monkeypatch.setattr(resolution, "clausify_all", clausify_all)
    assert dual_run(PROBLEM, Stub()) == (
        ExecFailed("clause explosion"), None, None)


@pytest.mark.parametrize("other,want", [
    (REFUTED, FALSE), (OPEN, LIMITED), (UNDECIDED, LIMITED)])
def test_deadline_in_first_run_undecides_it_only(other, want):
    stub = Stub(DeadlineExceeded("wall clock budget"), other)
    outcome, neg_run, pos_run = dual_run(PROBLEM, stub)
    assert outcome == want
    assert neg_run == LimitReached("wall clock budget")
    assert pos_run == other
    assert len(stub.calls) == 2


@pytest.mark.parametrize("other,want", [
    (REFUTED, TRUE), (OPEN, LIMITED), (UNDECIDED, LIMITED)])
def test_deadline_in_second_run_undecides_it_only(other, want):
    stub = Stub(other, DeadlineExceeded("wall clock budget"))
    outcome, neg_run, pos_run = dual_run(PROBLEM, stub)
    assert outcome == want
    assert neg_run == other
    assert pos_run == LimitReached("wall clock budget")
