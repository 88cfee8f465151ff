"""Unit tests for the streaming evaluator facade."""

import pytest

from repro.core.decisions import Pending, Resolved
from repro.core.evaluator import StreamingEvaluator
from repro.core.rules import AccessRule, RuleSet, Sign, Subject
from repro.core.runtime import FRAME_BYTES, TOKEN_BYTES
from repro.xpathlib.parser import parse_path


def _rules(*defs):
    return RuleSet([
        AccessRule.parse(sign, subject, path, rule_id=f"E{i}")
        for i, (sign, subject, path) in enumerate(defs)
    ])


def test_policy_evaluator_filters_by_subject():
    rules = _rules(("+", "alice", "//a"), ("-", "bob", "//a"))
    evaluator = StreamingEvaluator.for_policy(rules, "alice")
    node = evaluator.open("a")
    assert node.status() == Resolved(Sign.PERMIT)


def test_group_subjects_apply():
    rules = _rules(("+", "staff", "//a"))
    evaluator = StreamingEvaluator.for_policy(
        rules, Subject("alice", frozenset({"staff"}))
    )
    assert evaluator.open("a").status() == Resolved(Sign.PERMIT)


def test_default_sign_controls_root():
    rules = _rules(("+", "u", "//never"))
    closed = StreamingEvaluator.for_policy(rules, "u", default=Sign.DENY)
    assert closed.open("a").status() == Resolved(Sign.DENY)
    open_world = StreamingEvaluator.for_policy(rules, "u", default=Sign.PERMIT)
    assert open_world.open("a").status() == Resolved(Sign.PERMIT)


def test_query_selector_selects_subtrees():
    selector = StreamingEvaluator.for_query(parse_path("//b"))
    assert selector.open("a").status() == Resolved(Sign.DENY)
    assert selector.open("b").status() == Resolved(Sign.PERMIT)
    # Children of a selected node inherit selection.
    assert selector.open("c").status() == Resolved(Sign.PERMIT)


def test_pending_status_surfaces_conditions():
    rules = _rules(("+", "u", "//a[b]"))
    evaluator = StreamingEvaluator.for_policy(rules, "u")
    status = evaluator.open("a").status()
    assert isinstance(status, Pending)
    assert len(status.unknowns) == 1


def test_close_pops_decision_stack():
    rules = _rules(("+", "u", "/a"))
    evaluator = StreamingEvaluator.for_policy(rules, "u")
    evaluator.open("a")
    evaluator.open("x")
    inner = evaluator.current_decision()
    evaluator.close()
    assert evaluator.current_decision() is not inner


def test_stats_accumulate():
    rules = _rules(("+", "u", "//a"))
    evaluator = StreamingEvaluator.for_policy(rules, "u")
    evaluator.open("a")
    evaluator.value("text")
    evaluator.close()
    assert evaluator.stats.events == 3
    assert evaluator.stats.token_checks >= 1


class _RecordingMemory:
    def __init__(self):
        self.charges = []

    def allocate(self, tag, nbytes):
        self.charges.append((tag, nbytes))

    def release(self, tag, nbytes):
        self.charges.append((tag, -nbytes))


@pytest.mark.parametrize("second", ["//b", "//b[c]"])
def test_engine_is_chosen_once_at_construction(second):
    """One impure path puts the whole set on the token engine; either
    way the engine frame is charged first, then one token per path."""
    memory = _RecordingMemory()
    evaluator = StreamingEvaluator.for_policy(
        _rules(("+", "u", "//a"), ("-", "u", second)), "u", memory=memory
    )
    assert memory.charges == [
        ("engine", FRAME_BYTES),
        ("engine", TOKEN_BYTES),
        ("engine", TOKEN_BYTES),
    ]
    evaluator.open("a")
    # Only the product machine counts pumped events.
    assert (evaluator.stats.events_pumped > 0) == (second == "//b")

