"""Integration tests: proxy + terminal against card and DSP."""

import pytest

from repro.community import Community
from repro.core import AccessRule, RuleSet, reference_view
from repro.core.delivery import ViewMode
from repro.errors import KeyNotGranted
from repro.smartcard.applet import PendingStrategy
from repro.terminal.proxy import ProxyError
from repro.xmlstream.tree import parse_tree
from repro.xmlstream.writer import write_string

DOC = (
    "<notes><note><to>alice</to><body>hello</body></note>"
    "<note><to>bob</to><body>secret plan</body></note></notes>"
)
RULES = RuleSet([
    AccessRule.parse("+", "alice", '//note[to = "alice"]', rule_id="S0"),
    AccessRule.parse("+", "bob", '//note[to = "bob"]', rule_id="S1"),
])


def _stack():
    community = Community()
    owner = community.enroll("owner")
    readers = [community.enroll("alice"), community.enroll("bob")]
    doc = owner.publish(DOC, RULES, to=readers, doc_id="notes")
    return community, doc


def _pull(member, doc, xpath=None, **options):
    with member.open(doc) as session:
        stream = session.query(xpath, **options)
        return stream.text(), stream.metrics


def test_each_user_sees_own_view():
    community, doc = _stack()
    for user in ("alice", "bob"):
        view, metrics = _pull(community.member(user), doc)
        expected = write_string(reference_view(parse_tree(DOC), RULES, user))
        assert view == expected
        assert metrics.apdu_count > 0
        assert metrics.clock.total() > 0


def test_query_restriction_applies():
    community, doc = _stack()
    view, __ = _pull(community.member("alice"), doc, "//body")
    expected = write_string(
        reference_view(parse_tree(DOC), RULES, "alice", query="//body")
    )
    assert view == expected


def test_unauthorized_user_has_no_wrapped_key():
    community, doc = _stack()
    eve = community.enroll("eve")
    with pytest.raises(KeyNotGranted):
        eve.open(doc)


def test_unlock_is_idempotent():
    community, doc = _stack()
    alice = community.member("alice")
    alice.terminal.unlock_document("notes", "owner")
    alice.terminal.unlock_document("notes", "owner")
    view, __ = _pull(alice, doc)
    assert "alice" in view


def test_policy_update_changes_view_without_reencryption():
    community, doc = _stack()
    alice = community.member("alice")
    before, __ = _pull(alice, doc)
    assert "hello" in before
    new_rules = RuleSet([
        AccessRule.parse("+", "alice", '//note[to = "alice"]', rule_id="S0"),
        AccessRule.parse("-", "alice", "//body", rule_id="S2"),
    ])
    receipt = doc.update_rules(new_rules)
    assert receipt.document_bytes_encrypted == 0
    after, __ = _pull(alice, doc)
    assert "hello" not in after
    expected = write_string(reference_view(parse_tree(DOC), new_rules, "alice"))
    assert after == expected


def test_refetch_strategy_returns_fragments():
    # Refetch applies when the pending predicate resolves *outside* the
    # candidate subtree: here the body streams before the to field, so
    # at <body> the [to=...] condition is still open, the body subtree
    # is irrelevant to it, and the card skips it for later refetch.
    document = (
        "<notes><note><body>hello alice</body><to>alice</to></note>"
        "<note><body>bob stuff</body><to>bob</to></note></notes>"
    )
    rules = RuleSet([
        AccessRule.parse("+", "alice", '//note[to = "alice"]/body', rule_id="R0"),
    ])
    community = Community()
    owner = community.enroll("owner")
    alice = community.enroll("alice")
    doc = owner.publish(document, rules, to=[alice], chunk_size=32)
    combined, metrics = _pull(alice, doc, strategy=PendingStrategy.REFETCH)
    assert metrics.refetch_count >= 1
    assert "hello alice" in combined
    assert "bob stuff" not in combined
    # The buffering strategy must agree on delivered content.
    buffered, buffered_metrics = _pull(
        alice, doc, strategy=PendingStrategy.BUFFER
    )
    assert "hello alice" in buffered
    assert buffered_metrics.max_pending_bytes > metrics.max_pending_bytes


def test_prune_view_mode_through_stack():
    community, doc = _stack()
    view, __ = _pull(community.member("alice"), doc, view_mode=ViewMode.PRUNE)
    expected = write_string(
        reference_view(parse_tree(DOC), RULES, "alice", mode=ViewMode.PRUNE)
    )
    assert view == expected


def test_proxy_error_carries_status():
    community, doc = _stack()
    alice = community.member("alice")
    with alice.open(doc) as session:
        alice.terminal.proxy.provision_key("notes", b"wrong-key-16byte")
        with pytest.raises(ProxyError) as info:
            session.query().text()
    assert info.value.status is not None
