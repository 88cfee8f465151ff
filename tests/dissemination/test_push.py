"""Integration tests for the push (selective dissemination) scenario."""

import dataclasses

from repro.community import Community
from repro.core import reference_view
from repro.core.rules import AccessRule, RuleSet
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import video_catalog
from repro.workloads.rulegen import parental_rules, subscription_rules
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string


def _broadcast_setup(rules_by_subscriber, doc_root, transfer=None):
    """Publish once under every subscriber's rules; one card each.

    Each policy names only its own subscriber, so their union is the
    document's policy; rule ids are prefixed to keep them unique.
    """
    community = Community()
    owner = community.enroll("owner")
    members = [
        community.enroll(name, strict_memory=False)
        for name in rules_by_subscriber
    ]
    rules = RuleSet(
        dataclasses.replace(rule, rule_id=f"{name}:{rule.rule_id}")
        for name, policy in rules_by_subscriber.items()
        for rule in policy
    )
    doc = owner.publish(
        list(tree_to_events(doc_root)), rules, to=members, doc_id="stream"
    )
    channel = community.channel(doc)
    subscribers = [
        channel.subscribe(member, transfer=transfer) for member in members
    ]
    return channel, subscribers


def test_subscribers_get_personal_views():
    doc = video_catalog(20)
    policies = {
        "newsie": subscription_rules("newsie", ["news"]),
        "sporty": subscription_rules("sporty", ["news", "sports"]),
        "kid": parental_rules("kid", "PG"),
    }
    channel, subscribers = _broadcast_setup(policies, doc)
    channel.broadcast()
    for handle in subscribers:
        assert handle.ok, handle.subscriber.state.failed
        name = handle.member.name
        expected = write_string(reference_view(doc, policies[name], name))
        assert handle.view == expected


def test_broadcast_cost_is_shared_but_filtering_is_personal():
    doc = video_catalog(20)
    policies = {
        "narrow": subscription_rules("narrow", ["news"]),
        "wide": subscription_rules(
            "wide", ["news", "sports", "cartoons", "documentary", "movies"]
        ),
    }
    channel, subscribers = _broadcast_setup(policies, doc)
    channel.broadcast()
    narrow, wide = subscribers
    # Narrow subscription -> most chunks dropped before the card link.
    assert narrow.metrics.chunks_skipped > 0
    assert narrow.metrics.chunks_sent < wide.metrics.chunks_sent
    assert narrow.metrics.bytes_decrypted < wide.metrics.bytes_decrypted
    # The broadcast itself was sent exactly once.
    chunks = len(channel.document.container.chunks)
    assert channel.broadcast_channel.frames_broadcast == chunks + 2


def test_tampered_frame_detected_by_all_subscribers():
    doc = video_catalog(5)
    policies = {"kid": parental_rules("kid", "PG")}
    channel, subscribers = _broadcast_setup(policies, doc)

    def corrupt(kind, index, payload):
        if kind == "chunk" and index == 1:
            flipped = bytearray(payload)
            flipped[0] ^= 1
            return bytes(flipped)
        return payload

    channel.set_tamper(corrupt)
    channel.broadcast()
    (handle,) = subscribers
    assert not handle.ok
    assert "0x6982" in handle.subscriber.state.failed  # security status word


def test_subscriber_without_rules_receives_nothing():
    doc = video_catalog(5)
    policies = {"stranger": RuleSet([
        AccessRule.parse("+", "someone-else", "/stream", rule_id="Z0")
    ])}
    channel, subscribers = _broadcast_setup(policies, doc)
    channel.broadcast()
    (handle,) = subscribers
    assert handle.ok
    assert handle.view == ""


def test_batched_subscribers_see_identical_views():
    """PUT_CHUNK_BATCH on the broadcast link changes costs, not views."""
    doc = video_catalog(20)
    policies = {
        "newsie": subscription_rules("newsie", ["news"]),
        "sporty": subscription_rules("sporty", ["news", "sports"]),
        "kid": parental_rules("kid", "PG"),
    }
    channel, plain = _broadcast_setup(policies, doc)
    channel.broadcast()
    for batch in (2, 4, 8):
        channel, batched = _broadcast_setup(
            policies, doc, transfer=TransferPolicy.windowed(batch)
        )
        channel.broadcast()
        for seq, win in zip(plain, batched):
            assert win.ok, win.subscriber.state.failed
            assert win.view == seq.view, (win.member.name, batch)
            assert win.metrics.bytes_decrypted == seq.metrics.bytes_decrypted
            # Speculative frames only move between the skipped (dropped
            # at the terminal) and wasted (dropped on-card) buckets.
            assert (
                win.metrics.chunks_skipped + win.metrics.chunks_wasted
                == seq.metrics.chunks_skipped
            ), (win.member.name, batch)
        # Narrow (skip-heavy) subscribers may individually pay for the
        # speculation; across the fleet batching must win round trips.
        assert sum(w.metrics.apdu_count for w in batched) < sum(
            s.metrics.apdu_count for s in plain
        )
