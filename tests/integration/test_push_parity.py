"""Differential guard for push sessions: every observable, bit for bit.

``tests/goldens/push_parity.json`` holds what a fixed set of broadcast
sessions observed, recorded on the revision before the push
``Subscriber`` was rebuilt on :class:`~repro.terminal.proxy.CardProxy`.
The cases cover the branches the subscriber takes: a sequential
channel, ``PUT_CHUNK_BATCH`` batching, ``ViewMode.PRUNE``, a late
joiner that tunes in mid-cycle, a tampered frame, a strict 1 KB card
that runs out of secure RAM, and a feed tier carrying three documents
for two carousel cycles.

Pinned per case: every subscriber's view, every component of the
shared :class:`~repro.smartcard.resources.SimClock` (``broadcast`` and
each ``link:<name>`` included) and each card's ``soe.cycles_used`` as
``float.hex``, and the integer :class:`SessionMetrics` counters.  Left
out on purpose: the per-session ``card_cycles`` and ``clock`` and the
engine dispatch counters, whose push values were wrong when the golden
was recorded (``tests/dissemination/test_push.py`` checks them).

Regenerate (only when the modeled semantics change on purpose) with::

    PYTHONPATH=src python tests/integration/test_push_parity.py > tests/goldens/push_parity.json
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import pytest

from repro.community import Community, TierSpec
from repro.core.delivery import ViewMode
from repro.core.rules import RuleSet
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import nested, video_catalog
from repro.workloads.rulegen import parental_rules, subscription_rules
from repro.xmlstream.tree import tree_to_events

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "goldens" / "push_parity.json"

#: Metrics that are not pinned: see the module docstring.
_UNPINNED = {"events_pumped", "tokens_touched", "product_states_interned"}


def _hex_clock(clock) -> dict[str, str]:
    return {name: float.hex(value) for name, value in sorted(clock.breakdown().items())}


def _counters(metrics) -> dict[str, int]:
    return {
        key: value
        for key, value in sorted(vars(metrics).items())
        if isinstance(value, int)
        and not isinstance(value, bool)
        and key not in _UNPINNED
    }


def _handle_observed(handle) -> dict:
    state = handle.subscriber.state
    return {
        "view": handle.view,
        "ok": handle.ok,
        "failed": state.failed is not None,
        "failed_sw": state.failed_sw,
        "frames_missed": handle.frames_missed,
        "cycles_used": float.hex(handle.member.terminal.card.soe.cycles_used),
        "counters": _counters(handle.metrics),
    }


def _video_channel(subscribers, *, n_videos=16, chunk_size=64):
    """One channel, one video catalog; each subscriber its own policy."""
    community = Community()
    owner = community.enroll("owner")
    rules = RuleSet(
        dataclasses.replace(rule, rule_id=f"{name}:{rule.rule_id}")
        for name, policy in subscribers.items()
        for rule in policy
    )
    members = [community.enroll(name, strict_memory=False) for name in subscribers]
    document = owner.publish(
        list(tree_to_events(video_catalog(n_videos, payload=40))),
        rules,
        to=members,
        doc_id="tv",
        chunk_size=chunk_size,
    )
    return community, community.channel(document), members


_POLICIES = {
    "newsie": subscription_rules("newsie", ["news"]),
    "kid": parental_rules("kid", "PG"),
}


def _channel_case(transfer=None, view_mode=ViewMode.SKELETON, cycles=1):
    community, channel, members = _video_channel(_POLICIES)
    handles = [
        channel.subscribe(member, transfer=transfer, view_mode=view_mode)
        for member in members
    ]
    channel.broadcast(cycles=cycles)
    return community, handles


def case_sequential():
    return _channel_case(cycles=2)


def case_batched():
    return _channel_case(transfer=TransferPolicy(window=4, apdu_batch=4))


def case_prune():
    return _channel_case(view_mode=ViewMode.PRUNE)


def case_late_joiner():
    """A member tunes in at chunk 3 of the first cycle."""
    community, channel, members = _video_channel(_POLICIES)
    punctual = channel.subscribe(members[0])
    late_handles = []

    def tune_in(kind, index, payload):
        if kind == "chunk" and index == 3 and not late_handles:
            late_handles.append(channel.subscribe(members[1], late=True))

    channel.broadcast_channel.subscribe(tune_in)
    channel.broadcast(cycles=2)
    return community, [punctual, *late_handles]


def case_tampered():
    community, channel, members = _video_channel({"kid": _POLICIES["kid"]})
    handles = [channel.subscribe(members[0])]

    def corrupt(kind, index, payload):
        if kind == "chunk" and index == 4:
            return bytes([payload[0] ^ 0x01]) + payload[1:]
        return payload

    channel.set_tamper(corrupt)
    channel.broadcast()
    return community, handles


def case_overflow():
    """A strict 1 KB card runs out of secure RAM mid-broadcast."""
    community = Community()
    owner = community.enroll("owner")
    member = community.enroll("deep", ram_quota=1024, strict_memory=True)
    rules = [("+", "deep", "//n0//n1"), ("+", "deep", "//n1//n2//n3"),
             ("-", "deep", "//n2//n0")]
    document = owner.publish(
        list(tree_to_events(nested(depth=10, fanout=2))),
        rules,
        [member],
        doc_id="deep-doc",
        chunk_size=32,
    )
    channel = community.channel(document)
    handles = [channel.subscribe(member)]
    channel.broadcast()
    return community, handles


def case_feed_tier():
    """One feed tier, two members, three documents, two cycles."""
    community = Community()
    owner = community.enroll("owner")
    for name in ("ana", "ben"):
        community.enroll(name, strict_memory=False)
    feed = community.feed(
        "news",
        owner=owner,
        tiers=[TierSpec("basic", allow=("/report",), drop=("secret",))],
    )
    for i in range(3):
        body = "".join(
            f"<item><title>t{i}.{k}</title><secret>s{k}</secret></item>"
            for k in range(4 + i)
        )
        feed.publish(f"<report>{body}</report>", doc_id=f"d{i}")
    handles = [feed.subscribe(name, "basic") for name in ("ana", "ben")]
    feed.broadcast(cycles=2)
    return community, handles


CASES = {
    "channel-sequential": case_sequential,
    "channel-batch4": case_batched,
    "channel-prune": case_prune,
    "channel-late-joiner": case_late_joiner,
    "channel-tampered": case_tampered,
    "channel-overflow-1k": case_overflow,
    "feed-tier-3docs-2cycles": case_feed_tier,
}


def _feed_handle_observed(handle) -> dict:
    return {
        "views": handle.views,
        "ok": handle.ok,
        "frames_missed": handle.frames_missed,
        "cycles_used": float.hex(handle.member.terminal.card.soe.cycles_used),
        "counters": {
            doc_id: _counters(handle.metrics_for(doc_id)) for doc_id in handle.views
        },
    }


def observe(name: str) -> dict:
    community, handles = CASES[name]()
    observed = {}
    for handle in handles:
        if hasattr(handle, "subscriber"):
            observed[handle.member.name] = _handle_observed(handle)
        else:
            observed[handle.member.name] = _feed_handle_observed(handle)
    return {"clock": _hex_clock(community.clock), "subscribers": observed}


def record() -> dict:
    return {name: observe(name) for name in CASES}


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_push_observables_match_golden(name, goldens):
    assert observe(name) == goldens[name]


def test_golden_exercises_the_branches_it_claims(goldens):
    assert goldens["channel-late-joiner"]["subscribers"]["kid"]["frames_missed"] > 0
    tampered = goldens["channel-tampered"]["subscribers"]["kid"]
    assert tampered["failed_sw"] == 0x6982 and tampered["view"]
    assert goldens["channel-overflow-1k"]["subscribers"]["deep"]["failed_sw"] == 0x6581
    batched = goldens["channel-batch4"]["subscribers"]
    assert any(obs["counters"]["chunks_wasted"] > 0 for obs in batched.values())
    for observed in goldens.values():
        assert any(name.startswith("link:") for name in observed["clock"])


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
