"""Tests for the broadcast carousel and late joining."""

from repro.core import reference_view
from repro.crypto.container import seal_blob, seal_document
from repro.crypto.keys import DocumentKeys
from repro.dissemination.carousel import LateJoiningSubscriber
from repro.dissemination.channel import BroadcastChannel
from repro.dissemination.subscriber import Subscriber
from repro.skipindex.encoder import IndexMode, encode_document
from repro.smartcard.card import SmartCard
from repro.smartcard.soe import SecureOperatingEnvironment
from repro.workloads.docgen import video_catalog
from repro.workloads.rulegen import subscription_rules
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string

SECRET = b"carousel-secret!"


def _sealed_stream():
    keys = DocumentKeys(SECRET)
    doc = video_catalog(12)
    plaintext = encode_document(list(tree_to_events(doc)), IndexMode.RECURSIVE)
    container = seal_document(plaintext, "tv", 1, keys, chunk_size=96)
    rules = subscription_rules("sub", ["news", "sports"])
    records = [
        seal_blob(
            f"{r.sign}|{r.subject}|{r.object}".encode(), f"tv#rule:{i}", 1, keys
        )
        for i, r in enumerate(rules)
    ]
    expected = write_string(reference_view(doc, rules, "sub"))
    return container, records, expected


def _run_cycles(channel, container, cycles):
    for __ in range(cycles):
        channel.broadcast_document(container)


def test_punctual_subscriber_completes_on_first_cycle():
    container, records, expected = _sealed_stream()
    channel = BroadcastChannel()
    soe = SecureOperatingEnvironment(strict_memory=False)
    soe.provision_key("tv", SECRET)
    subscriber = Subscriber("sub", SmartCard(soe), 1, records, clock=channel.clock)
    channel.subscribe(subscriber.on_frame)
    _run_cycles(channel, container, 2)
    assert channel.frames_broadcast == 2 * (len(container.chunks) + 2)
    assert subscriber.ok
    assert subscriber.view == expected  # second cycle did not duplicate


def test_late_joiner_recovers_on_next_cycle():
    container, records, expected = _sealed_stream()
    channel = BroadcastChannel()

    # First cycle starts with nobody listening; the subscriber tunes in
    # "mid-air" -- simulate by broadcasting one full cycle, then
    # subscribing a late joiner, then running the next cycle.
    _run_cycles(channel, container, 1)

    soe = SecureOperatingEnvironment(strict_memory=False)
    soe.provision_key("tv", SECRET)
    late = LateJoiningSubscriber(
        Subscriber("sub", SmartCard(soe), 1, records, clock=channel.clock)
    )
    channel.subscribe(late.on_frame)
    _run_cycles(channel, container, 1)
    assert late.ok
    assert late.view == expected


def test_mid_cycle_joiner_skips_partial_frames():
    container, records, expected = _sealed_stream()
    channel = BroadcastChannel()

    soe = SecureOperatingEnvironment(strict_memory=False)
    soe.provision_key("tv", SECRET)
    late = LateJoiningSubscriber(
        Subscriber("sub", SmartCard(soe), 1, records, clock=channel.clock)
    )

    # Hand-feed a partial tail of a cycle (no header), then full cycles.
    for index in (7, 8):
        late.on_frame("chunk", index, container.chunks[index])
    late.on_frame("end", 0, b"")
    assert late.frames_missed == 3
    assert not late.joined

    channel.subscribe(late.on_frame)
    _run_cycles(channel, container, 1)
    assert late.joined and late.ok
    assert late.view == expected


def test_carousel_cycles_are_byte_deterministic():
    """Every cycle of one container version emits the identical frame
    sequence -- the property feed catch-up snapshots rely on: replaying
    a recorded cycle is indistinguishable from listening live."""
    container, __, __ = _sealed_stream()
    channel = BroadcastChannel()
    frames = []
    channel.subscribe(lambda kind, index, blob: frames.append((kind, index, blob)))
    _run_cycles(channel, container, 2)
    assert len(frames) % 2 == 0
    half = len(frames) // 2
    assert frames[:half] == frames[half:]
    assert frames[0][0] == "header" and frames[half - 1][0] == "end"


def test_carousel_same_version_not_replay():
    """Repeated cycles of one version pass the card's version register."""
    container, records, expected = _sealed_stream()
    channel = BroadcastChannel()
    soe = SecureOperatingEnvironment(strict_memory=False)
    soe.provision_key("tv", SECRET)
    subscriber = Subscriber("sub", SmartCard(soe), 1, records, clock=channel.clock)
    late = LateJoiningSubscriber(subscriber)
    channel.subscribe(late.on_frame)
    _run_cycles(channel, container, 3)
    assert late.ok
    assert subscriber.card.soe.version_register("tv") == 1
