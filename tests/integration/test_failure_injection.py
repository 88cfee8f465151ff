"""Failure injection: resource exhaustion and protocol abuse.

The card must degrade into clean ISO status words -- never a Python
exception escaping the card boundary, never a partial state that a
following session could observe.
"""

import pytest

from repro.community import Community
from repro.core.rules import AccessRule, RuleSet
from repro.smartcard.apdu import CommandAPDU, Instruction, StatusWord
from repro.smartcard.card import SmartCard
from repro.terminal.proxy import ProxyError
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events

RULES = RuleSet([AccessRule.parse("+", "u", "/r", rule_id="FI")])
DOC = "<r>" + "<x>" * 30 + "deep" + "</x>" * 30 + "</r>"


def _reader(ram_quota):
    """Publish DOC to a reader "u" whose strict card has ``ram_quota``."""
    community = Community()
    owner = community.enroll("owner")
    reader = community.enroll("u", ram_quota=ram_quota, strict_memory=True)
    doc = owner.publish(DOC, RULES, to=[reader], chunk_size=48)
    return reader, doc


def _pull(reader, doc):
    with reader.open(doc) as session:
        stream = session.query()
        return stream.text(), stream.metrics


def test_tiny_ram_card_fails_with_memory_status():
    """A 128-byte card cannot evaluate a depth-31 document."""
    reader, doc = _reader(ram_quota=128)
    with pytest.raises(ProxyError) as info:
        _pull(reader, doc)
    assert info.value.status == StatusWord.MEMORY_FAILURE


def test_adequate_ram_card_succeeds_on_same_document():
    reader, doc = _reader(ram_quota=2048)
    view, metrics = _pull(reader, doc)
    assert "deep" in view
    assert metrics.ram_high_water <= 2048


def test_memory_failure_does_not_poison_next_session():
    """After an overflow, a new session on the same card still works."""
    reader, doc = _reader(ram_quota=100_000)
    first, __ = _pull(reader, doc)
    assert "deep" in first
    second, __ = _pull(reader, doc)
    assert second == first


def test_repeated_pulls_do_not_leak_secure_ram():
    """Every session returns its modeled RAM: a default strict 1 KB
    card keeps serving the same member pull after pull."""
    community = Community()
    owner = community.enroll("owner")
    doctor = community.enroll("doctor")
    doc = owner.publish(
        list(tree_to_events(hospital(5))), hospital_rules(), to=[doctor]
    )
    memory = doctor.terminal.card.soe.memory
    for __ in range(20):
        before = memory.usage()
        with doctor.open(doc) as session:
            assert "<diagnosis>" in session.query("//diagnosis").text()
        assert memory.usage() == before


@pytest.mark.parametrize("instruction", [
    Instruction.BEGIN_SESSION,
    Instruction.PUT_HEADER,
    Instruction.PUT_RULES,
    Instruction.PUT_CHUNK,
    Instruction.GET_OUTPUT,
    Instruction.END_DOCUMENT,
    Instruction.BEGIN_REFETCH,
    Instruction.PUT_REFETCH_CHUNK,
    Instruction.ADMIN_PROVISION_KEY,
    Instruction.SC_ADMIN,
    Instruction.GET_STATUS,
])
def test_garbage_payloads_yield_status_words(instruction):
    """Fuzzing every instruction with junk must never raise."""
    card = SmartCard()
    card.process(CommandAPDU(Instruction.SELECT, data=b"aid"))
    for junk in (b"", b"\x00", b"\xff" * 40, b"A" * 255):
        response = card.process(CommandAPDU(instruction, data=junk))
        assert isinstance(response.sw, int)


def test_out_of_order_protocol_yields_clean_errors():
    card = SmartCard()
    card.process(CommandAPDU(Instruction.SELECT, data=b"aid"))
    # Chunk before header, end before begin, refetch before anything.
    assert card.process(
        CommandAPDU(Instruction.PUT_CHUNK, data=b"x" * 50)
    ).sw == StatusWord.CONDITIONS_NOT_SATISFIED
    assert not card.process(CommandAPDU(Instruction.END_DOCUMENT)).ok
    assert not card.process(
        CommandAPDU(Instruction.BEGIN_REFETCH)
    ).ok
