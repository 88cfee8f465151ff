"""The error taxonomy and the satellite's typed-raise sites."""

import pytest

from repro.community import Community
from repro.crypto.container import IntegrityError
from repro.crypto.keys import KeyRing
from repro.crypto.modes import PaddingError
from repro.crypto.pki import SimulatedPKI
from repro.errors import (
    AccessDenied,
    DocumentLocked,
    KeyNotGranted,
    PolicyError,
    ReproError,
    ResourceExhausted,
    TamperDetected,
    TransportError,
    UnknownDocument,
)
from repro.smartcard.apdu import StatusWord
from repro.smartcard.memory import CardMemoryError
from repro.smartcard.secure_channel import SecureChannelError
from repro.terminal.proxy import CardOutOfResources, CardTampered, ProxyError


def test_hierarchy_shape():
    for leaf in (
        AccessDenied,
        DocumentLocked,
        KeyNotGranted,
        TamperDetected,
        PolicyError,
        TransportError,
        ResourceExhausted,
    ):
        assert issubclass(leaf, ReproError)
    assert issubclass(KeyNotGranted, AccessDenied)
    assert issubclass(UnknownDocument, PolicyError)


def test_layer_exceptions_join_the_taxonomy():
    assert issubclass(IntegrityError, TamperDetected)
    assert issubclass(SecureChannelError, TamperDetected)
    assert issubclass(PaddingError, TamperDetected)
    assert issubclass(PaddingError, ValueError)  # compatibility
    assert issubclass(CardMemoryError, ResourceExhausted)
    assert issubclass(CardMemoryError, MemoryError)  # compatibility
    assert issubclass(ProxyError, TransportError)
    assert issubclass(CardTampered, TamperDetected)
    assert issubclass(CardOutOfResources, ResourceExhausted)
    assert issubclass(KeyNotGranted, KeyError)  # compatibility
    assert issubclass(UnknownDocument, KeyError)  # compatibility


def test_publisher_update_rules_names_the_document():
    publisher = Community().enroll("owner").publisher
    with pytest.raises(PolicyError) as info:
        publisher.update_rules("ghost", [])
    assert "'ghost'" in str(info.value) and "'owner'" in str(info.value)
    assert info.value.doc_id == "ghost"
    with pytest.raises(PolicyError, match="'ghost'"):
        publisher.secret_for("ghost")
    with pytest.raises(PolicyError, match="'ghost'"):
        publisher.grant_access("ghost", "anyone")


def test_dsp_wrapped_key_names_doc_and_subject():
    community = Community()
    owner = community.enroll("owner")
    community.enroll("reader")
    owner.publish("<r/>", [], to=[], doc_id="d")
    with pytest.raises(KeyNotGranted) as info:
        community.dsp.get_wrapped_key("d", "reader")
    message = str(info.value)
    assert "'d'" in message and "'reader'" in message
    assert info.value.doc_id == "d"
    assert info.value.subject == "reader"
    # Unknown document id: PolicyError branch of the taxonomy.
    with pytest.raises(UnknownDocument, match="'ghost'"):
        community.dsp.get_wrapped_key("ghost", "reader")


def test_terminal_query_on_locked_document():
    community = Community()
    owner = community.enroll("owner")
    reader = community.enroll("reader")
    doc = owner.publish(
        "<r/>", [("+", "reader", "/r")], to=[reader], doc_id="d"
    )
    # The card refuses a pull on a document it holds no key for.
    with pytest.raises(ProxyError) as info:
        list(reader.terminal.proxy.stream_query("d", "reader"))
    assert info.value.status == StatusWord.CONDITIONS_NOT_SATISFIED
    # Opening a session unlocks it.
    with reader.open(doc) as session:
        assert session.query().text() == "<r></r>"


def test_keyring_and_pki_raise_key_not_granted():
    ring = KeyRing()
    with pytest.raises(KeyNotGranted, match="'ghost'"):
        ring.keys_for("ghost")
    pki = SimulatedPKI()
    with pytest.raises(KeyNotGranted, match="'nobody'"):
        pki.public_key("nobody")
    pki.enroll("a")
    with pytest.raises(KeyNotGranted, match="'nobody'"):
        pki.wrap_secret("a", "nobody", b"s" * 16)


def test_typed_key_errors_render_their_message():
    # KeyError would repr() the argument; the taxonomy classes must
    # stringify readably for user-facing reports.
    error = KeyNotGranted("no key for 'x'", doc_id="x")
    assert str(error) == "no key for 'x'"
    error2 = UnknownDocument("no document 'y'", doc_id="y")
    assert str(error2) == "no document 'y'"


def test_one_except_ladder_covers_the_facade():
    community = Community()
    owner = community.enroll("owner")
    doc = owner.publish("<r/>", [], to=[])
    eve = community.enroll("eve")
    caught = []
    for action in (
        lambda: eve.open(doc),
        lambda: community.member("ghost"),
        lambda: community.document("ghost"),
    ):
        try:
            action()
        except ReproError as error:
            caught.append(type(error).__name__)
    assert caught == ["KeyNotGranted", "PolicyError", "UnknownDocument"]
