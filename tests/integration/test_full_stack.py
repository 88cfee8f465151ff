"""Full-architecture integration scenarios (Figure 3 end to end)."""

from repro.community import Community
from repro.core import reference_view
from repro.core.rules import AccessRule, RuleSet
from repro.smartcard.applet import PendingStrategy
from repro.workloads.docgen import agenda, hospital
from repro.workloads.rulegen import agenda_rules, hospital_rules
from repro.xmlstream.events import events_to_paths
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string

MEMBERS = ["alice", "bruno", "carla"]


def _community(*extra):
    community = Community()
    owner = community.enroll("owner")
    for member in MEMBERS + list(extra):
        community.enroll(member)
    return community, owner


def _pull(member, doc, **options):
    with member.open(doc) as session:
        stream = session.query(**options)
        return stream, stream.metrics


def test_collaborative_community_scenario():
    """Demo application 1: a community shares an agenda via the DSP."""
    community, owner = _community()
    root = agenda(3, 5)
    rules = agenda_rules(MEMBERS)
    doc = owner.publish(list(tree_to_events(root)), rules, to=MEMBERS)
    for member in MEMBERS:
        stream, metrics = _pull(community.member(member), doc)
        expected = write_string(reference_view(root, rules, member))
        assert stream.text() == expected
        assert metrics.ram_high_water <= 1024


def test_dynamic_policy_evolution_cycle():
    """Publish, query, tighten policy, re-query -- no re-encryption."""
    community, owner = _community()
    root = agenda(3, 5)
    doc = owner.publish(
        list(tree_to_events(root)), agenda_rules(MEMBERS), to=MEMBERS
    )
    bytes_before = doc.container.stored_size
    bruno = community.member("bruno")
    _pull(bruno, doc)
    tightened = RuleSet(
        [
            AccessRule.parse("+", "bruno", "/agenda", rule_id="T0"),
            AccessRule.parse("-", "bruno", "//participants", rule_id="T1"),
            AccessRule.parse("-", "bruno", "//private", rule_id="T2"),
        ]
    )
    receipt = doc.update_rules(tightened)
    assert receipt.document_bytes_encrypted == 0
    assert doc.container.stored_size == bytes_before
    second, __ = _pull(bruno, doc)
    expected = write_string(reference_view(root, tightened, "bruno"))
    assert second.text() == expected
    assert "<participant>" not in second.text()


def test_strict_1kb_card_completes_hospital_session():
    """The paper's hard constraint: the whole evaluation fits 1 KB."""
    community, owner = _community()
    doctor = community.enroll("doctor", ram_quota=1024, strict_memory=True)
    root = hospital(n_patients=16, episodes_per_patient=4)
    rules = hospital_rules()
    doc = owner.publish(list(tree_to_events(root)), rules, to=[doctor])
    stream, metrics = _pull(doctor, doc)
    expected = write_string(reference_view(root, rules, "doctor"))
    assert stream.text() == expected
    assert metrics.ram_high_water <= 1024


def test_refetch_and_buffer_deliver_same_content():
    """The two pending strategies agree on delivered elements/text."""
    document = (
        "<mail>"
        + "".join(
            f"<msg><body>content {i}</body><flag>{'keep' if i % 2 else 'drop'}</flag></msg>"
            for i in range(8)
        )
        + "</mail>"
    )
    rules = RuleSet(
        [AccessRule.parse("+", "u", '//msg[flag = "keep"]/body', rule_id="F0")]
    )
    community, owner = _community("u")
    u = community.member("u")
    doc = owner.publish(document, rules, to=[u], chunk_size=48)

    def delivered_texts(stream):
        main = "".join(p.text for p in stream.pieces if p.kind == "view")
        texts = []
        for part in [main] + [p.text for p in stream.fragments]:
            for event in parse_string(f"<frag>{part}</frag>"):
                if hasattr(event, "text"):
                    texts.append(event.text)
        return sorted(texts)

    buffer_stream, buffer_metrics = _pull(
        u, doc, strategy=PendingStrategy.BUFFER
    )
    refetch_stream, refetch_metrics = _pull(
        u, doc, strategy=PendingStrategy.REFETCH
    )
    assert delivered_texts(buffer_stream) == delivered_texts(refetch_stream)
    assert refetch_metrics.max_pending_bytes <= buffer_metrics.max_pending_bytes


def test_one_card_many_documents():
    """A single card serves several documents with separate keys."""
    community, owner = _community()
    alice = community.member("alice")
    rules_a = RuleSet([AccessRule.parse("+", "alice", "/a", rule_id="A")])
    rules_b = RuleSet([AccessRule.parse("+", "alice", "/b", rule_id="B")])
    doc_a = owner.publish("<a><x>alpha</x></a>", rules_a, to=[alice])
    doc_b = owner.publish("<b><y>beta</y></b>", rules_b, to=[alice])
    result_a, __ = _pull(alice, doc_a)
    result_b, __ = _pull(alice, doc_b)
    assert "alpha" in result_a.text()
    assert "beta" in result_b.text()


def test_output_paths_subset_of_input():
    community, owner = _community("nurse")
    root = hospital(10)
    rules = hospital_rules()
    doc = owner.publish(list(tree_to_events(root)), rules, to=["nurse"])
    stream, __ = _pull(community.member("nurse"), doc)
    input_paths = set(events_to_paths(tree_to_events(root)))
    if stream.text():
        output_paths = set(events_to_paths(parse_string(stream.text())))
        assert output_paths <= input_paths
