"""Role/group subjects through the full card protocol."""

from repro.community import Community
from repro.core import reference_view
from repro.core.rules import AccessRule, RuleSet, Subject
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string


def _pull(rules, doc_root, groups=frozenset()):
    """Publish to "martin" and return the view of one pull as martin."""
    community = Community()
    owner = community.enroll("owner")
    martin = community.enroll("martin")
    doc = owner.publish(
        list(tree_to_events(doc_root)), rules, to=[martin], doc_id="med"
    )
    with martin.open(doc, groups=groups) as session:
        return session.query().text()


def test_user_with_role_gets_role_rules():
    root = hospital(8)
    rules = hospital_rules()
    view = _pull(rules, root, groups=frozenset({"doctor"}))
    expected = write_string(
        reference_view(root, rules, Subject("martin", frozenset({"doctor"})))
    )
    assert view == expected
    assert "<diagnosis>" in view
    assert "<psychiatric>" not in view


def test_user_without_role_sees_nothing():
    assert _pull(hospital_rules(), hospital(8)) == ""


def test_multiple_roles_combine():
    """Rules for every held role apply together -- with the usual
    conflict resolution across them."""
    root = hospital(8)
    rules = hospital_rules()
    view = _pull(rules, root, groups=frozenset({"doctor", "accountant"}))
    expected = write_string(
        reference_view(
            root, rules, Subject("martin", frozenset({"doctor", "accountant"}))
        )
    )
    assert view == expected
    # The doctor's deny on billing and the accountant's permit on it
    # collide on the same nodes: denial takes precedence.
    assert "<amount>" not in view


def test_personal_rule_plus_role():
    root = hospital(8)
    rules = RuleSet(
        list(hospital_rules())
        + [AccessRule.parse("+", "martin", "//ssn", rule_id="ME")]
    )
    view = _pull(rules, root, groups=frozenset({"nurse"}))
    expected = write_string(
        reference_view(root, rules, Subject("martin", frozenset({"nurse"})))
    )
    assert view == expected
    assert "<ssn>" in view  # personal grant
    assert "<prescription>" in view  # role grant
