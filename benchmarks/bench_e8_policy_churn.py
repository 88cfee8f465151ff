"""E8 -- dynamic rule changes: our engine vs static encryption.

The motivating comparison of the paper's introduction.  A community
agenda undergoes a sequence of realistic policy changes; for each we
price (a) our engine -- re-seal the rule records, nothing else -- and
(b) the static authorization-class scheme of [1, 6] -- re-encrypt every
node whose class changed and redistribute keys.  Expected shape: the
static baseline pays kilobytes and key rotations per change, ours pays
a few hundred rule bytes and zero keys, at any document size.
"""

from _common import emit

from repro.baselines.static_encryption import StaticEncryptionScheme
from repro.community import Community
from repro.core.rules import AccessRule, RuleSet
from repro.workloads.docgen import agenda
from repro.workloads.rulegen import agenda_rules, owner_private_rules
from repro.xmlstream.tree import tree_to_events

MEMBERS = ["alice", "bruno", "carla", "deng"]


def _policy_sequence():
    base = agenda_rules(MEMBERS)
    restricted = RuleSet(
        list(agenda_rules([m for m in MEMBERS if m != "bruno"]))
        + [AccessRule.parse("+", "bruno", "//event/title", rule_id="C0"),
           AccessRule.parse("+", "bruno", "//event/date", rule_id="C1")]
    )
    opaque = owner_private_rules(MEMBERS)
    revoked = RuleSet(list(agenda_rules([m for m in MEMBERS if m != "deng"])))
    return [
        ("restrict bruno", restricted),
        ("hide all private", opaque),
        ("restore default", agenda_rules(MEMBERS)),
        ("revoke deng", revoked),
    ], base


def run_experiment():
    root = agenda(4, 8)
    changes, base = _policy_sequence()

    community = Community()
    owner = community.enroll("owner")
    members = [community.enroll(member) for member in MEMBERS]
    document = owner.publish(
        list(tree_to_events(root)), base, to=members, doc_id="agenda"
    )
    scheme = StaticEncryptionScheme(root, base, MEMBERS)

    headers = [
        "policy change", "ours: doc B", "ours: rule B", "ours: keys",
        "static: doc B", "static: keys",
    ]
    rows = []
    for label, rules in changes:
        receipt = document.update_rules(rules)
        churn = scheme.rekey_for(rules)
        rows.append([
            label,
            receipt.document_bytes_encrypted,
            receipt.rule_bytes_encrypted,
            receipt.keys_distributed,
            churn.bytes_reencrypted,
            churn.keys_redistributed,
        ])
    return "E8: cost of policy churn (agenda, 4 members)", headers, rows


def test_e8_policy_churn(benchmark):
    root = agenda(4, 8)
    changes, base = _policy_sequence()
    scheme = StaticEncryptionScheme(root, base, MEMBERS)
    benchmark.pedantic(
        lambda: StaticEncryptionScheme(root, base, MEMBERS).rekey_for(
            changes[0][1]
        ),
        rounds=3,
        iterations=1,
    )
    emit(*run_experiment())


if __name__ == "__main__":
    emit(*run_experiment())
