"""E9 -- tamper-detection matrix.

Every adversarial transformation of the encrypted store must be caught
(detection probability 1 in the MAC-length limit).  The table lists
each attack, whether it was detected, and where in the protocol the
card refused.
"""

from _common import emit

from repro.community import Community
from repro.core.rules import AccessRule, RuleSet
from repro.dsp import tamper
from repro.dsp.store import DSPStore
from repro.terminal.proxy import ProxyError

DOC = "<r>" + "".join(f"<item>{i:04d}</item>" for i in range(50)) + "</r>"
RULES = RuleSet([AccessRule.parse("+", "u", "/r", rule_id="E9")])


def _fresh_stack():
    store = DSPStore()
    community = Community(store=store)
    owner = community.enroll("owner")
    community.enroll("u")
    owner.publish(DOC, RULES, to=["u"], doc_id="d", chunk_size=64)
    return store, community


def _publish(community, doc_id, xml):
    community.member("owner").publish(
        xml, RULES, to=["u"], doc_id=doc_id, chunk_size=64
    )


def _attempt(community):
    try:
        with community.member("u").open("d") as session:
            session.query().finish()
        return False, "-"
    except ProxyError as exc:
        return True, str(exc)


def run_experiment():
    headers = ["attack", "detected", "refusal point"]
    rows = []

    store, community = _fresh_stack()
    container = store.get("d").container
    tamper.install(store, tamper.corrupt_chunk(container, 5))
    detected, where = _attempt(community)
    rows.append(["chunk modification (bit-flip)", detected, where])

    store, community = _fresh_stack()
    container = store.get("d").container
    tamper.install(store, tamper.swap_chunks(container, 1, 3))
    detected, where = _attempt(community)
    rows.append(["chunk reordering", detected, where])

    store, community = _fresh_stack()
    _publish(community, "o", DOC)
    container = store.get("d").container
    tamper.install(
        store,
        tamper.substitute_chunk(container, 2, store.get("o").container, 2),
    )
    detected, where = _attempt(community)
    rows.append(["cross-document substitution", detected, where])

    store, community = _fresh_stack()
    container = store.get("d").container
    tamper.install(store, tamper.truncate(container, keep=3))
    detected, where = _attempt(community)
    rows.append(["truncation, forged header", detected, where])

    store, community = _fresh_stack()
    container = store.get("d").container
    tamper.install(store, tamper.truncate_keeping_header(container, keep=3))
    detected, where = _attempt(community)
    rows.append(["truncation, original header", detected, where])

    store, community = _fresh_stack()
    stale = store.get("d").container
    _publish(community, "d", "<r><item>v2</item></r>")
    _attempt(community)  # the card's version register moves to v2
    tamper.install(store, tamper.replay(stale))
    detected, where = _attempt(community)
    rows.append(["stale-version replay", detected, where])

    store, community = _fresh_stack()
    record = bytearray(store.get("d").rule_records[0])
    record[2] ^= 0xFF
    store.get("d").rule_records[0] = bytes(record)
    detected, where = _attempt(community)
    rows.append(["rule-record tampering", detected, where])

    return "E9: tamper detection matrix", headers, rows


def test_e9_tamper(benchmark):
    def one_detection():
        store, community = _fresh_stack()
        tamper.install(store, tamper.corrupt_chunk(store.get("d").container, 5))
        return _attempt(community)

    benchmark.pedantic(one_detection, rounds=3, iterations=1)
    title, headers, rows = run_experiment()
    assert all(row[1] for row in rows), "an attack went undetected"
    emit(title, headers, rows)


if __name__ == "__main__":
    emit(*run_experiment())
