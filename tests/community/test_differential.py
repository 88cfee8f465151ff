"""Differential: facade scenarios vs a recorded hand-wired run.

``tests/goldens/facade_differential.json`` holds the views and the
exact ``SimClock`` component totals (floats as ``float.hex``) of the
quickstart scenario wired by hand from ``Publisher``/``Terminal`` with
persistent terminals and ``Terminal.query`` pulls -- recorded before
that second pull path was removed.  The facade must reproduce them
byte for byte and bit for bit.
"""

import json
import pathlib
import warnings

from repro.community import Community
from repro.core.rules import AccessRule, RuleSet
from repro.terminal.transfer import TransferPolicy

GOLDEN = (
    pathlib.Path(__file__).parent.parent / "goldens" / "facade_differential.json"
)

DOCUMENT = (
    "<hospital>"
    "<patient><name>Smith</name><diagnosis>flu</diagnosis>"
    "<billing><amount>120</amount></billing></patient>"
    "<patient><name>Jones</name><diagnosis>ok</diagnosis>"
    "<billing><amount>80</amount></billing></patient>"
    "</hospital>"
)

RULES = [
    ("+", "doctor", "/hospital"),
    ("-", "doctor", "//billing"),
    ("+", "accountant", "//billing"),
    ("+", "accountant", "//patient/name"),
]


def _ruleset():
    return RuleSet([AccessRule.parse(s, u, p) for s, u, p in RULES])


def _run_facade():
    """The quickstart scenario through repro.community."""
    community = Community()
    owner = community.enroll("owner")
    doctor = community.enroll("doctor")
    accountant = community.enroll("accountant")
    doc = owner.publish(
        DOCUMENT, _ruleset(), to=[doctor, accountant], doc_id="records"
    )
    views = {}
    for member in (doctor, accountant):
        with member.open(doc) as session:
            views[member.name] = session.query().text()
    with doctor.open(doc) as session:
        views["doctor//diagnosis"] = session.query("//diagnosis").text()
    with doctor.open(doc, transfer=TransferPolicy.windowed(8)) as session:
        views["doctor windowed"] = session.query().text()
    return views, community.clock.snapshot()


def test_views_byte_identical_and_clock_bit_identical():
    golden = json.loads(GOLDEN.read_text())
    facade_views, facade_clock = _run_facade()
    assert facade_views == golden["views"]
    # Bit-for-bit: every simulated-clock component matches the recorded
    # hand-wired run to the last float bit.
    assert {
        component: float.hex(seconds)
        for component, seconds in facade_clock.items()
    } == golden["clock"]


def test_facade_itself_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        community = Community()
        owner = community.enroll("owner")
        reader = community.enroll("reader")
        doc = owner.publish(
            "<r><a>x</a></r>", [("+", "reader", "/r")], to=[reader]
        )
        with reader.open(doc) as session:
            assert session.query().text() == "<r><a>x</a></r>"
