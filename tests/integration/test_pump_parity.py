"""Differential guard for the card pump: every observable, bit for bit.

``tests/goldens/pump_parity.json`` holds what a fixed set of pull
sessions observed on the card, recorded on the revision before the
pump was fused into one pass per chunk.  It widens the hospital-only
E14 golden to the paths that golden never reaches: the token engine
with pending holes (parental control over the video stream) under both
pending strategies, the agenda policy, the FLAT and NONE index modes,
``ViewMode.PRUNE``, a windowed pull whose batches drop members after a
mid-batch skip, and a strict 1 KB card that runs out of secure RAM in
the middle of a chunk.

Clock components and card cycles are compared as ``float.hex``, so a
change in the order or grouping of the modeled charges shows up as a
mismatch even when the decimal totals print the same.

Regenerate (only when the modeled semantics change on purpose) with::

    PYTHONPATH=src python tests/integration/test_pump_parity.py > tests/goldens/pump_parity.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.community import Community
from repro.core.delivery import ViewMode
from repro.skipindex.encoder import IndexMode
from repro.smartcard.applet import CardApplet, PendingStrategy
from repro.smartcard.memory import CardMemoryError
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import agenda, hospital, nested, video_catalog
from repro.workloads.rulegen import agenda_rules, hospital_rules, parental_rules
from repro.xmlstream.tree import tree_to_events

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "goldens" / "pump_parity.json"

_AGENDA_MEMBERS = ["alice", "bruno", "carla", "deng"]

#: Every session: document, policy, subject and the knobs the pump
#: branches on.  ``window`` is a ``TransferPolicy.windowed`` size
#: (``None`` = sequential).
SESSIONS = [
    {"name": "video-kid-buffer", "doc": "video", "subject": "kid",
     "strategy": "BUFFER"},
    {"name": "video-kid-refetch", "doc": "video", "subject": "kid",
     "strategy": "REFETCH"},
    {"name": "video-kid-refetch-windowed", "doc": "video", "subject": "kid",
     "strategy": "REFETCH", "window": 8, "chunk_size": 40},
    {"name": "video-kid-prune", "doc": "video", "subject": "kid",
     "view_mode": "PRUNE", "chunk_size": 24},
    {"name": "agenda-member", "doc": "agenda", "subject": "bruno"},
    {"name": "agenda-member-query-refetch", "doc": "agenda", "subject": "alice",
     "query": "//event/title", "strategy": "REFETCH", "chunk_size": 48},
    {"name": "hospital-doctor-flat", "doc": "hospital", "subject": "doctor",
     "mode": "FLAT"},
    {"name": "hospital-accountant-flat-query", "doc": "hospital",
     "subject": "accountant", "mode": "FLAT", "query": "//billing"},
    {"name": "hospital-doctor-none", "doc": "hospital", "subject": "doctor",
     "mode": "NONE", "chunk_size": 40},
    {"name": "hospital-accountant-prune", "doc": "hospital",
     "subject": "accountant", "view_mode": "PRUNE"},
    {"name": "hospital-accountant-windowed-drops", "doc": "hospital",
     "subject": "accountant", "window": 8, "chunk_size": 24},
    {"name": "hospital-doctor-windowed-query", "doc": "hospital",
     "subject": "doctor", "window": 8, "query": "//diagnosis"},
]


def _source(doc: str):
    if doc == "video":
        return tree_to_events(video_catalog(n_videos=12, payload=40)), parental_rules("kid")
    if doc == "agenda":
        return (
            tree_to_events(agenda(n_members=len(_AGENDA_MEMBERS), events_per_member=3)),
            agenda_rules(_AGENDA_MEMBERS),
        )
    return tree_to_events(hospital(n_patients=6)), hospital_rules()


def _clock(clock) -> dict[str, str]:
    return {name: float.hex(value) for name, value in sorted(clock.breakdown().items())}


def observe(config: dict) -> dict:
    """Run one pull session; return every card-visible observable."""
    events, rules = _source(config["doc"])
    community = Community()
    owner = community.enroll("owner")
    member = community.enroll(config["subject"], strict_memory=False)
    document = owner.publish(
        list(events),
        rules,
        [member],
        doc_id="pump-doc",
        index_mode=IndexMode[config.get("mode", "RECURSIVE")],
        chunk_size=config.get("chunk_size", 64),
    )
    window = config.get("window")
    transfer = TransferPolicy.windowed(window) if window else None
    with member.open(document, transfer=transfer) as session:
        stream = session.query(
            config.get("query"),
            strategy=PendingStrategy[config.get("strategy", "BUFFER")],
            view_mode=ViewMode[config.get("view_mode", "SKELETON")],
        )
        pieces = stream.pieces
        metrics = stream.metrics
    view = "".join(p.text for p in pieces if p.kind == "view")
    fragments = "".join(f"{p.entry_id}:{p.text}" for p in pieces if p.kind == "fragment")
    counters = {
        key: value
        for key, value in sorted(vars(metrics).items())
        if isinstance(value, int) and not isinstance(value, bool)
    }
    return {
        "view_sha256": hashlib.sha256(view.encode()).hexdigest(),
        "view_bytes": len(view.encode()),
        "fragments_sha256": hashlib.sha256(fragments.encode()).hexdigest(),
        "clock": _clock(metrics.clock),
        "card_cycles": float.hex(metrics.card_cycles),
        "counters": counters,
    }


def observe_overflow() -> dict:
    """A strict 1 KB card runs out of secure RAM mid-chunk.

    Every other observable of that card right after the raise -- the
    error's own figures, its cycle counter and its clock -- is recorded
    so that charges accumulated by the pump before the fault are
    proven to land exactly as they did item by item.
    """
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
    seen: dict = {}
    original = CardApplet.put_chunk

    def put_chunk(self, index, blob):
        items_before = self._decoder.bytes_decoded if self._decoder else 0
        try:
            return original(self, index, blob)
        except CardMemoryError as exc:
            seen.update(
                requested=exc.requested,
                used=exc.used,
                quota=exc.quota,
                chunk=index,
                decoded_in_chunk=self._decoder.bytes_decoded - items_before,
                cycles_used=float.hex(self.soe.cycles_used),
                clock=_clock(self.soe.clock),
                output_bytes_total=self.output_bytes_total,
                output_pending=self.output_pending,
                bytes_decrypted=self.bytes_decrypted,
                bytes_skipped=self.bytes_skipped,
                high_water=self.soe.memory.high_water,
                usage=self.soe.memory.usage(),
            )
            raise

    CardApplet.put_chunk = put_chunk
    try:
        with member.open(document) as session:
            try:
                session.query().text()
            except Exception as exc:  # the card reports 0x6581 upward
                seen["surfaced"] = type(exc).__name__
    finally:
        CardApplet.put_chunk = original
    return seen


def record() -> dict:
    return {
        "sessions": [dict(config, observed=observe(config)) for config in SESSIONS],
        "overflow": observe_overflow(),
    }


GOLDENS = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


@pytest.mark.parametrize("index", range(len(SESSIONS)), ids=[s["name"] for s in SESSIONS])
def test_session_observables_match_golden(index):
    golden = GOLDENS["sessions"][index]
    config = SESSIONS[index]
    assert golden["name"] == config["name"]
    assert observe(config) == golden["observed"]


def test_golden_exercises_the_branches_it_claims():
    by_name = {s["name"]: s["observed"] for s in GOLDENS["sessions"]}
    assert by_name["video-kid-buffer"]["counters"]["max_pending_bytes"] > 0
    assert by_name["video-kid-refetch"]["counters"]["refetch_count"] > 0
    assert by_name["hospital-accountant-windowed-drops"]["counters"]["chunks_wasted"] > 0
    assert by_name["hospital-accountant-windowed-drops"]["counters"]["bytes_skipped"] > 0
    assert GOLDENS["overflow"]["decoded_in_chunk"] > 0


def test_mid_chunk_overflow_matches_golden():
    assert observe_overflow() == GOLDENS["overflow"]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
