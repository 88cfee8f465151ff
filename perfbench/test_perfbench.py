"""The benchmark's own tests: seeding, the correctness gate, the ledger.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools

import pytest

import run

run.bootstrap()

from gate import Gate  # noqa: E402
from repro.errors import KeyNotGranted, TransportError  # noqa: E402
from tracer import LEDGER_TOLERANCE  # noqa: E402
from workloads import SAMPLE_CAPACITY, WORKLOADS, CardPull, Sample, Tally  # noqa: E402

#: Ops per workload in the fixed-length runs below.
OPS = {"card-pull": 40, "served-mix": 60, "feed-video": 12}

#: The per-layer counts a seed must reproduce exactly.
SEEDED_COUNTS = (
    "dsp.requests",
    "terminal.apdus",
    "crypto.bytes_decrypted",
    "core.events",
    "core.compiles",
    "smartcard.modeled_ms",
)


def _first_ops(name: str, seed: int, count: int) -> list[tuple]:
    return list(itertools.islice(WORKLOADS[name](seed).ops(), count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_op_sequence(name):
    assert _first_ops(name, 3, 300) == _first_ops(name, 3, 300)
    assert _first_ops(name, 3, 300) != _first_ops(name, 4, 300)


@pytest.fixture(scope="module")
def traced_runs():
    return {
        name: [run.measure(name, 5, None, True, max_ops=OPS[name]) for _ in range(2)]
        for name in sorted(WORKLOADS)
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_counts(traced_runs, name):
    first, second = (run.per_layer(result) for result in traced_runs[name])
    for key in SEEDED_COUNTS:
        assert first[key] == second[key], key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runs_are_correct_and_use_only_the_facade(traced_runs, name):
    for result in traced_runs[name]:
        assert result.tally.ops == OPS[name]
        assert result.tally.failed == 0, result.gate.examples
        assert result.gate.correct
        assert result.deprecations == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ledger_sums_to_the_op_time(traced_runs, name):
    for result in traced_runs[name]:
        total = result.tally.op_seconds
        ledger = result.tracer.ledger(total)
        assert abs(ledger["unattributed"]) <= LEDGER_TOLERANCE * total


def test_gate_rejects_a_corrupted_view():
    gate = Gate()
    assert gate.view("pull", "<a>1</a>", "<a>1</a>")
    assert not gate.view("pull", "<a>2</a>", "<a>1</a>")
    assert not gate.correct


def test_gate_rejects_a_serve_after_revoke():
    gate = Gate()
    assert gate.refused("pull", KeyNotGranted("revoked", subject="m"))
    assert gate.correct
    assert not gate.refused("pull", "<agenda/>")
    assert not gate.refused("pull", TransportError("down"))
    assert gate.failures == 2


def test_a_corrupted_reference_fails_the_op():
    workload = CardPull(2)
    key = workload.combos[0]
    workload.expected[key] = workload.expected[key] + " "
    world = workload.setup()
    tally, gate = Tally(), Gate()
    try:
        workload.run(world, key, tally, gate)
        workload.run(world, workload.combos[1], tally, gate)
    finally:
        workload.close(world)
    assert tally.ops == 2
    assert tally.failed == 1
    assert not gate.correct


def test_a_sample_keeps_a_fixed_number_of_values():
    sample = Sample()
    for value in range(3 * SAMPLE_CAPACITY):
        sample.add(float(value))
    kept = sample.values()
    assert sample.count == 3 * SAMPLE_CAPACITY
    assert sample.total == sum(range(3 * SAMPLE_CAPACITY))
    assert len(kept) == SAMPLE_CAPACITY
    # A uniform sample of 0 .. 3C-1 reaches past its first third.
    assert max(kept) >= 2 * SAMPLE_CAPACITY
