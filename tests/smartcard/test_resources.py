"""Unit tests for the cost model and simulated clock."""

import pytest

from repro.smartcard.resources import (
    CostModel,
    LinkModel,
    NetworkModel,
    SessionMetrics,
    SimClock,
)


def test_cost_model_seconds():
    cost = CostModel(cpu_hz=1_000_000)
    assert cost.seconds(1_000_000) == 1.0


def test_link_transfer_matches_paper_bandwidth():
    link = LinkModel()
    # 2 KB at 2 KB/s takes one second -- the paper's headline number.
    assert link.transfer_seconds(2048) == pytest.approx(1.0)


def test_network_is_much_faster_than_link():
    assert NetworkModel().transfer_seconds(2048) < LinkModel().transfer_seconds(2048) / 100


def test_clock_accumulates_components():
    clock = SimClock()
    clock.add("cpu", 0.5)
    clock.add("cpu", 0.25)
    clock.add("link", 1.0)
    assert clock.component("cpu") == pytest.approx(0.75)
    assert clock.total() == pytest.approx(1.75)
    assert set(clock.breakdown()) == {"cpu", "link"}


def test_clock_rejects_negative():
    with pytest.raises(ValueError):
        SimClock().add("cpu", -1.0)


def test_clock_reset():
    clock = SimClock()
    clock.add("cpu", 1.0)
    clock.reset()
    assert clock.total() == 0.0


def test_session_metrics_as_dict():
    metrics = SessionMetrics()
    metrics.bytes_decrypted = 100
    metrics.clock.add("link", 2.0)
    flat = metrics.as_dict()
    assert flat["bytes_decrypted"] == 100
    assert flat["time_link"] == 2.0
    assert flat["time_total"] == 2.0


def test_advance_to_is_adding_the_same_charges_in_order():
    charges = [1 / 3, 2e-7, 0.1, 7 / 11, 3e-9]
    one_by_one = SimClock()
    one_by_one.add("card_cpu", 0.5)
    for seconds in charges:
        one_by_one.add("card_cpu", seconds)
    local = SimClock()
    local.add("card_cpu", 0.5)
    running = local.component("card_cpu")
    for seconds in charges:
        running += seconds
    local.advance_to("card_cpu", running)
    assert local.component("card_cpu").hex() == one_by_one.component("card_cpu").hex()


def test_advance_to_rejects_going_back_and_adds_no_empty_component():
    clock = SimClock()
    clock.add("cpu", 1.0)
    with pytest.raises(ValueError):
        clock.advance_to("cpu", 0.5)
    clock.advance_to("link", 0.0)
    assert set(clock.breakdown()) == {"cpu"}
