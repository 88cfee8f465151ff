"""Unit tests for the XML serializer."""

from repro.xmlstream.events import CloseEvent, OpenEvent, ValueEvent
from repro.xmlstream.parser import parse_string
from repro.xmlstream.writer import encoded_size, write_string


def test_compact_output():
    events = [
        OpenEvent("a", (("x", "1"),)),
        ValueEvent("t"),
        OpenEvent("b"),
        CloseEvent("b"),
        CloseEvent("a"),
    ]
    assert write_string(events) == '<a x="1">t<b></b></a>'


def test_text_escaping():
    events = [OpenEvent("a"), ValueEvent("<&>"), CloseEvent("a")]
    assert write_string(events) == "<a>&lt;&amp;&gt;</a>"


def test_attribute_escaping():
    events = [OpenEvent("a", (("t", 'he said "<hi>"'),)), CloseEvent("a")]
    text = write_string(events)
    assert "&quot;" in text and "&lt;" in text
    assert parse_string(text)[0].attribute("t") == 'he said "<hi>"'


def test_pretty_printing_leaf_on_one_line():
    events = [
        OpenEvent("a"),
        OpenEvent("b"),
        ValueEvent("x"),
        CloseEvent("b"),
        CloseEvent("a"),
    ]
    pretty = write_string(events, indent="  ")
    assert "<b>x</b>" in pretty
    assert pretty.startswith("<a>")
    assert pretty.count("\n") >= 2


def test_pretty_printing_round_trips():
    events = [
        OpenEvent("a"),
        OpenEvent("b"),
        ValueEvent("x"),
        CloseEvent("b"),
        OpenEvent("c"),
        CloseEvent("c"),
        CloseEvent("a"),
    ]
    pretty = write_string(events, indent="  ")
    assert parse_string(pretty) == events


def test_encoded_size_is_the_serialized_byte_count():
    events = [
        OpenEvent("r"),
        OpenEvent("a", (("k", 'v"<&'),)),
        ValueEvent("x < y & z > w"),
        CloseEvent("a"),
        OpenEvent("café"),
        ValueEvent("naïve — ünïcode"),
        CloseEvent("café"),
        CloseEvent("r"),
    ]
    for start in range(len(events) + 1):
        expected = len(write_string(events[start:]).encode("utf-8"))
        assert encoded_size(events, start) == expected
