"""Encoder/decoder round trips and skipping semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skipindex.decoder import (
    DecodedClose,
    DecodedOpen,
    DecodedText,
    SXSDecoder,
    SXSFormatError,
    decode_document,
)
from repro.skipindex.encoder import IndexMode, encode_document, encoded_size
from repro.skipindex.tagdict import TagDictionary
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import tree_to_events

from tests.strategies import elements


@settings(max_examples=80, deadline=None)
@given(root=elements(), mode=st.sampled_from(list(IndexMode)))
def test_round_trip_all_modes(root, mode):
    events = list(tree_to_events(root))
    assert decode_document(encode_document(events, mode)) == events


@settings(max_examples=60, deadline=None)
@given(root=elements(), chunk=st.integers(min_value=1, max_value=17))
def test_incremental_push_equals_bulk(root, chunk):
    events = list(tree_to_events(root))
    data = encode_document(events, IndexMode.RECURSIVE)
    decoder = SXSDecoder()
    out = []
    for start in range(0, len(data), chunk):
        decoder.push(data[start:start + chunk], start)
        while (item := decoder.next_item()) is not None:
            out.append(item.event)
    assert out == events


def test_attributes_survive():
    events = parse_string('<a x="1"><b y="2" z="3">t</b></a>')
    assert decode_document(encode_document(events)) == events


def test_index_metadata_contents():
    events = parse_string("<a><b><c/></b><d>t</d></a>")
    data = encode_document(events, IndexMode.RECURSIVE)
    decoder = SXSDecoder()
    decoder.push(data)
    first = decoder.next_item()
    assert isinstance(first, DecodedOpen)
    names = decoder.dictionary.ids_to_names
    assert names(first.tags_inside) == {"b", "c", "d"}
    assert first.resume_offset == len(data)
    second = decoder.next_item()
    assert names(second.tags_inside) == {"c"}


def test_no_index_mode_has_no_metadata():
    events = parse_string("<a><b/></a>")
    data = encode_document(events, IndexMode.NONE)
    decoder = SXSDecoder()
    decoder.push(data)
    first = decoder.next_item()
    assert first.tags_inside is None and first.resume_offset is None


def test_skip_synthesizes_close_and_lands_after_subtree():
    events = parse_string("<a><skipme><deep>x</deep></skipme><next/></a>")
    data = encode_document(events, IndexMode.RECURSIVE)
    decoder = SXSDecoder()
    decoder.push(data)
    decoder.next_item()  # a
    item = decoder.next_item()
    assert item.event.tag == "skipme"
    decoder.skip_open_subtree()
    close = decoder.next_item()
    assert isinstance(close, DecodedClose) and close.synthetic
    assert close.event.tag == "skipme"
    following = decoder.next_item()
    assert isinstance(following, DecodedOpen) and following.event.tag == "next"


def test_skip_without_index_rejected():
    events = parse_string("<a><b/></a>")
    data = encode_document(events, IndexMode.NONE)
    decoder = SXSDecoder()
    decoder.push(data)
    decoder.next_item()
    with pytest.raises(RuntimeError):
        decoder.skip_open_subtree()


def test_skip_too_late_rejected():
    events = parse_string("<a><b><c/></b></a>")
    data = encode_document(events, IndexMode.RECURSIVE)
    decoder = SXSDecoder()
    decoder.push(data)
    decoder.next_item()  # a
    decoder.next_item()  # b
    decoder.next_item()  # c -- b's content started
    decoder._stack.pop()  # force the b frame on top
    with pytest.raises(RuntimeError):
        decoder.skip_open_subtree()


def test_recursive_not_larger_than_flat():
    """Recursive compression must pay off on deep documents."""
    deep = parse_string(
        "<a><b><c><d><e>x</e></d></c></b>" * 3 + "</a>"
        if False
        else "<a>" + "<b><c><d><e>x</e></d></c></b>" * 5 + "</a>"
    )
    flat_size = encoded_size(deep, IndexMode.FLAT)
    recursive_size = encoded_size(deep, IndexMode.RECURSIVE)
    none_size = encoded_size(deep, IndexMode.NONE)
    assert none_size < recursive_size <= flat_size


def test_bad_magic_rejected():
    decoder = SXSDecoder()
    decoder.push(b"XXXX\x00\x00")
    with pytest.raises(SXSFormatError):
        decoder.next_item()


def test_unknown_opcode_rejected():
    events = parse_string("<a/>")
    data = bytearray(encode_document(events, IndexMode.NONE))
    data[-1] = 0x7F  # clobber the final CLOSE opcode
    decoder = SXSDecoder()
    decoder.push(bytes(data))
    decoder.next_item()
    with pytest.raises(SXSFormatError):
        while decoder.next_item() is not None:
            pass


def test_non_contiguous_push_rejected():
    decoder = SXSDecoder()
    decoder.push(b"SXS1")
    with pytest.raises(SXSFormatError):
        decoder.push(b"zz", offset=10)


def test_truncated_document_not_done():
    events = parse_string("<a><b/></a>")
    data = encode_document(events)
    decoder = SXSDecoder()
    decoder.push(data[:-1])
    while decoder.next_item() is not None:
        pass
    assert not decoder.document_done


def test_shared_dictionary_reused():
    dictionary = TagDictionary(["a", "b"])
    events = parse_string("<a><b/></a>")
    encode_document(events, IndexMode.RECURSIVE, dictionary)
    assert len(dictionary) == 2  # nothing new interned


def test_for_region_decodes_subtree():
    events = parse_string("<a><mid><x>1</x><y>2</y></mid><z/></a>")
    data = encode_document(events, IndexMode.RECURSIVE)
    decoder = SXSDecoder()
    decoder.push(data)
    decoder.next_item()  # a
    mid = decoder.next_item()
    snapshot = decoder.snapshot_top_frame()
    resume = decoder.skip_open_subtree()
    region = SXSDecoder.for_region(
        decoder.dictionary,
        decoder.mode,
        tag=snapshot.tag,
        tags_inside_ids=snapshot.tags_inside,
        content_size=snapshot.content_size,
        content_start=snapshot.content_start,
    )
    region.push(data[snapshot.content_start:resume], snapshot.content_start)
    tags = []
    while (item := region.next_item()) is not None:
        tags.append(
            item.event.tag if not isinstance(item, DecodedText) else item.event.text
        )
    assert tags == ["x", "1", "x", "y", "2", "y", "mid"]
    assert region.document_done
