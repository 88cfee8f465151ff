"""Streaming decoder for the SXS format, with subtree skipping.

This is the card-side component: it consumes decrypted plaintext bytes
*incrementally* (the card never holds more than the current chunk),
yields one decoded item at a time, and supports jumping over a subtree
-- the caller reads the skip metadata exposed on :class:`DecodedOpen`,
decides, and calls :meth:`SXSDecoder.skip_open_subtree`, after which
the decoder discards buffered bytes in the region, synthesizes the
matching close, and reports the absolute ``resume_offset`` so the proxy
can stop transferring the skipped chunks at all.

The buffer is consumed through a read cursor, compacted (amortized)
when the next chunk is pushed rather than per token, and tokens are
decoded directly off the live buffer -- the seed copied the entire
buffered region once per OPEN token.  Varint runs decode in one
batched pass per token, and a child's parent-relative tag bitmap
decodes once per distinct (parent tag set, bitmap) pair: later
occurrences reuse the same id set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.skipindex.bitset import ids_from_bitmap, ids_on_support, relative_width
from repro.skipindex.encoder import IndexMode, MAGIC, OP_CLOSE, OP_OPEN, OP_TEXT
from repro.skipindex.tagdict import TagDictionary
from repro.skipindex.varint import decode_varint, width_for_bound
from repro.xmlstream.events import CloseEvent, Event, OpenEvent, ValueEvent


class SXSFormatError(ValueError):
    """Raised on malformed SXS input."""


class DecodedOpen:
    """An element open with its skip metadata.

    ``tags_inside`` is the set of tag *ids* (in the stream's
    :attr:`SXSDecoder.dictionary`) occurring strictly inside the
    subtree, ``None`` when the stream carries no index: the card's
    reachability test keys on the ids, and names are resolved only when
    a test is not memoized yet.  ``resume_offset`` is the absolute
    offset just past the subtree (``None`` without an index).

    The item is also the decoder's frame for the element until it
    closes: the decoder's stack of open elements is the stack of the
    opens it handed out, and the private slots cache how the element's
    children decode.

    The ``Decoded*`` wrappers are plain slotted classes, not frozen
    dataclasses: one is born per stream item on the card's hottest
    loop, and ``object.__setattr__``-based frozen init costs more than
    the rest of the dispatch.
    """

    __slots__ = (
        "event",
        "tags_inside",
        "content_size",
        "resume_offset",
        "_child_width",
        "_children",
    )

    def __init__(
        self,
        event: OpenEvent,
        tags_inside: frozenset[int] | None,
        content_size: int | None,
        resume_offset: int | None,
    ) -> None:
        self.event = event
        self.tags_inside = tags_inside
        self.content_size = content_size
        self.resume_offset = resume_offset
        #: Byte width of the children's size fields (RECURSIVE; set on
        #: the first child).
        self._child_width: int | None = None
        #: How the children's relative tag sets decode
        #: (:meth:`SXSDecoder._children_of`; set on the first child).
        self._children: _Children | None = None


class DecodedText:
    __slots__ = ("event",)

    def __init__(self, event: ValueEvent) -> None:
        self.event = event


class DecodedClose:
    __slots__ = ("event", "synthetic")

    def __init__(self, event: CloseEvent, synthetic: bool = False) -> None:
        self.event = event
        self.synthetic = synthetic  # True when produced by a skip


DecodedItem = DecodedOpen | DecodedText | DecodedClose


#: Per parent tag set: the byte width of a child's relative bit array,
#: the sorted support it indexes, and a memo from the array's value to
#: the decoded id set.  Siblings, and same-shaped subtrees anywhere in
#: the document, repeat the same few sets, so most children decode to
#: an already built (and already hashed) frozenset.
_Children = tuple[int, tuple[int, ...], dict[int, frozenset[int]]]


@dataclass(frozen=True, slots=True)
class FrameSnapshot:
    """Decoder context of one open element (for skip-and-refetch)."""

    tag: str
    tags_inside: frozenset[int]
    content_size: int
    content_start: int


#: Consumed-prefix length above which the buffer is compacted (when the
#: prefix also dominates the buffer, keeping compaction amortized O(1)).
_COMPACT_THRESHOLD = 1024


class SXSDecoder:
    """Incremental SXS reader (see module docstring).

    Bytes are supplied with :meth:`push` (with an absolute offset when
    resuming after a skip); items are pulled with :meth:`next_item`,
    which returns ``None`` when more bytes are needed.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._base = 0  # absolute offset of _buffer[0]
        self._pos = 0  # read cursor into _buffer
        self._mode: IndexMode | None = None
        self.dictionary: TagDictionary | None = None
        self._tag_names: list[str] = []  # the dictionary's, by id
        self._children: dict[frozenset[int], _Children] = {}
        self._stack: list[DecodedOpen] = []
        self._pending_close: list[str] = []
        self._skip_target: int | None = None
        self._document_done = False
        self._origin = 0  # absolute offset decoding started at
        self._skipped = 0  # bytes jumped over by skips
        # Per-tag memos: events and decoded items are immutable value
        # objects, so every </patient> can be the same DecodedClose
        # (ditto attribute-less opens).  The tag universe is the
        # dictionary's.
        self._closes: dict[str, DecodedClose] = {}
        self._synthetic_closes: dict[str, DecodedClose] = {}
        self._plain_opens: dict[str, OpenEvent] = {}

    def _close_item(self, tag: str, synthetic: bool) -> DecodedClose:
        memo = self._synthetic_closes if synthetic else self._closes
        item = memo.get(tag)
        if item is None:
            item = memo[tag] = DecodedClose(CloseEvent(tag), synthetic)
        return item

    # -- input ----------------------------------------------------------

    @property
    def position(self) -> int:
        """Absolute offset of the next byte to decode."""
        return self._base + self._pos

    def push(self, data: bytes, offset: int | None = None) -> None:
        """Append plaintext bytes.

        ``offset`` is the absolute position of ``data[0]``; it defaults
        to the current end of the buffer.  After a skip, pushed data may
        begin before the resume offset (chunk alignment) -- the overlap
        is discarded.
        """
        end = self._base + len(self._buffer)
        if offset is None:
            offset = end
        if self._skip_target is not None and offset <= self._skip_target:
            # Resuming after a skip: drop bytes before the target.
            drop = self._skip_target - offset
            if drop >= len(data):
                return
            data = data[drop:]
            offset = self._skip_target
            if self._pos == len(self._buffer):
                self._buffer.clear()
                self._pos = 0
                self._base = offset
            self._skip_target = None
        elif offset != end:
            raise SXSFormatError(
                f"non-contiguous push: expected offset {end}, got {offset}"
            )
        position = self._pos
        if position >= _COMPACT_THRESHOLD and position * 2 >= len(self._buffer):
            del self._buffer[:position]
            self._base += position
            self._pos = 0
        self._buffer.extend(data)

    @property
    def bytes_decoded(self) -> int:
        """Bytes consumed by decoding so far (skipped bytes excluded)."""
        return self._base + self._pos - self._origin - self._skipped

    # -- header -----------------------------------------------------------

    def _try_parse_header(self) -> bool:
        if len(self._buffer) - self._pos < len(MAGIC) + 1:
            return False
        start = self._pos
        buffer = self._buffer
        if buffer[start:start + len(MAGIC)] != MAGIC:
            raise SXSFormatError("bad magic")
        try:
            mode = IndexMode(buffer[start + len(MAGIC)])
        except ValueError as exc:
            raise SXSFormatError("unknown index mode") from exc
        try:
            # Decoded in place off the live bytearray -- the seed copied
            # the whole buffered stream here once per session.
            dictionary, offset = TagDictionary.decode(
                buffer, start + len(MAGIC) + 1
            )
        except ValueError:
            return False  # need more bytes
        self._use_dictionary(dictionary, mode)
        self._pos = offset
        return True

    def _use_dictionary(self, dictionary: TagDictionary, mode: IndexMode) -> None:
        self._mode = mode
        self.dictionary = dictionary
        self._tag_names = list(dictionary)

    def _children_of(self, frame: DecodedOpen) -> _Children:
        """Decode context for the children of ``frame`` (RECURSIVE)."""
        tags = frame.tags_inside
        assert tags is not None
        children = self._children.get(tags)
        if children is None:
            children = self._children[tags] = (
                relative_width(tags),
                tuple(sorted(tags)),
                {},
            )
        frame._children = children
        return children

    # -- item decoding -------------------------------------------------------

    def next_item(self) -> DecodedItem | None:
        """Decode and return the next item, or ``None`` if starved.

        This runs once per item on the card's hottest loop, so close
        and text tokens decode inline; opens carry the skip metadata
        and go through :meth:`_try_decode_open`.
        """
        if self._pending_close:
            tag = self._pending_close.pop()
            item = self._synthetic_closes.get(tag)
            if item is None:
                item = self._close_item(tag, True)
            return item
        if self._skip_target is not None or self._document_done:
            return None  # waiting for post-skip bytes, or finished
        if self.dictionary is None and not self._try_parse_header():
            return None
        buffer = self._buffer
        start = self._pos
        if start >= len(buffer):
            return None
        opcode = buffer[start]
        if opcode == OP_OPEN:
            return self._try_decode_open()
        if opcode == OP_CLOSE:
            stack = self._stack
            if not stack:
                raise SXSFormatError("unbalanced CLOSE token")
            tag = stack.pop().event.tag
            self._pos = start + 1
            if not stack:
                self._document_done = True
            item = self._closes.get(tag)
            if item is None:
                item = self._close_item(tag, False)
            return item
        if opcode == OP_TEXT:
            after = start + 1
            if after < len(buffer) and buffer[after] < 0x80:
                length, after = buffer[after], after + 1
            else:
                try:
                    length, after = decode_varint(buffer, after)
                except ValueError:
                    return None
            if len(buffer) < after + length:
                return None
            # Decode straight off the buffer via an unnamed temporary
            # view -- it is released before the next push may compact
            # (a live exported view would make the bytearray resize
            # raise BufferError).
            text = str(memoryview(buffer)[after:after + length], "utf-8")
            self._pos = after + length
            return DecodedText(ValueEvent(text))
        raise SXSFormatError(f"unknown opcode {opcode:#x}")

    def _try_decode_open(self) -> DecodedOpen | None:
        mode = self._mode
        buffer = self._buffer
        start = self._pos
        size = len(buffer)
        stack = self._stack
        try:
            # Batched field decode off the live buffer: the one-byte
            # varint case (nearly every tag id and length) is inlined.
            position = start + 1
            if position >= size:
                return None
            byte = buffer[position]
            if byte < 0x80:
                tag_id, offset = byte, position + 1
            else:
                tag_id, offset = decode_varint(buffer, position)
            if offset >= size:
                return None
            byte = buffer[offset]
            if byte < 0x80:
                n_attrs, offset = byte, offset + 1
            else:
                n_attrs, offset = decode_varint(buffer, offset)
            attributes: list[tuple[str, str]] | None = None
            if n_attrs:
                attributes = []
                for _ in range(n_attrs):
                    name_len, offset = decode_varint(buffer, offset)
                    if offset + name_len > size:
                        return None
                    name = str(memoryview(buffer)[offset:offset + name_len], "utf-8")
                    offset += name_len
                    value_len, offset = decode_varint(buffer, offset)
                    if offset + value_len > size:
                        return None
                    value = str(
                        memoryview(buffer)[offset:offset + value_len], "utf-8"
                    )
                    offset += value_len
                    attributes.append((name, value))
            tags_inside_ids: frozenset[int] | None = None
            content_size: int | None = None
            if stack and mode is IndexMode.RECURSIVE:
                parent = stack[-1]
                width = parent._child_width
                if width is None:
                    width = parent._child_width = width_for_bound(
                        parent.content_size  # type: ignore[arg-type]
                    )
                children = parent._children
                if children is None:
                    children = self._children_of(parent)
                set_width, support, sets = children
                end = offset + width + set_width
                if end > size:
                    return None
                if width == 1:
                    content_size = buffer[offset]
                else:
                    content_size = int.from_bytes(
                        buffer[offset:offset + width], "little"
                    )
                offset += width
                if set_width == 1:
                    value = buffer[offset]
                else:
                    value = int.from_bytes(buffer[offset:end], "little")
                offset = end
                tags_inside_ids = sets.get(value)
                if tags_inside_ids is None:
                    tags_inside_ids = sets[value] = ids_on_support(value, support)
            elif mode is not IndexMode.NONE:
                # FLAT, and the RECURSIVE root: a bit array over the
                # whole dictionary.
                content_size, offset = decode_varint(buffer, offset)
                universe = len(self._tag_names)
                width = (universe + 7) // 8
                if offset + width > size:
                    return None
                tags_inside_ids = ids_from_bitmap(
                    buffer[offset:offset + width], universe
                )
                offset += width
        except ValueError:
            return None  # starved mid-token
        try:
            tag = self._tag_names[tag_id]
        except IndexError as exc:
            raise SXSFormatError(f"unknown tag id {tag_id}") from exc
        self._pos = offset
        if attributes:
            open_event = OpenEvent(tag, tuple(attributes))
        else:
            open_event = self._plain_opens.get(tag)
            if open_event is None:
                open_event = self._plain_opens[tag] = OpenEvent(tag)
        if content_size is None:
            item = DecodedOpen(open_event, None, None, None)
        else:
            item = DecodedOpen(
                open_event,
                tags_inside_ids,
                content_size,
                self._base + offset + content_size,
            )
        stack.append(item)
        return item

    # -- skipping ----------------------------------------------------------

    def skip_open_subtree(self) -> int:
        """Skip the content of the most recently opened element.

        Must be called right after :meth:`next_item` returned the
        corresponding :class:`DecodedOpen` (before pulling more items).
        Returns the absolute resume offset; the next :meth:`next_item`
        yields the synthetic close.
        """
        if not self._stack:
            raise RuntimeError("no open element to skip")
        frame = self._stack.pop()
        size = frame.content_size
        if size is None:
            raise RuntimeError("stream carries no skip index")
        resume = frame.resume_offset
        assert resume is not None
        if self._base + self._pos != resume - size:
            raise RuntimeError("content already consumed; too late to skip")
        self._skipped += size
        if resume <= self._base + len(self._buffer):
            self._pos = resume - self._base
        else:
            # Drop the buffered part of the region and wait for the
            # resume offset.
            self._buffer.clear()
            self._pos = 0
            self._base = resume
            self._skip_target = resume
        self._pending_close.append(frame.event.tag)
        if not self._stack:
            self._document_done = True
        return resume

    def snapshot_top_frame(self) -> FrameSnapshot:
        """Context of the innermost open element (for refetch seeding)."""
        if not self._stack:
            raise RuntimeError("no open element")
        frame = self._stack[-1]
        if frame.resume_offset is None or frame.tags_inside is None:
            raise RuntimeError("stream carries no skip index")
        size = frame.content_size
        assert size is not None
        return FrameSnapshot(
            tag=frame.event.tag,
            tags_inside=frame.tags_inside,
            content_size=size,
            content_start=frame.resume_offset - size,
        )

    @classmethod
    def for_region(
        cls,
        dictionary: TagDictionary,
        mode: IndexMode,
        tag: str,
        tags_inside_ids: frozenset[int],
        content_size: int,
        content_start: int,
    ) -> "SXSDecoder":
        """A decoder seeded to read one subtree's content region.

        Used by the refetch pass: recursive bitmaps and bounded sizes
        need the parent context, which the snapshot provides.  The
        region ends at the element's own close (``document_done``).
        """
        decoder = cls()
        decoder._use_dictionary(dictionary, mode)
        decoder._stack.append(
            DecodedOpen(
                OpenEvent(tag),
                tags_inside_ids,
                content_size,
                content_start + content_size,
            )
        )
        decoder._base = decoder._origin = content_start
        decoder._skip_target = content_start  # trims pre-region chunk bytes
        return decoder

    @property
    def mode(self) -> IndexMode | None:
        return self._mode

    @property
    def next_needed_offset(self) -> int:
        """Absolute offset of the first byte the decoder still needs."""
        if self._skip_target is not None:
            return self._skip_target
        return self._base + len(self._buffer)

    @property
    def document_done(self) -> bool:
        return self._document_done

    @property
    def depth(self) -> int:
        return len(self._stack)


def decode_document(data: bytes) -> list[Event]:
    """Decode a complete SXS byte string back into events."""
    decoder = SXSDecoder()
    decoder.push(data)
    events: list[Event] = []
    while (item := decoder.next_item()) is not None:
        events.append(item.event)
    if not decoder.document_done:
        raise SXSFormatError("truncated document")
    return events
