"""The terminal-side proxy: XML API above, APDUs and DSP calls below.

The proxy owns the *mechanics* of a session: fetching encrypted chunks
from the DSP, framing them into APDUs, honouring the card's skip
directives (it simply does not fetch or transmit skipped chunks -- that
is where the bandwidth saving of the skip index materializes), draining
the card's authorized output, and replaying byte ranges for granted
refetches.  It never sees a decryption key: everything through here is
ciphertext or already-authorized output.

Chunk movement is planned by a
:class:`~repro.terminal.transfer.TransferPolicy`: the proxy keeps a
speculative prefetch window of ``window`` chunks ahead of the card's
cursor (one ranged DSP request per window refill) and packs up to
``apdu_batch`` chunks into one ``PUT_CHUNK_BATCH`` exchange, so the
card answers with one resume offset and one output drain per batch.
Speculation interacts with the skip index: when a skip directive lands
mid-window, prefetched chunks past the resume offset are discarded
before the card link and charged to ``SessionMetrics.bytes_wasted``
(chunks already inside the in-flight batch are dropped undecrypted on
the card and charged the same way).  ``window=1, apdu_batch=1`` is the
paper's original sequential transport, byte for byte.
"""

from __future__ import annotations

import codecs
import struct
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.delivery import ViewMode
from repro.errors import ResourceExhausted, TamperDetected, TransportError
from repro.smartcard.apdu import (
    BatchOutcome,
    CommandAPDU,
    Instruction,
    ResponseAPDU,
    StatusWord,
    transmit_chunk_batch,
)
from repro.smartcard.applet import PendingStrategy
from repro.smartcard.card import SmartCard, encode_groups, encode_header
from repro.smartcard.resources import LinkModel, SessionMetrics, SimClock
from repro.dsp.client import DSPClient
from repro.terminal.transfer import TransferPolicy

_FLAG_HAS_QUERY = 0x01
_FLAG_REFETCH = 0x02
_FLAG_PRUNE = 0x04


class ProxyError(TransportError):
    """A session failed (card refused, integrity violation, ...)."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class CardTampered(ProxyError, TamperDetected):
    """The card reported tamper evidence (``0x6982``) mid-session."""


class CardOutOfResources(ProxyError, ResourceExhausted):
    """The card ran out of secure RAM (``0x6581``) mid-session."""


def _proxy_error(message: str, status: int) -> ProxyError:
    """The taxonomy-precise ProxyError for a card status word."""
    if status == StatusWord.SECURITY_STATUS_NOT_SATISFIED:
        return CardTampered(message, status=status)
    if status == StatusWord.MEMORY_FAILURE:
        return CardOutOfResources(message, status=status)
    return ProxyError(message, status=status)


@dataclass(slots=True)
class ViewPiece:
    """One incremental slice of an authorized view.

    ``kind`` is ``"view"`` for in-order slices of the main pass and
    ``"fragment"`` for a refetched pending subtree.  ``position`` keys
    document order: for fragments it is the subtree's absolute
    plaintext offset; for main-view slices it is the running character
    offset inside the view.  ``entry_id`` is set on fragments only.
    """

    kind: str
    text: str
    position: int
    entry_id: int | None = None


@dataclass(slots=True)
class QueryOutcome:
    """Result of one pull session through the card."""

    xml: str
    fragments: list[tuple[int, str]] = field(default_factory=list)
    metrics: SessionMetrics = field(default_factory=SessionMetrics)
    #: The container and rules versions this view was pulled under --
    #: the validators a view cache stores alongside the entry.  The
    #: proxy fills them as soon as the header and rules arrive;
    #: ``None`` only on outcomes constructed outside a pull.
    doc_version: "int | None" = None
    rules_version: "int | None" = None


class CardProxy:
    """Drives one smart card against one DSP."""

    def __init__(
        self,
        card: SmartCard,
        dsp: DSPClient,
        link: LinkModel | None = None,
        clock: SimClock | None = None,
        transfer: TransferPolicy | None = None,
    ) -> None:
        self.card = card
        self.dsp = dsp
        self.link = link or LinkModel()
        self.clock = clock or dsp.clock
        self.transfer = transfer or TransferPolicy()
        self._selected = False

    # -- link ------------------------------------------------------------

    def _transmit(
        self, command: CommandAPDU, metrics: SessionMetrics, context: str
    ) -> ResponseAPDU:
        """Send one APDU over the 2 KB/s link and account for it."""
        response = self.card.process(command)
        nbytes = command.wire_size + response.wire_size
        metrics.apdu_count += 1
        metrics.bytes_to_card += command.wire_size
        metrics.bytes_from_card += response.wire_size
        self.clock.add("link", self.link.apdu_overhead_seconds)
        self.clock.add("link", self.link.transfer_seconds(nbytes))
        if not response.ok:
            raise _proxy_error(
                f"card error {response.sw:#06x} during {context}",
                response.sw,
            )
        return response

    def select(self, metrics: SessionMetrics | None = None) -> None:
        metrics = metrics or SessionMetrics()
        self._transmit(
            CommandAPDU(Instruction.SELECT, data=b"repro.applet"),
            metrics,
            "select",
        )
        self._selected = True

    def provision_key(self, doc_id: str, secret: bytes) -> None:
        """Install a document secret over the (simulated) secure channel."""
        metrics = SessionMetrics()
        if not self._selected:
            self.select(metrics)
        doc = doc_id.encode("utf-8")
        self._transmit(
            CommandAPDU(
                Instruction.ADMIN_PROVISION_KEY,
                data=bytes([len(doc)]) + doc + secret,
            ),
            metrics,
            "provision key",
        )

    # -- output draining -----------------------------------------------------

    def _drain_output(
        self, metrics: SessionMetrics, sink: bytearray, last: ResponseAPDU
    ) -> None:
        response = last
        while (response.sw & 0xFF00) == 0x6100:
            response = self._transmit(
                CommandAPDU(Instruction.GET_OUTPUT), metrics, "get output"
            )
            sink.extend(response.data)
            metrics.output_bytes += len(response.data)

    # -- pull session ------------------------------------------------------------

    def stream_query(
        self,
        doc_id: str,
        subject: str,
        query: str | None = None,
        strategy: PendingStrategy = PendingStrategy.BUFFER,
        view_mode: ViewMode = ViewMode.SKELETON,
        groups: frozenset[str] = frozenset(),
        outcome: QueryOutcome | None = None,
        transfer: TransferPolicy | None = None,
    ) -> Iterator[ViewPiece]:
        """Run a pull session incrementally, yielding view slices.

        Each :class:`ViewPiece` is yielded as soon as the card's output
        drain produces it, *before* later chunks are fetched from the
        DSP -- consuming the first piece therefore costs only the
        transfers up to the first authorized output.  ``outcome`` (if
        given) is filled in place: the full view text after the main
        pass, fragments as they are refetched, and the session metrics
        once the generator is exhausted.  The operation sequence does
        not depend on how the stream is consumed, so clocks and metrics
        are bit-for-bit the same either way.  ``transfer`` overrides the
        proxy's transport plan for this session only.
        """
        if outcome is None:
            outcome = QueryOutcome(xml="")
        policy = transfer if transfer is not None else self.transfer
        metrics = outcome.metrics
        clock_snapshot = self.clock.snapshot()
        cycles_snapshot = self.card.soe.cycles_used
        if not self._selected:
            self.select(metrics)
        self._begin(doc_id, subject, query, strategy, view_mode, groups, metrics)
        header = self.dsp.get_header(doc_id)
        encoded_header = encode_header(header)
        metrics.dsp_requests += 1
        metrics.bytes_from_dsp += len(encoded_header)
        self._transmit(
            CommandAPDU(Instruction.PUT_HEADER, data=encoded_header),
            metrics,
            "put header",
        )
        outcome.doc_version = header.version
        outcome.rules_version = self._send_rules(doc_id, metrics)
        output = bytearray()
        chunk_cache: dict[int, bytes] = {}
        decoder = codecs.getincrementaldecoder("utf-8")()
        emitted_bytes = 0
        emitted_chars = 0
        for __ in self._stream_document(
            doc_id, header, metrics, output, chunk_cache, policy
        ):
            if len(output) > emitted_bytes:
                text = decoder.decode(bytes(output[emitted_bytes:]))
                emitted_bytes = len(output)
                if text:
                    yield ViewPiece("view", text, position=emitted_chars)
                    emitted_chars += len(text)
        tail = decoder.decode(b"", final=True)
        if tail:
            yield ViewPiece("view", tail, position=emitted_chars)
        outcome.xml = output.decode("utf-8")
        for entry_id, start, text in self._run_refetches(
            doc_id, header, metrics, chunk_cache, policy
        ):
            outcome.fragments.append((entry_id, text))
            yield ViewPiece("fragment", text, position=start, entry_id=entry_id)
        self._fill_card_stats(metrics)
        metrics.clock = self.clock.since(clock_snapshot)
        metrics.card_cycles = self.card.soe.cycles_used - cycles_snapshot

    def _begin(
        self,
        doc_id: str,
        subject: str,
        query: str | None,
        strategy: PendingStrategy,
        view_mode: ViewMode,
        groups: frozenset[str],
        metrics: SessionMetrics,
    ) -> None:
        # A new session must never see the previous session's pending
        # refetch entries -- a pull abandoned mid-window leaves them
        # set, and replaying them against a different document would
        # splice foreign fragments into the view.
        self._refetch_entries: list[tuple[int, int, int]] = []
        flags = 0
        payload = b""
        if query is not None:
            flags |= _FLAG_HAS_QUERY
            raw = query.encode("utf-8")
            payload = struct.pack(">H", len(raw)) + raw
        payload += encode_groups(groups)
        if strategy is PendingStrategy.REFETCH:
            flags |= _FLAG_REFETCH
        if view_mode is ViewMode.PRUNE:
            flags |= _FLAG_PRUNE
        doc = doc_id.encode("utf-8")
        subj = subject.encode("utf-8")
        data = (
            bytes([flags, len(doc)])
            + doc
            + bytes([len(subj)])
            + subj
            + payload
        )
        self._transmit(
            CommandAPDU(Instruction.BEGIN_SESSION, data=data),
            metrics,
            "begin session",
        )

    def _send_rules(self, doc_id: str, metrics: SessionMetrics) -> int:
        version, records = self.dsp.get_rules(doc_id)
        metrics.dsp_requests += 1
        metrics.bytes_from_dsp += sum(len(r) for r in records)
        for index, record in enumerate(records):
            data = struct.pack(">Q", version) + record
            self._transmit(
                CommandAPDU(
                    Instruction.PUT_RULES,
                    p1=index >> 8,
                    p2=index & 0xFF,
                    data=data,
                ),
                metrics,
                f"put rule {index}",
            )
        return version

    # -- chunk fetch planning ------------------------------------------------

    def _fetch_range(
        self,
        doc_id: str,
        start: int,
        count: int,
        metrics: SessionMetrics,
        chunk_cache: dict[int, bytes],
        policy: TransferPolicy,
    ) -> list[bytes]:
        """One DSP round trip for ``count`` consecutive chunks."""
        try:
            if count == 1 and policy.window == 1:
                blobs = [self.dsp.get_chunk(doc_id, start)]
            else:
                blobs = self.dsp.get_chunk_range(doc_id, start, count)
        except (IndexError, KeyError) as exc:
            raise ProxyError(
                f"DSP could not serve chunks {start}..{start + count - 1} "
                f"of {doc_id!r} (truncated document?)"
            ) from exc
        metrics.dsp_requests += 1
        for offset, blob in enumerate(blobs):
            chunk_cache[start + offset] = blob
            metrics.bytes_from_dsp += len(blob)
        return blobs

    @staticmethod
    def _missing_runs(start: int, stop: int, have) -> list[tuple[int, int]]:
        """Consecutive ``(start, count)`` runs of [start, stop) not in
        ``have`` -- the holes a ranged fetch must fill."""
        runs: list[tuple[int, int]] = []
        index = start
        while index < stop:
            if index in have:
                index += 1
                continue
            run_end = index
            while run_end < stop and run_end not in have:
                run_end += 1
            runs.append((index, run_end - index))
            index = run_end
        return runs

    def _fill_window(
        self,
        doc_id: str,
        header,
        cursor: int,
        prefetched: dict[int, bytes],
        metrics: SessionMetrics,
        chunk_cache: dict[int, bytes],
        policy: TransferPolicy,
    ) -> None:
        """Top the prefetch window up to ``window`` chunks past cursor.

        Missing stretches are fetched run by run, each run one ranged
        DSP request -- after a skip the window may already hold its
        leading chunks, so only the holes cost a round trip.
        """
        end = min(cursor + policy.window, header.chunk_count)
        for start, count in self._missing_runs(cursor, end, prefetched):
            blobs = self._fetch_range(
                doc_id, start, count, metrics, chunk_cache, policy
            )
            for offset, blob in enumerate(blobs):
                prefetched[start + offset] = blob

    # -- document streaming --------------------------------------------------

    def _transmit_batch(
        self,
        batch: list[tuple[int, bytes]],
        metrics: SessionMetrics,
        policy: TransferPolicy,
    ) -> BatchOutcome:
        """Send one chunk batch through the shared batch protocol."""
        first, last = batch[0][0], batch[-1][0]
        if len(batch) == 1 and policy.apdu_batch == 1:
            # Degenerate policy: the paper's original PUT_CHUNK path.
            index, blob = batch[0]
            response = self._transmit(
                CommandAPDU(
                    Instruction.PUT_CHUNK,
                    p1=index >> 8,
                    p2=index & 0xFF,
                    data=blob,
                ),
                metrics,
                f"put chunk {index}",
            )
            next_offset, done = struct.unpack(">QB", response.data[:9])
            return BatchOutcome(
                response=response,
                completed=True,
                next_offset=next_offset,
                done=bool(done),
                consumed=1,
            )
        # _transmit raises ProxyError on any refused frame, so the
        # outcome always comes back completed here.
        return transmit_chunk_batch(
            lambda command: self._transmit(
                command, metrics, f"put chunk batch {first}..{last}"
            ),
            batch,
            self.link.max_command_payload,
        )

    def _stream_document(
        self,
        doc_id: str,
        header,
        metrics: SessionMetrics,
        output: bytearray,
        chunk_cache: dict[int, bytes],
        policy: TransferPolicy,
    ) -> Iterator[None]:
        """Drive the main pass; yields after every output drain.

        A generator so :meth:`stream_query` can surface freshly drained
        output between chunk batches -- the caller decides whether to
        keep pulling.
        """
        prefetched: dict[int, bytes] = {}
        index = 0
        while index < header.chunk_count:
            self._fill_window(
                doc_id, header, index, prefetched, metrics, chunk_cache,
                policy,
            )
            batch_end = min(index + policy.apdu_batch, header.chunk_count)
            batch = [(i, prefetched.pop(i)) for i in range(index, batch_end)]
            outcome = self._transmit_batch(batch, metrics, policy)
            metrics.chunks_sent += len(batch) - outcome.dropped
            metrics.chunks_wasted += outcome.dropped
            metrics.bytes_wasted += outcome.dropped_bytes
            output.extend(outcome.piggyback)
            metrics.output_bytes += len(outcome.piggyback)
            self._drain_output(metrics, output, outcome.response)
            yield None
            if outcome.done:
                break
            last_sent = batch[-1][0]
            next_index = max(
                last_sent + 1, outcome.next_offset // header.chunk_size
            )
            # Reconcile the window with the skip directive: prefetched
            # chunks the card jumped over are discarded before the card
            # link (wasted fetch); never-fetched ones are pure savings.
            for jumped in range(last_sent + 1, next_index):
                blob = prefetched.pop(jumped, None)
                if blob is None:
                    metrics.chunks_skipped += 1
                else:
                    metrics.chunks_wasted += 1
                    metrics.bytes_wasted += len(blob)
            index = next_index
        # A document that completed early strands the window's tail.
        for blob in prefetched.values():
            metrics.chunks_wasted += 1
            metrics.bytes_wasted += len(blob)
        response = self._transmit(
            CommandAPDU(Instruction.END_DOCUMENT), metrics, "end document"
        )
        self._refetch_entries = self._parse_refetch_pages(response, metrics)
        self._drain_output(metrics, output, response)
        yield None

    def _parse_refetch_pages(
        self, first: ResponseAPDU, metrics: SessionMetrics
    ) -> list[tuple[int, int, int]]:
        total = struct.unpack(">H", first.data[:2])[0]
        entries: list[tuple[int, int, int]] = []
        data = first.data[2:]
        page = 0
        while True:
            for position in range(0, len(data), 18):
                entry_id, start, end = struct.unpack(
                    ">HQQ", data[position:position + 18]
                )
                entries.append((entry_id, start, end))
            if len(entries) >= total:
                return entries
            page += 1
            response = self._transmit(
                CommandAPDU(Instruction.END_DOCUMENT, p1=page),
                metrics,
                f"end document page {page}",
            )
            data = response.data[2:]

    def _run_refetches(
        self,
        doc_id: str,
        header,
        metrics: SessionMetrics,
        chunk_cache: dict[int, bytes],
        policy: TransferPolicy,
    ) -> Iterator[tuple[int, int, str]]:
        """Replay granted pending subtrees; yields per settled fragment.

        Each yield is ``(entry_id, start, text)`` where ``start`` is
        the subtree's absolute plaintext offset -- entry ids are
        assigned at skip time during the sequential main pass, so both
        keys increase in document order.
        """
        for entry_id, start, end in getattr(self, "_refetch_entries", []):
            metrics.refetch_count += 1
            sink = bytearray()
            self._transmit(
                CommandAPDU(
                    Instruction.BEGIN_REFETCH,
                    p1=entry_id >> 8,
                    p2=entry_id & 0xFF,
                ),
                metrics,
                f"begin refetch {entry_id}",
            )
            first_chunk = start // header.chunk_size
            last_chunk = (end - 1) // header.chunk_size
            self._fetch_refetch_range(
                doc_id, first_chunk, last_chunk, metrics, chunk_cache, policy
            )
            for index in range(first_chunk, last_chunk + 1):
                blob = chunk_cache[index]
                metrics.refetch_bytes += len(blob)
                response = self._transmit(
                    CommandAPDU(
                        Instruction.PUT_REFETCH_CHUNK,
                        p1=index >> 8,
                        p2=index & 0xFF,
                        data=blob,
                    ),
                    metrics,
                    f"refetch chunk {index}",
                )
                __, done = struct.unpack(">QB", response.data[:9])
                self._drain_output(metrics, sink, response)
                if done:
                    break
            yield entry_id, start, sink.decode("utf-8")

    def _fetch_refetch_range(
        self,
        doc_id: str,
        first_chunk: int,
        last_chunk: int,
        metrics: SessionMetrics,
        chunk_cache: dict[int, bytes],
        policy: TransferPolicy,
    ) -> None:
        """Fetch the cache's holes in [first, last], run by ranged run."""
        for start, count in self._missing_runs(
            first_chunk, last_chunk + 1, chunk_cache
        ):
            self._fetch_range(
                doc_id, start, count, metrics, chunk_cache, policy
            )

    def _fill_card_stats(self, metrics: SessionMetrics) -> None:
        soe = self.card.soe
        metrics.ram_high_water = soe.memory.high_water
        metrics.card_cycles = soe.cycles_used
        metrics.bytes_decrypted = self.card.applet.bytes_decrypted
        metrics.bytes_skipped = self.card.applet.bytes_skipped
        metrics.max_pending_bytes = self.card.applet.max_pending_bytes
        stats = self.card.applet.engine_stats
        if stats is not None:
            metrics.events_pumped = stats.events_pumped
            metrics.tokens_touched = stats.tokens_touched
            metrics.product_states_interned = stats.product_states_interned
