"""The on-card access-control applet.

This is the component the whole paper is about: inside the SOE it
decrypts the incoming chunk stream, checks its integrity, runs the
streaming rule evaluator and emits the authorized view -- "the SOE is
in charge of decrypting the input document, checking its integrity and
evaluating the access control policy corresponding to a given
(document, subject) pair" (Section 2.1).

Skip decisions (Section 2.3) happen here: after each decoded ``open``
the applet combines (a) the element's delivery status and (b) the
reachability test of every automaton against the subtree's tag bitmap.
A subtree is skipped when nothing inside can be delivered and no
automaton or value predicate needs its bytes; the proxy is told the
resume offset so the skipped chunks are never transferred, saving both
link time and decryption -- "its decryption and transmission overhead
must not exceed its own benefit".

Pending subtrees (predicates unresolved at the subtree root) follow one
of two strategies, ablated by experiment E10:

* ``PendingStrategy.BUFFER``  -- stream the subtree and let the delivery
  engine hold it in secure RAM until the predicate resolves;
* ``PendingStrategy.REFETCH`` -- if the subtree is otherwise skippable,
  skip it now, remember the byte range, and have the proxy re-send it
  after the close of the predicate scope if the decision resolved to
  PERMIT.  Out-of-order delivery in exchange for near-zero RAM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.compiled import AUTOMATON_STATE_BYTES, PolicyRegistry
from repro.core.decisions import DecisionNode
from repro.core.pipeline import AccessController
from repro.core.delivery import ViewMode, _Record
from repro.core.rules import AccessRule, RuleSet, Sign, Subject
from repro.crypto.container import (
    DocumentHeader,
    IntegrityError,
    open_blob,
    open_chunk,
)
from repro.crypto.keys import DocumentKeys
from repro.errors import DocumentLocked, ReproError
from repro.skipindex.decoder import (
    DecodedClose,
    DecodedOpen,
    SXSDecoder,
)
from repro.smartcard.soe import SecureOperatingEnvironment
from repro.xmlstream.events import Event
from repro.xmlstream.writer import write_string

#: Modeled RAM cost of the streaming decoder state per open level.
DECODER_FRAME_BYTES = 8

#: Secure-RAM tags charged by one evaluation: all of them are returned
#: when the main pass ends, and again when the next session begins (a
#: pass abandoned mid-document never reaches its end).
_SESSION_RAM_TAGS = ("engine", "signs", "pending", "automata", "decoder")


class PendingStrategy(enum.Enum):
    """How pending subtrees are handled (experiment E10)."""

    BUFFER = "buffer"
    REFETCH = "refetch"


class AppletError(ReproError):
    """Protocol misuse or security violation inside the applet."""


@dataclass(slots=True)
class RefetchRequest:
    """A skipped pending subtree the proxy must re-send if permitted."""

    entry_id: int
    start: int  # absolute plaintext offset of the subtree content
    end: int  # absolute plaintext offset just past the subtree
    tag: str
    tags_inside_ids: frozenset[int]
    content_size: int
    auth: DecisionNode = field(repr=False, default=None)  # type: ignore[assignment]
    query: DecisionNode | None = field(repr=False, default=None)
    resolved_permit: bool | None = None


@dataclass(slots=True)
class ChunkResult:
    """What the applet tells the proxy after each chunk."""

    next_offset: int  # next plaintext byte the card needs
    document_done: bool
    output_available: int  # bytes currently in the output buffer


@dataclass(slots=True)
class BatchResult:
    """What the applet tells the proxy after one chunk *batch*.

    One resume offset and one output drain cover the whole batch;
    ``chunks_dropped``/``bytes_dropped`` report the speculative members
    a mid-batch skip directive made useless -- they were on the wire
    already, but the applet discards them before MAC and decryption, so
    the byte-level metrics (``bytes_decrypted``, ``bytes_skipped``)
    stay identical to the sequential path.
    """

    next_offset: int
    document_done: bool
    output_available: int
    chunks_consumed: int
    chunks_dropped: int
    bytes_dropped: int


class CardApplet:
    """One session = one (document, subject, query) evaluation."""

    def __init__(
        self,
        soe: SecureOperatingEnvironment,
        strategy: PendingStrategy = PendingStrategy.BUFFER,
        view_mode: ViewMode = ViewMode.SKELETON,
        registry: PolicyRegistry | None = None,
    ) -> None:
        self.soe = soe
        self.default_strategy = strategy
        self.view_mode = view_mode
        # Per-item engine-charge constants, read once (the cost model
        # is frozen for the card's lifetime).
        cost = soe.cost
        self._engine_costs = (
            cost.cycles_per_event,
            cost.cycles_per_token_check,
            cost.cycles_per_token_advance,
            cost.cycles_per_condition,
        )
        # The compiled-automata store: rules are compiled once when
        # first seen (the paper compiles on rule upload) and reused by
        # every later session with the same policy.  It survives
        # session resets, like the automata stored in EEPROM would.
        self.registry = registry if registry is not None else PolicyRegistry()
        self._reset_session()

    def use_registry(self, registry: PolicyRegistry) -> None:
        """Swap in a shared compiled-policy cache.

        Takes effect on the next session's policy compilation; the
        current session's controller (if any) keeps its automata.
        """
        self.registry = registry

    def _release_session_ram(self) -> None:
        memory = self.soe.memory
        for tag in _SESSION_RAM_TAGS:
            memory.release_all(tag)
        self._decoder_ram = 0

    def _reset_session(self) -> None:
        self._release_session_ram()
        self._subject: str | None = None
        self._groups: frozenset[str] = frozenset()
        self._doc_id: str | None = None
        self._query: str | None = None
        self._strategy = self.default_strategy
        self._keys: DocumentKeys | None = None
        self._header: DocumentHeader | None = None
        self._rules = RuleSet()
        self._controller: AccessController | None = None
        self._decoder: SXSDecoder | None = None
        self._output = bytearray()
        self._refetches: list[RefetchRequest] = []
        self._active_refetch: RefetchRequest | None = None
        self._refetch_decoder: SXSDecoder | None = None
        self._document_done = False
        self._decoder_charged = 0
        # chunk-batch bookkeeping (PUT_CHUNK_BATCH)
        self._batch_consumed = 0
        self._batch_dropped = 0
        self._batch_dropped_bytes = 0
        # metrics
        self.bytes_decrypted = 0
        self.bytes_skipped = 0
        self.output_bytes_total = 0
        self._stats_snapshot = (0, 0, 0, 0)

    # -- session setup -----------------------------------------------------

    def begin_session(
        self,
        doc_id: str,
        subject: str,
        query: str | None = None,
        strategy: PendingStrategy | None = None,
        groups: frozenset[str] = frozenset(),
    ) -> None:
        """Start a session; the document secret must be provisioned.

        ``groups`` lists the roles the subject holds (e.g. a user who
        is both ``doctor`` and ``staff``); rules written for any of
        them apply.  On a real deployment the card would authenticate
        the role claims against certificates stored at
        personalization; the simulation takes them as given.
        """
        self._reset_session()
        if doc_id not in self.soe.keyring:
            raise DocumentLocked(
                f"no key provisioned for document {doc_id!r} "
                f"(subject {subject!r})",
                doc_id=doc_id,
                subject=subject,
            )
        self._doc_id = doc_id
        self._subject = subject
        self._groups = groups
        self._query = query
        if strategy is not None:
            self._strategy = strategy
        self._keys = self.soe.keys_for(doc_id)

    def put_header(self, header: DocumentHeader) -> None:
        """Verify the container header and enforce version freshness."""
        if self._keys is None or self._doc_id is None:
            raise AppletError("no session in progress")
        if header.doc_id != self._doc_id:
            raise IntegrityError("header is for a different document")
        self.soe.charge_mac(32 + len(header.payload()))
        header.verify(self._keys)
        register = self.soe.version_register(self._doc_id)
        if header.version < register:
            raise IntegrityError(
                f"version replay: got {header.version}, register at {register}"
            )
        self.soe.advance_version_register(self._doc_id, header.version)
        self._header = header

    def put_rule_record(self, index: int, version: int, blob: bytes) -> None:
        """Decrypt, verify and compile one access-rule record.

        Records are sealed individually (``doc#rule:<index>``) so the
        card never holds the whole policy in RAM -- each record is
        parsed, compiled into its automaton, and released.
        """
        if self._keys is None or self._header is None:
            raise AppletError("header must be verified before rules")
        self.soe.charge_mac(len(blob))
        self.soe.charge_decrypt(len(blob))
        label = f"{self._doc_id}#rule:{index}"
        plaintext = open_blob(blob, label, version, self._keys)
        text = plaintext.decode("utf-8")
        sign_text, subject, xpath = text.split("|", 2)
        rule = AccessRule.parse(
            Sign(sign_text), subject, xpath, rule_id=f"{self._doc_id}:{index}"
        )
        self._rules.add(rule)

    def _ensure_controller(self) -> AccessController:
        if self._controller is None:
            assert self._subject is not None
            subject_rules = self._rules.for_subject(
                Subject(self._subject, self._groups)
            )
            policy = self.registry.get(subject_rules)
            compiled_query = (
                self.registry.get_query(self._query)
                if self._query is not None
                else None
            )
            self._controller = AccessController(
                policy,
                query=compiled_query,
                mode=self.view_mode,
                memory=self.soe.memory,
            )
            # Charge the compiled automata to secure RAM -- straight
            # from the compiled artifact, no recompilation.
            states = policy.state_count
            if compiled_query is not None:
                states += compiled_query.state_count()
            self.soe.memory.allocate(
                "automata", states * AUTOMATON_STATE_BYTES
            )
            self._decoder = SXSDecoder()
        return self._controller

    # -- document streaming -----------------------------------------------------

    def put_chunk(self, index: int, blob: bytes) -> ChunkResult:
        """Verify, decrypt and process one document chunk."""
        if self._header is None:
            raise AppletError("header must be verified before chunks")
        controller = self._ensure_controller()
        assert self._decoder is not None and self._keys is not None
        self.soe.charge_mac(len(blob))
        plaintext = open_chunk(self._header, index, blob, self._keys)
        self.soe.charge_decrypt(len(blob) - self._header.tag_length)
        self.bytes_decrypted += len(plaintext)
        offset = index * self._header.chunk_size
        self._decoder.push(plaintext, offset)
        self._pump(controller, self._decoder)
        return ChunkResult(
            next_offset=self._decoder.next_needed_offset,
            document_done=self._decoder.document_done,
            output_available=len(self._output),
        )

    # -- chunk batches (PUT_CHUNK_BATCH) ---------------------------------

    def begin_chunk_batch(self) -> None:
        """Open a batch: members follow, one result closes it."""
        if self._header is None:
            raise AppletError("header must be verified before chunks")
        self._batch_consumed = 0
        self._batch_dropped = 0
        self._batch_dropped_bytes = 0

    def put_batch_member(self, index: int, blob: bytes) -> None:
        """Process one batch member, or drop it if a skip outran it.

        A member whose plaintext range lies entirely before the
        decoder's next needed offset (a skip directive raised by an
        earlier member of the same batch) is discarded *before* MAC
        verification and decryption: the sequential path would never
        have transmitted it, so neither accounting path may charge it.
        """
        if self._header is None:
            raise AppletError("header must be verified before chunks")
        if self._decoder is not None:
            chunk_end = (index + 1) * self._header.chunk_size
            if self._decoder.document_done or (
                chunk_end <= self._decoder.next_needed_offset
            ):
                self._batch_dropped += 1
                self._batch_dropped_bytes += len(blob)
                return
        self.put_chunk(index, blob)
        self._batch_consumed += 1

    def end_chunk_batch(self) -> BatchResult:
        """Close the batch; one resume offset for all its members."""
        if self._decoder is None:
            raise AppletError("empty chunk batch")
        return BatchResult(
            next_offset=self._decoder.next_needed_offset,
            document_done=self._decoder.document_done,
            output_available=len(self._output),
            chunks_consumed=self._batch_consumed,
            chunks_dropped=self._batch_dropped,
            bytes_dropped=self._batch_dropped_bytes,
        )

    def _charge_engine_work(self, controller: AccessController) -> None:
        stats = controller.stats
        events, checks, advances, conditions = self._stats_snapshot
        per_event, per_check, per_advance, per_condition = self._engine_costs
        self.soe.charge_cycles(
            (stats.events - events) * per_event
            + (stats.token_checks - checks) * per_check
            + (stats.token_advances - advances) * per_advance
            + (stats.conditions_created - conditions) * per_condition
        )
        self._stats_snapshot = (
            stats.events,
            stats.token_checks,
            stats.token_advances,
            stats.conditions_created,
        )

    def _emit(self, events: list[Event]) -> None:
        if not events:
            return
        text = write_string(events).encode("utf-8")
        self.soe.charge_output(len(text))
        self.output_bytes_total += len(text)
        self._output.extend(text)

    def _pump(self, controller: AccessController, decoder: SXSDecoder) -> None:
        """Drain every decodable item through the evaluator.

        Bound methods are hoisted out of the per-item loop; the
        charge/emit cadence is exactly the seed's (one engine-work
        charge per item), keeping clock totals bit-identical.
        """
        next_item = decoder.next_item
        track = self._track_decoder_ram
        feed = controller.feed
        emit = self._emit
        charge = self._charge_engine_work
        while (item := next_item()) is not None:
            track(decoder.depth)
            emit(feed(item.event))
            if type(item) is DecodedOpen:
                self._maybe_skip(controller, decoder, item)
            charge(controller)
        self.soe.charge_decode(decoder.bytes_decoded - self._decoder_charged)
        self._decoder_charged = decoder.bytes_decoded

    def _track_decoder_ram(self, depth: int) -> None:
        needed = depth * DECODER_FRAME_BYTES
        if needed > self._decoder_ram:
            self.soe.memory.allocate("decoder", needed - self._decoder_ram)
            self._decoder_ram = needed

    def _maybe_skip(
        self,
        controller: AccessController,
        decoder: SXSDecoder,
        item: DecodedOpen,
    ) -> None:
        """Apply the skip rule of Section 2.3 to a freshly opened subtree."""
        if item.resume_offset is None or item.tags_inside is None:
            return  # stream carries no skip index
        kind, _ = controller.current_status()
        if kind == _Record.DELIVER:
            return  # content must be transferred anyway
        if kind == _Record.PENDING and self._strategy is not PendingStrategy.REFETCH:
            return
        if not controller.subtree_is_irrelevant(item.tags_inside):
            return
        try:
            snapshot = decoder.snapshot_top_frame()
        except RuntimeError:
            return
        if kind == _Record.PENDING:
            auth, query = controller.current_decision_nodes()
            entry = RefetchRequest(
                entry_id=len(self._refetches),
                start=snapshot.content_start,
                end=snapshot.content_start + snapshot.content_size,
                tag=snapshot.tag,
                tags_inside_ids=snapshot.tags_inside,
                content_size=snapshot.content_size,
                auth=auth,
                query=query,
            )
            self._refetches.append(entry)
        resume = decoder.skip_open_subtree()
        self.bytes_skipped += resume - snapshot.content_start

    def end_document(self) -> list[RefetchRequest]:
        """Finish the main pass; return the refetches resolved to PERMIT."""
        if self._controller is None or self._decoder is None:
            raise AppletError("no document streamed")
        if not self._decoder.document_done:
            raise IntegrityError("document truncated (structure incomplete)")
        self._emit(self._controller.finish())
        self._document_done = True
        # Refetches replay bytes against the recorded decision nodes;
        # the evaluator's working memory is no longer needed.
        self._release_session_ram()
        granted: list[RefetchRequest] = []
        for entry in self._refetches:
            kind, _ = self._controller.status_of(entry.auth, entry.query)
            entry.resolved_permit = kind == _Record.DELIVER
            if entry.resolved_permit:
                granted.append(entry)
        return granted

    # -- refetch pass -----------------------------------------------------------

    def begin_refetch(self, entry_id: int) -> None:
        """Start re-receiving one granted pending subtree."""
        if not self._document_done:
            raise AppletError("refetch only after the main pass")
        entry = self._refetches[entry_id]
        if not entry.resolved_permit:
            raise AppletError("subtree was not granted")
        assert self._decoder is not None and self._decoder.dictionary is not None
        self._active_refetch = entry
        self._refetch_decoder = SXSDecoder.for_region(
            self._decoder.dictionary,
            self._decoder.mode,
            tag=entry.tag,
            tags_inside_ids=entry.tags_inside_ids,
            content_size=entry.content_size,
            content_start=entry.start,
        )

    def put_refetch_chunk(self, index: int, blob: bytes) -> ChunkResult:
        """Process one chunk of the refetched byte range."""
        if self._refetch_decoder is None or self._header is None:
            raise AppletError("no refetch in progress")
        assert self._keys is not None and self._active_refetch is not None
        self.soe.charge_mac(len(blob))
        plaintext = open_chunk(self._header, index, blob, self._keys)
        self.soe.charge_decrypt(len(blob) - self._header.tag_length)
        self.bytes_decrypted += len(plaintext)
        decoder = self._refetch_decoder
        decoder.push(plaintext, index * self._header.chunk_size)
        events: list[Event] = []
        while (item := decoder.next_item()) is not None:
            if decoder.depth == 0 and isinstance(item, DecodedClose):
                break  # the subtree's own close: the shell already has it
            events.append(item.event)
        self._emit(events)
        done = decoder.document_done
        next_offset = 0 if done else decoder.next_needed_offset
        if done:
            self._active_refetch = None
            self._refetch_decoder = None
        return ChunkResult(
            next_offset=next_offset,
            document_done=done,
            output_available=len(self._output),
        )

    # -- output -------------------------------------------------------------------

    def read_output(self, limit: int = 256) -> bytes:
        """Drain up to ``limit`` bytes of authorized output.

        One copy, not two: the seed sliced the bytearray (copy) and
        re-wrapped it in ``bytes`` (copy).  The temporary view is
        released before ``del`` resizes the buffer.
        """
        piece = bytes(memoryview(self._output)[:limit])
        del self._output[:limit]
        return piece

    @property
    def output_pending(self) -> int:
        return len(self._output)

    @property
    def engine_stats(self):
        """The session's evaluator counters (``None`` pre-controller)."""
        if self._controller is None:
            return None
        return self._controller.stats

    @property
    def max_pending_bytes(self) -> int:
        if self._controller is None:
            return 0
        return self._controller.max_pending_bytes
