"""Subscriber side of the push scenario.

Each subscriber owns a card with its own rules and drives it through a
:class:`~repro.terminal.proxy.CardProxy` -- the same session driver a
pull uses, with no DSP behind it.  What is specific to push lives
here: reacting to broadcast frames, dropping every chunk the card's
skip directive already jumped past *before* the 2 KB/s card link
(which is where the skip index pays off in push mode), batching up to
``apdu_batch`` frames per exchange, and recording a card refusal
instead of raising it through the publisher's broadcast loop.

There is no backchannel, so pending subtrees must use the BUFFER
strategy (REFETCH would require asking the publisher to re-send).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.compiled import PolicyRegistry
from repro.core.delivery import ViewMode
from repro.errors import ReproError, TransportError
from repro.smartcard.applet import PendingStrategy
from repro.smartcard.card import SmartCard, decode_header
from repro.smartcard.resources import LinkModel, SessionMetrics, SimClock
from repro.terminal.proxy import CardProxy, ProxyError
from repro.terminal.transfer import TransferPolicy


@dataclass(slots=True)
class SubscriberState:
    """Progress of one subscriber through the broadcast."""

    next_needed_offset: int = 0
    document_done: bool = False
    #: Why the session failed: the card's refusal as the
    #: :class:`~repro.terminal.proxy.ProxyError` subclass matching its
    #: status word, or a :class:`TransportError` for a truncated stream.
    error: ReproError | None = None
    output: bytearray = field(default_factory=bytearray)

    @property
    def failed(self) -> str | None:
        return None if self.error is None else str(self.error)

    @property
    def failed_sw(self) -> int | None:
        """The card's status word, when the card refused."""
        error = self.error
        return error.status if isinstance(error, ProxyError) else None


class Subscriber:
    """One community member listening to the broadcast."""

    def __init__(
        self,
        name: str,
        card: SmartCard,
        rules_version: int,
        rule_records: list[bytes],
        link: LinkModel | None = None,
        clock: SimClock | None = None,
        view_mode: ViewMode = ViewMode.SKELETON,
        registry: PolicyRegistry | None = None,
        transfer: TransferPolicy | None = None,
        groups: frozenset[str] = frozenset(),
    ) -> None:
        self.name = name
        #: Roles the subscriber holds; rules written for any of them
        #: apply.  Same-tier subscribers sharing a group (and a
        #: registry) therefore share ONE compiled policy -- their
        #: effective sub-policies fingerprint identically.
        self.groups = groups
        self.card = card
        if registry is not None:
            # A fleet of simulated subscribers may share one compiled-
            # policy cache: subscribers on the same tier carry the same
            # rules, and carousel cycles repeat the same session, so
            # the automata are compiled once for the whole fleet.
            card.use_registry(registry)
        #: There is no DSP in push mode, so only the APDU half of the
        #: policy applies: up to ``apdu_batch`` broadcast chunks ride
        #: one PUT_CHUNK_BATCH exchange (one resume offset, one drain).
        self.proxy = CardProxy(
            card,
            link=link,
            clock=clock or SimClock(),
            transfer=transfer,
            link_component=f"link:{name}",
        )
        self.clock = self.proxy.clock
        self.transfer = self.proxy.transfer
        self.metrics = SessionMetrics()
        self._rules_version = rules_version
        self._rule_records = rule_records
        self._view_mode = view_mode
        self.state = SubscriberState()
        self._chunk_size = 0
        self._ended = False
        self._pending_batch: list[tuple[int, bytes]] = []
        #: Taken at the session's header; the clock snapshot is dropped
        #: once the session's metrics are closed.
        self._clock_snapshot: dict[str, float] = {}
        self._cycles_snapshot = 0.0

    # -- broadcast listener -------------------------------------------------------

    def on_frame(self, kind: str, index: int, payload: bytes) -> None:
        """Channel callback; drops frames the card no longer needs."""
        if self.state.error is not None:
            return
        if self.state.document_done and self._ended:
            # A completed session ignores further carousel cycles.
            return
        try:
            if kind == "header":
                self._on_header(payload)
            elif kind == "chunk":
                self._on_chunk(index, payload)
            elif kind == "end":
                self._on_end()
        except ProxyError as exc:
            # No exception channel runs back across a broadcast: the
            # refusal is recorded and raised again by require_ok().
            self.state.error = exc

    def _on_header(self, payload: bytes) -> None:
        header = decode_header(payload)
        self._chunk_size = header.chunk_size
        self._clock_snapshot = self.clock.snapshot()
        self._cycles_snapshot = self.card.soe.cycles_used
        proxy, metrics = self.proxy, self.metrics
        proxy.select(metrics)
        proxy._begin(
            header.doc_id,
            self.name,
            None,
            PendingStrategy.BUFFER,
            self._view_mode,
            self.groups,
            metrics,
        )
        proxy._put_header(payload, metrics)
        proxy._send_rules(self._rules_version, self._rule_records, metrics)

    def _on_chunk(self, index: int, payload: bytes) -> None:
        if self.state.document_done:
            return
        chunk_end = (index + 1) * self._chunk_size
        if chunk_end <= self.state.next_needed_offset:
            # The card already skipped past this chunk: drop it at the
            # terminal, before the card link.  (With batching the resume
            # offset is only as fresh as the last flush; frames it could
            # not rule out are dropped undecrypted on the card instead.)
            self.metrics.chunks_skipped += 1
            return
        self._pending_batch.append((index, payload))
        if len(self._pending_batch) >= self.transfer.apdu_batch:
            self._flush_batch()

    def _flush_batch(self) -> None:
        """Push the accumulated frames through one batch exchange."""
        batch, self._pending_batch = self._pending_batch, []
        if not batch:
            return
        outcome = self.proxy._transmit_batch(
            batch, self.metrics, self.transfer, self.state.output
        )
        self.state.next_needed_offset = outcome.next_offset
        if outcome.done:
            self.state.document_done = True

    def _on_end(self) -> None:
        self._flush_batch()
        if not self.state.document_done:
            self.state.error = TransportError(
                "stream ended before document completed", subject=self.name
            )
            return
        self.proxy._end_document(self.metrics, self.state.output)
        self._ended = True
        self.proxy._fill_card_stats(
            self.metrics, self._clock_snapshot, self._cycles_snapshot
        )
        self._clock_snapshot = {}

    # -- results --------------------------------------------------------------------

    @property
    def view(self) -> str:
        """The authorized view received so far."""
        return self.state.output.decode("utf-8")

    @property
    def ok(self) -> bool:
        return self.state.error is None and self.state.document_done

    def require_ok(self) -> None:
        """Raise the typed error behind a failed or truncated session.

        Push mode records card refusals (there is no exception channel
        across a broadcast); this raises the recorded error -- the same
        :mod:`repro.errors` taxonomy a pull raises -- for callers that
        want one ``except`` ladder across pull and push.
        """
        if self.ok:
            return
        error = self.state.error or TransportError(
            "stream ended before document completed"
        )
        error.subject = self.name
        raise error
