"""Construction of the authorized output stream.

The delivery engine turns per-element decisions into the *authorized
view* of the document, coping with decisions that are still pending.

View semantics (mirrored exactly by ``reference.py``, the test oracle):

* an element whose decision is PERMIT (and which is query-selected) is
  delivered in full: tag, attributes and its direct text;
* an element whose decision is DENY is not delivered, **but** if some
  descendant is delivered the element appears as a *skeleton* -- bare
  tag, no attributes, no text -- so that authorized parts keep their
  position in the hierarchy (``ViewMode.SKELETON``, the default).
  ``ViewMode.PRUNE`` instead re-parents delivered descendants under the
  nearest delivered ancestor;
* a pending element buffers its output in a *hole* until its conditions
  resolve -- this is the paper's "pending" delivery, and the buffered
  bytes are exactly what experiment E10 measures.

Implementation note: denied elements and pending elements share one
mechanism.  Both become :class:`_Hole` buffers in their parent's output;
a denied element's hole is born already resolved to DENY ("emit a
skeleton iff any real content ends up inside"), a pending element's hole
resolves when its conditions do.  Holes are created lazily -- a denied
element with no delivered descendant never allocates one.

Output order is document order: a hole blocks the emission of
everything behind it until it resolves (all holes resolve by the close
of the document root at the latest).
"""

from __future__ import annotations

import enum
from typing import Union

from repro.core.conditions import Condition
from repro.core.decisions import RESOLVED_DENY, RESOLVED_PERMIT, DecisionNode
from repro.core.rules import Sign
from repro.xmlstream.events import (
    CloseEvent,
    Event,
    OpenEvent,
    ValueEvent,
    event_size,
)


class ViewMode(enum.Enum):
    """How denied ancestors of delivered content are rendered."""

    SKELETON = "skeleton"
    PRUNE = "prune"


#: Shared empty condition set for resolved statuses.
_NO_CONDITIONS: frozenset[Condition] = frozenset()


class _SelfText:
    """Text of a pending element; kept only if it resolves to PERMIT."""

    __slots__ = ("event",)

    def __init__(self, event: ValueEvent) -> None:
        self.event = event


class _Hole:
    """Buffered, possibly undecided output of one element.

    Contributes to its parent buffer once (a) the element has closed,
    (b) its decision resolved, and (c) for a DENY resolution, emptiness
    is decidable.
    """

    __slots__ = ("open_event", "items", "closed", "final_sign", "_memory", "charged")

    def __init__(
        self, open_event: OpenEvent, memory, final_sign: Sign | None = None
    ) -> None:
        self.open_event = open_event
        self.items: list[Item] = []
        self.closed = False
        self.final_sign = final_sign
        self._memory = memory
        self.charged = 0

    def append(self, item: "Item") -> None:
        self.items.append(item)
        if self._memory is not None:
            nbytes = _item_bytes(item)
            self.charged += nbytes
            self._memory.allocate("pending", nbytes)

    def discharge(self) -> None:
        """Release the modeled RAM held by this hole's buffered items."""
        if self._memory is not None and self.charged:
            self._memory.release("pending", self.charged)
            self.charged = 0


Item = Union[Event, _SelfText, _Hole]


def _item_bytes(item: "Item") -> int:
    if isinstance(item, _SelfText):
        return len(item.event.text)
    if isinstance(item, _Hole):
        return 0  # nested holes charge their own items
    return event_size(item)


class _Sink:
    """Destination for one element's delivery items.

    ``deliver`` sinks forward to the parent buffer directly.  ``deny``
    sinks stay silent until content flows through them; then:

    * plain content materializes the bare skeleton tag eagerly and the
      sink becomes a pass-through -- delivered descendants of denied
      ancestors stream with **zero** buffering;
    * a pending hole arriving first forces a buffered *shell* (a hole
      pre-resolved to DENY), because whether the skeleton appears at
      all depends on whether the pending content materializes.
    """

    __slots__ = ("_target", "_parent", "_shell_open", "_memory", "shell", "materialized")

    def __init__(
        self,
        target: "list[Item] | _Hole | None" = None,
        parent: "_Sink | None" = None,
        shell_open: OpenEvent | None = None,
        memory=None,
        prune: bool = False,
    ) -> None:
        self._target = target
        self._parent = parent
        self._shell_open = shell_open if not prune else None
        self._memory = memory
        self.shell: _Hole | None = None
        self.materialized = prune and shell_open is not None

    def append(self, item: Item) -> None:
        parent = self._parent
        if parent is None:
            self._target.append(item)  # type: ignore[union-attr]
            return
        if self._shell_open is not None and not self.materialized and self.shell is None:
            if isinstance(item, _Hole):
                self.shell = _Hole(
                    self._shell_open, self._memory, final_sign=Sign.DENY
                )
                parent.append(self.shell)
            else:
                self.materialized = True
                parent.append(OpenEvent(self._shell_open.tag))
        if self.shell is not None:
            self.shell.append(item)
        else:
            parent.append(item)


class _Record:
    """Per-open-element delivery state."""

    DELIVER = "deliver"
    DROP = "drop"
    PENDING = "pending"

    __slots__ = ("kind", "sink", "hole", "open_event")

    def __init__(self, kind: str, sink: _Sink, open_event: OpenEvent) -> None:
        self.kind = kind
        self.sink = sink
        self.hole: _Hole | None = None
        self.open_event = open_event


_DELIVERED = (_Record.DELIVER, _NO_CONDITIONS)
_DROPPED = (_Record.DROP, _NO_CONDITIONS)


class DeliveryEngine:
    """Streams the authorized view, buffering only undecided regions."""

    def __init__(self, mode: ViewMode = ViewMode.SKELETON, memory=None) -> None:
        self.mode = mode
        self._memory = memory
        #: Released events, in document order, not yet taken by the
        #: caller.  The card's pump serializes and clears it once per
        #: chunk; :meth:`drain` hands it out as a list.
        self.output: list[Event] = []
        #: Output order-blocked behind the first unresolved hole.
        self._root_items: list[Item] = []
        self._root_sink = _Sink(target=self.output)
        self._records: list[_Record] = []
        self.max_pending_bytes = 0
        #: Set the first time a pending hole is created.  Until then
        #: nothing can be order-blocked (shell holes are only ever
        #: triggered by a pending hole flowing through), so the root
        #: sink appends straight to :attr:`output` and :meth:`release`
        #: skips the hole scan and the pending-RAM sample (the
        #: "pending" pool is exactly the holes' charges).
        self._hole_born = False

    # -- decision combination ---------------------------------------------

    def _combined_status(
        self, auth: DecisionNode, query: DecisionNode | None
    ) -> tuple[str, frozenset[Condition]]:
        """Fold authorization and query selection into a delivery kind.

        A definite DENY on either side drops the element regardless of
        the other side; both must be definitively PERMIT to deliver.
        The two sides are folded directly (no list materialization --
        this runs at least once per element per session); resolved
        statuses are the two shared instances, so they compare by
        identity.
        """
        auth_status = auth.status()
        if auth_status is RESOLVED_DENY:
            return _DROPPED
        auth_unknowns = (
            None if auth_status is RESOLVED_PERMIT else auth_status.unknowns
        )
        if query is None:
            if auth_unknowns:
                return _Record.PENDING, auth_unknowns
            return _DELIVERED
        query_status = query.status()
        if query_status is RESOLVED_DENY:
            return _DROPPED
        query_unknowns = (
            None if query_status is RESOLVED_PERMIT else query_status.unknowns
        )
        if not auth_unknowns and not query_unknowns:
            return _DELIVERED
        unknowns: set[Condition] = set()
        if auth_unknowns:
            unknowns.update(auth_unknowns)
        if query_unknowns:
            unknowns.update(query_unknowns)
        return _Record.PENDING, frozenset(unknowns)

    # -- events -------------------------------------------------------------

    def open(
        self,
        event: OpenEvent,
        auth: DecisionNode,
        query: DecisionNode | None = None,
    ) -> str:
        """Process an element open with its (possibly pending) decisions.

        Returns the element's delivery kind (``_Record.DELIVER``,
        ``DROP`` or ``PENDING``): the card's skip test reads it instead
        of folding the decisions a second time.
        """
        records = self._records
        parent_sink = records[-1].sink if records else self._root_sink
        kind, unknowns = self._combined_status(auth, query)
        if kind is _Record.DELIVER:
            parent_sink.append(event)
            record = _Record(kind, parent_sink, event)
        elif kind is _Record.DROP:
            sink = _Sink(
                None, parent_sink, event, self._memory, self.mode is ViewMode.PRUNE
            )
            record = _Record(kind, sink, event)
        else:
            hole = _Hole(event, self._memory)
            if not self._hole_born:
                # From now on root output may be order-blocked: it
                # queues behind the hole and :meth:`release` moves the
                # settled prefix to ``output``.
                self._hole_born = True
                self._root_sink._target = self._root_items
            parent_sink.append(hole)
            record = _Record(kind, _Sink(target=hole), event)
            record.hole = hole
            self._watch(hole, auth, query, unknowns)
        records.append(record)
        return kind

    def _watch(
        self,
        hole: _Hole,
        auth: DecisionNode,
        query: DecisionNode | None,
        unknowns: frozenset[Condition],
    ) -> None:
        """Subscribe the hole to the conditions its decision hangs on."""
        subscribed: set[int] = {c.condition_id for c in unknowns}

        def refresh(_: Condition) -> None:
            if hole.final_sign is not None:
                return
            kind, new_unknowns = self._combined_status(auth, query)
            if kind == _Record.DELIVER:
                hole.final_sign = Sign.PERMIT
            elif kind == _Record.DROP:
                hole.final_sign = Sign.DENY
            else:
                for condition in new_unknowns:
                    if condition.condition_id not in subscribed:
                        subscribed.add(condition.condition_id)
                        condition.add_listener(refresh)

        for condition in unknowns:
            condition.add_listener(refresh)

    def value(self, event: ValueEvent) -> None:
        """Process a text event (owned by the innermost open element)."""
        record = self._records[-1]
        if record.kind == _Record.DELIVER:
            record.sink.append(event)
        elif record.kind == _Record.PENDING:
            assert record.hole is not None
            record.hole.append(_SelfText(event))
        # DROP: text is never delivered.

    def close(self, event: CloseEvent) -> None:
        """Process an element close."""
        record = self._records.pop()
        if record.kind == _Record.DELIVER:
            record.sink.append(event)
        elif record.kind == _Record.DROP:
            if record.sink.shell is not None:
                record.sink.shell.closed = True
            elif record.sink.materialized and self.mode is ViewMode.SKELETON:
                record.sink.append(CloseEvent(event.tag))
        else:
            assert record.hole is not None
            record.hole.closed = True

    # -- output ---------------------------------------------------------------

    def _hole_contribution(self, hole: _Hole) -> list[Item] | None:
        """Finalized contribution of a hole, or None if not decidable yet."""
        if not hole.closed or hole.final_sign is None:
            return None
        self._settle(hole.items)
        if hole.final_sign is Sign.PERMIT:
            out: list[Item] = [hole.open_event]
            for item in hole.items:
                out.append(item.event if isinstance(item, _SelfText) else item)
            out.append(CloseEvent(hole.open_event.tag))
            hole.discharge()
            return out
        # DENY: keep only content contributed by delivered descendants.
        content: list[Item] = [
            item for item in hole.items if not isinstance(item, _SelfText)
        ]
        has_nested_hole = any(isinstance(item, _Hole) for item in content)
        has_plain = any(not isinstance(item, _Hole) for item in content)
        if has_nested_hole and not has_plain:
            return None  # emptiness unknown until nested holes resolve
        if not content:
            hole.discharge()
            return []
        hole.discharge()
        if self.mode is ViewMode.PRUNE:
            return content
        skeleton: list[Item] = [OpenEvent(hole.open_event.tag)]
        skeleton.extend(content)
        skeleton.append(CloseEvent(hole.open_event.tag))
        return skeleton

    def _settle(self, items: list[Item]) -> None:
        """Replace finalizable holes with their contributions, in place."""
        if not any(isinstance(item, _Hole) for item in items):
            return  # hot path: nothing pending, no list rebuild
        changed = True
        while changed:
            changed = False
            new_items: list[Item] = []
            for item in items:
                if isinstance(item, _Hole):
                    contribution = self._hole_contribution(item)
                    if contribution is not None:
                        new_items.extend(contribution)
                        changed = True
                        continue
                new_items.append(item)
            items[:] = new_items

    def release(self) -> None:
        """Move every event no longer order-blocked to :attr:`output`."""
        if not self._hole_born:
            return  # root output went straight to ``output``
        if self._memory is not None:
            self.max_pending_bytes = max(
                self.max_pending_bytes, self._memory.usage("pending")
            )
        root_items = self._root_items
        self._settle(root_items)
        count = 0
        for item in root_items:
            if isinstance(item, _Hole):
                break
            assert not isinstance(item, _SelfText)
            count += 1
        if count:
            self.output.extend(root_items[:count])  # type: ignore[arg-type]
            del root_items[:count]

    def drain(self) -> list[Event]:
        """Release, then hand out (and clear) :attr:`output`."""
        self.release()
        output = self.output
        if not output:
            return []
        emitted = list(output)
        output.clear()
        return emitted

    def finish(self) -> list[Event]:
        """Drain after end of document; every hole must have resolved."""
        remaining = self.drain()
        if self._root_items:
            raise RuntimeError("unresolved pending output at end of document")
        return remaining
