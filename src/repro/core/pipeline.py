"""High-level composition: rule evaluation + query + delivery.

:class:`AccessController` is the pure, in-memory form of the engine the
card applet runs -- the applet adds crypto, the skip index and resource
accounting around this same object.  :func:`authorized_view` is the
one-call convenience API used by examples and tests.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.compiled import CompiledPolicy, PolicyRegistry, compile_policy
from repro.core.delivery import DeliveryEngine, ViewMode
from repro.core.evaluator import StreamingEvaluator
from repro.core.nfa import CompiledPath, compile_path
from repro.core.rules import RuleSet, Sign, Subject
from repro.core.runtime import EngineStats
from repro.xmlstream.events import CloseEvent, Event, OpenEvent, ValueEvent
from repro.xpathlib.ast import Path
from repro.xpathlib.parser import parse_path


class AccessController:
    """Streaming access-control pipeline for one (document, subject) pair.

    Feed it the document's events; collect authorized output as it
    becomes available::

        controller = AccessController(rules, subject="alice")
        for event in events:
            output.extend(controller.feed(event))
        output.extend(controller.finish())

    ``rules`` may be a plain :class:`RuleSet` (compiled on the spot, or
    through ``registry`` when one is given) or a prebuilt
    :class:`~repro.core.compiled.CompiledPolicy`, in which case
    construction performs zero compilation -- the hot path for serving
    many documents or subscribers under one policy.  Likewise ``query``
    accepts a prebuilt :class:`~repro.core.nfa.CompiledPath`.

    A :class:`CompiledPolicy` carries its subject and default sign;
    passing a conflicting ``subject`` or ``default`` alongside one is
    an error (the policy would silently win otherwise).
    """

    def __init__(
        self,
        rules: RuleSet | CompiledPolicy,
        subject: Subject | str | None = None,
        query: Path | str | CompiledPath | None = None,
        mode: ViewMode = ViewMode.SKELETON,
        default: Sign | None = None,
        memory=None,
        stats: EngineStats | None = None,
        registry: PolicyRegistry | None = None,
    ) -> None:
        self.stats = stats or EngineStats()
        if isinstance(rules, CompiledPolicy):
            policy = rules  # subject and default are baked in
            if subject is not None:
                raise ValueError(
                    "subject is baked into a CompiledPolicy; "
                    "compile the policy for the right subject instead"
                )
            if default is not None and default is not policy.default:
                raise ValueError(
                    f"default {default} conflicts with the compiled "
                    f"policy's default {policy.default}"
                )
        elif registry is not None:
            policy = registry.get(rules, subject, default if default is not None else Sign.DENY)
        else:
            policy = compile_policy(rules, subject, default if default is not None else Sign.DENY)
        self.compiled_policy = policy
        self._policy = StreamingEvaluator.from_compiled(
            policy, memory=memory, stats=self.stats
        )
        self.compiled_query: CompiledPath | None = None
        if query is not None:
            if isinstance(query, CompiledPath):
                compiled_query = query
            elif registry is not None:
                compiled_query = registry.get_query(query)
            else:
                if isinstance(query, str):
                    query = parse_path(query)
                compiled_query = compile_path(query)
            self.compiled_query = compiled_query
        self._query = (
            StreamingEvaluator.for_query(
                self.compiled_query, memory=memory, stats=self.stats
            )
            if self.compiled_query is not None
            else None
        )
        self._delivery = DeliveryEngine(mode, memory=memory)
        self._depth = 0
        self._finished = False

    # -- streaming interface ------------------------------------------------

    def feed(self, event: Event) -> list[Event]:
        """Process one event; return output events released by it.

        Exact-type dispatch first (the event classes are final in
        practice), with the isinstance chain kept as a fallback for
        duck-typed subclasses.
        """
        if self._finished:
            raise RuntimeError("controller already finished")
        cls = type(event)
        if cls is OpenEvent or isinstance(event, OpenEvent):
            auth = self._policy.open(event.tag)
            query = self._query.open(event.tag) if self._query else None
            self._delivery.open(event, auth, query)
            self._depth += 1
        elif cls is ValueEvent or isinstance(event, ValueEvent):
            if self._depth == 0:
                raise ValueError("text event outside the root element")
            self._policy.value(event.text)
            if self._query:
                self._query.value(event.text)
            self._delivery.value(event)
        elif cls is CloseEvent or isinstance(event, CloseEvent):
            if self._depth == 0:
                raise ValueError("unbalanced close event")
            self._delivery.close(event)
            self._policy.close()
            if self._query:
                self._query.close()
            self._depth -= 1
        else:  # pragma: no cover - defensive
            raise TypeError(f"not an event: {event!r}")
        return self._delivery.drain()

    def finish(self) -> list[Event]:
        """Signal end of document; return the final output events."""
        if self._depth != 0:
            raise ValueError("document ended with unclosed elements")
        self._finished = True
        return self._delivery.finish()

    # -- skip-index interface (used by the card applet) -----------------------

    def subtree_is_irrelevant(self, tags_inside: frozenset[str]) -> bool:
        """Whether a subtree of the innermost node can be skipped
        *semantically*: no automaton (rule or query) can complete inside
        and no value predicate is collecting the node's text.

        The applet combines this with the delivery status (a subtree is
        only actually skipped when it is also not being delivered).
        """
        if self._policy.can_complete_inside(tags_inside):
            return False
        if self._policy.has_watchers_on_top():
            return False
        if self._query is not None:
            if self._query.can_complete_inside(tags_inside):
                return False
            if self._query.has_watchers_on_top():
                return False
        return True

    def current_status(self):
        """Combined delivery status of the innermost open element.

        Returns ``(kind, unknowns)`` where kind is one of the
        ``_Record`` constants (``"deliver"``, ``"drop"``, ``"pending"``).
        """
        auth = self._policy.current_decision()
        query = self._query.current_decision() if self._query else None
        return self._delivery._combined_status(auth, query)

    def current_decision_nodes(self):
        """The (auth, query) decision nodes of the innermost element."""
        auth = self._policy.current_decision()
        query = self._query.current_decision() if self._query else None
        return auth, query

    def status_of(self, auth, query):
        """Combined status for externally held decision nodes (refetch)."""
        return self._delivery._combined_status(auth, query)

    @property
    def max_pending_bytes(self) -> int:
        return self._delivery.max_pending_bytes

    def active_token_count(self) -> int:
        count = self._policy.active_token_count()
        if self._query is not None:
            count += self._query.active_token_count()
        return count


def authorized_view(
    events: Iterable[Event],
    rules: RuleSet | CompiledPolicy,
    subject: Subject | str | None = None,
    query: Path | str | None = None,
    mode: ViewMode = ViewMode.SKELETON,
    default: Sign | None = None,
    registry: PolicyRegistry | None = None,
) -> list[Event]:
    """Compute the authorized view of a document in one call."""
    return list(
        stream_authorized_view(
            events, rules, subject, query, mode, default, registry
        )
    )


def stream_authorized_view(
    events: Iterable[Event],
    rules: RuleSet | CompiledPolicy,
    subject: Subject | str | None = None,
    query: Path | str | None = None,
    mode: ViewMode = ViewMode.SKELETON,
    default: Sign | None = None,
    registry: PolicyRegistry | None = None,
) -> Iterator[Event]:
    """Like :func:`authorized_view` but yields output incrementally."""
    controller = AccessController(
        rules,
        subject=subject,
        query=query,
        mode=mode,
        default=default,
        registry=registry,
    )
    for event in events:
        yield from controller.feed(event)
    yield from controller.finish()
