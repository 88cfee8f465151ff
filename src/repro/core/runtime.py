"""The token-stack engine driving all rule automata.

From Section 2.3:

    "Basically, when an open or a value event is received, all the
    automata are checked and go to their next state.  Upon receiving a
    close event, all the automata backtrack.  To manage these automata
    efficiently, we use a stack that keeps track of active states,
    materializing all the possible paths that can be followed on the
    non-deterministic automata."

A :class:`Token` is one active state of one automaton: the compiled path
it runs, the index of the next step to match, and the conjunction of
predicate :class:`~repro.core.conditions.Condition` objects accumulated
along its match so far.  One :class:`_Frame` per open element holds the
tokens to be tested against that element's children; popping the frame
on ``close`` *is* the backtracking.

Predicate paths run on the same machinery: when a step with predicates
matches, a condition is instantiated per predicate (anchored at the
matched node) and a fresh predicate token is seeded in the new frame;
its completions support the condition.  Value tests (``[x = "v"]`` and
``[. = "v"]``) register *watchers* that accumulate the direct text of
the matched node and fire at its ``close``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

from repro.core.conditions import (
    EMPTY_CONDITIONS,
    Condition,
    Tristate,
    live_conditions,
)
from repro.core.nfa import CompiledPath, CompiledStep
from repro.xpathlib.ast import Comparison

if TYPE_CHECKING:
    from repro.skipindex.tagdict import TagDictionary

#: Modeled sizes (bytes) of runtime structures inside the card's secure
#: RAM.  Chosen to reflect a compact C implementation on the target
#: hardware; the resource model charges these, not Python object sizes.
TOKEN_BYTES = 8
CONDITION_BYTES = 6
WATCHER_BYTES = 10
FRAME_BYTES = 6


class MatchSink(Protocol):
    """Receives completed matches of a root automaton."""

    def on_match(self, conditions: frozenset[Condition]) -> None:
        """A match completed, guarded by the given pending conditions."""


class _ConditionSink:
    """Routes predicate-path completions into a condition's supports."""

    __slots__ = ("condition",)

    def __init__(self, condition: Condition) -> None:
        self.condition = condition

    def on_match(self, conditions: frozenset[Condition]) -> None:
        self.condition.add_support(conditions)


class Token:
    """One active automaton state (see module docstring)."""

    __slots__ = ("path", "index", "conditions", "sink")

    def __init__(
        self,
        path: CompiledPath,
        index: int,
        conditions: frozenset[Condition],
        sink: MatchSink,
    ) -> None:
        self.path = path
        self.index = index
        self.conditions = conditions
        self.sink = sink

    @property
    def next_step(self) -> CompiledStep:
        return self.path.steps[self.index]


class _Watcher:
    """Collects the direct text of one node, fires a test at its close."""

    __slots__ = ("comparison", "deliver", "conditions", "parts")

    def __init__(
        self,
        comparison: Comparison,
        deliver: Callable[[frozenset[Condition]], None],
        conditions: frozenset[Condition],
    ) -> None:
        self.comparison = comparison
        self.deliver = deliver
        self.conditions = conditions
        self.parts: list[str] = []

    def fire(self) -> None:
        if self.comparison.test("".join(self.parts)):
            self.deliver(self.conditions)


class _Frame:
    """Per-depth record: active tokens, anchored conditions, watchers."""

    __slots__ = ("tokens", "conditions", "watchers")

    def __init__(self) -> None:
        self.tokens: list[Token] = []
        self.conditions: list[Condition] = []
        self.watchers: list[_Watcher] = []


class EngineStats:
    """Counters the resource model turns into card CPU cycles.

    ``events`` through ``watcher_bytes`` feed the *modeled* clock and
    are byte-identical whichever engine runs.  The last three observe
    the *wall-clock* dispatch cost of the table-driven product machine
    (:mod:`repro.core.product`): ``events_pumped`` counts events that
    went through it (zero means the legacy per-token fallback ran),
    ``tokens_touched`` counts the Python-level position work actually
    performed (transition/count builds only -- memoized hits touch
    nothing), and ``product_states_interned`` counts distinct interned
    state sets.  A rising ``tokens_touched / events_pumped`` ratio is a
    dispatch-cost regression.
    """

    __slots__ = (
        "events",
        "token_checks",
        "token_advances",
        "conditions_created",
        "watcher_bytes",
        "events_pumped",
        "tokens_touched",
        "product_states_interned",
    )

    def __init__(self) -> None:
        self.events = 0
        self.token_checks = 0
        self.token_advances = 0
        self.conditions_created = 0
        self.watcher_bytes = 0
        self.events_pumped = 0
        self.tokens_touched = 0
        self.product_states_interned = 0


class TokenEngine:
    """The shared stack machine running every automaton at once.

    ``memory`` is an optional secure-RAM meter (see
    :mod:`repro.smartcard.memory`); when provided, every token, frame,
    condition and watcher is charged against the card's quota.
    """

    def __init__(self, memory=None, stats: EngineStats | None = None) -> None:
        self._memory = memory
        self.stats = stats or EngineStats()
        base = _Frame()
        self._frames: list[_Frame] = [base]
        self._charge(FRAME_BYTES)

    # -- memory hooks ---------------------------------------------------

    def _charge(self, nbytes: int) -> None:
        if self._memory is not None:
            self._memory.allocate("engine", nbytes)

    def _release(self, nbytes: int) -> None:
        if self._memory is not None:
            self._memory.release("engine", nbytes)

    # -- setup ----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Current element depth (0 before the root opens)."""
        return len(self._frames) - 1

    def add_automaton(self, path: CompiledPath, sink: MatchSink) -> None:
        """Seed a root token for an absolute path before parsing starts."""
        if self.depth != 0:
            raise RuntimeError("automata must be added before the root opens")
        self._frames[0].tokens.append(Token(path, 0, EMPTY_CONDITIONS, sink))
        self._charge(TOKEN_BYTES)

    def add_policy(self, policy, sinks: "list[MatchSink]") -> None:
        """Seed every automaton of a prebuilt compiled policy.

        ``policy`` is a :class:`~repro.core.compiled.CompiledPolicy`
        (duck-typed: anything with an ``automata`` sequence works);
        ``sinks`` supplies one match sink per automaton.  Nothing is
        compiled here -- the same policy object may seed any number of
        engines, including several lanes of one shared engine.
        """
        if len(policy.automata) != len(sinks):
            raise ValueError("one sink per automaton required")
        for path, sink in zip(policy.automata, sinks):
            self.add_automaton(path, sink)

    # -- event processing ------------------------------------------------

    def open(self, tag: str) -> None:
        """Advance all automata on an opening tag.

        This is the per-event inner loop: the step's precomputed
        ``match_name``/``descendant`` transition fields (see
        :class:`~repro.core.nfa.CompiledStep`) replace the method call
        and enum test per token, and hot attributes are hoisted into
        locals.  Counter totals are byte-identical to the seed's
        per-token increments.
        """
        stats = self.stats
        stats.events += 1
        frames = self._frames
        parent_tokens = frames[-1].tokens
        frame = _Frame()
        self._charge(FRAME_BYTES)
        new_depth = len(frames)
        # Dedupe: several parent tokens may advance into an identical
        # state (same automaton, same index, same guards, reporting to
        # the same sink); one suffices.  The sink is part of the state:
        # a compiled path shared by several policies (registry hit, or
        # two lanes of a multi-subject pass) must keep one token per
        # sink or all but the first subject would go silent.
        seen: set[tuple[int, int, int, frozenset[Condition]]] = set()
        # Dedupe: one condition per (predicate path, context node).
        conditions_here: dict[int, Condition] = {}
        stay = frame.tokens.append
        for token in parent_tokens:
            step = token.path.steps[token.index]
            name = step.match_name
            if name is None or name == tag:
                self._advance(token, frame, new_depth, seen, conditions_here)
            if step.descendant:
                # Descendant-axis states stay alive at deeper levels --
                # the self-loop of Figure 2.
                stay(token)
        stats.token_checks += len(parent_tokens)
        frames.append(frame)
        self._charge(TOKEN_BYTES * len(frame.tokens))

    def _advance(
        self,
        token: Token,
        frame: _Frame,
        new_depth: int,
        seen: set[tuple[int, int, int, frozenset[Condition]]],
        conditions_here: dict[int, Condition],
    ) -> None:
        self.stats.token_advances += 1
        step = token.path.steps[token.index]
        guards = set(live_conditions(token.conditions))
        for predicate_path in step.predicates:
            condition = conditions_here.get(id(predicate_path))
            if condition is None:
                condition = Condition(new_depth)
                self.stats.conditions_created += 1
                self._charge(CONDITION_BYTES)
                conditions_here[id(predicate_path)] = condition
                frame.conditions.append(condition)
                seed = Token(
                    predicate_path, 0, EMPTY_CONDITIONS, _ConditionSink(condition)
                )
                frame.tokens.append(seed)
            guards.add(condition)
        for comparison in step.dot_comparisons:
            condition = Condition(new_depth)
            self.stats.conditions_created += 1
            self._charge(CONDITION_BYTES + WATCHER_BYTES)
            frame.conditions.append(condition)
            frame.watchers.append(
                _Watcher(
                    comparison,
                    condition.add_support,
                    EMPTY_CONDITIONS,
                )
            )
            guards.add(condition)
        guard_set = frozenset(guards)
        if token.index == token.path.final_index:
            comparison = token.path.comparison
            if comparison is None:
                token.sink.on_match(guard_set)
            else:
                self._charge(WATCHER_BYTES)
                frame.watchers.append(
                    _Watcher(comparison, token.sink.on_match, guard_set)
                )
            return
        key = (id(token.path), token.index + 1, id(token.sink), guard_set)
        if key in seen:
            return
        seen.add(key)
        frame.tokens.append(Token(token.path, token.index + 1, guard_set, token.sink))

    def value(self, text: str) -> None:
        """Feed a text event to the watchers of the innermost node."""
        self.stats.events += 1
        watchers = self._frames[-1].watchers
        if watchers:
            self.stats.watcher_bytes += len(text) * len(watchers)
            self._charge(len(text) * len(watchers))
            for watcher in watchers:
                watcher.parts.append(text)

    def close(self) -> None:
        """Backtrack: fire watchers, fail open conditions, pop the frame."""
        self.stats.events += 1
        if len(self._frames) <= 1:
            raise RuntimeError("close event without a matching open")
        frame = self._frames.pop()
        for watcher in frame.watchers:
            watcher.fire()
        for condition in frame.conditions:
            condition.finalize()
        freed = (
            FRAME_BYTES
            + TOKEN_BYTES * len(frame.tokens)
            + CONDITION_BYTES * len(frame.conditions)
            + WATCHER_BYTES * len(frame.watchers)
            + sum(
                sum(len(part) for part in watcher.parts)
                for watcher in frame.watchers
            )
        )
        self._release(freed)

    # -- skip-index queries ----------------------------------------------

    def can_complete_inside(
        self, tags_inside: frozenset[int], dictionary: "TagDictionary"
    ) -> bool:
        """Whether any active automaton could reach a final state within
        a subtree containing exactly the element tags whose ids (in
        ``dictionary``) are ``tags_inside``.

        This is the reachability test of Section 2.3: "to check whether
        an access rule automaton is likely to reach its final state".
        The test is conservative -- wildcard steps contribute no label
        and therefore never rule a subtree out.
        """
        names = dictionary.ids_to_names(tags_inside)
        for token in self._frames[-1].tokens:
            if any(
                condition.state is Tristate.FALSE
                for condition in token.conditions
            ):
                # The paper's "suspended rules" optimization: a token
                # whose guards already failed can never contribute.
                continue
            needed = token.path.suffix_labels[token.index]
            if needed <= names:
                return True
        return False

    def has_watchers_on_top(self) -> bool:
        """Whether the innermost node's text is being collected.

        A subtree whose root carries a value watcher must not be
        skipped: the skip would discard the text under test.
        """
        return bool(self._frames[-1].watchers)

    def active_token_count(self) -> int:
        """Number of live tokens (used by RAM benchmarks)."""
        return sum(len(frame.tokens) for frame in self._frames)
