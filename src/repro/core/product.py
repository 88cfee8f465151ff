"""Table-driven product automaton over all pure navigational paths.

The legacy :class:`~repro.core.runtime.TokenEngine` interprets every
automaton token on every XML event -- the per-event Python dispatch the
paper's evaluator must avoid to keep pace with streaming decryption.
This module compiles the whole per-subject automata *set* into one
product machine, NFA->DFA on the fly:

* a **product state** is the interned set of live ``(automaton, step)``
  pairs (:class:`_StateEntry`); identical sets share one entry, so the
  machine is a DFA over state *sets* built lazily as tags arrive;
* a **transition** is resolved once per ``(state, tag)`` pair and then
  memoized on the entry (:class:`_Transition`), so a subsequent open of
  the same tag in the same state is one dict hit;
* the per-frame **token multiplicities** (descendant-axis tokens
  duplicate under self-overlapping paths such as ``//a//a``) are kept
  *outside* the interned state as a count vector, and the arithmetic
  for a given ``(transition, counts)`` pair is itself memoized -- the
  steady state of a document replays ``(entry, tag, counts)`` triples
  it has already solved.

The machine is a **wall-clock optimization only**: for every event it
produces the exact :class:`~repro.core.runtime.EngineStats` deltas,
match firings and secure-RAM charges the token engine would have, so
the modeled :class:`~repro.smartcard.resources.SimClock` stays
bit-for-bit identical (guarded by ``tests/integration/
test_wallclock_parity.py`` and the differential suite in
``tests/core/test_product.py``).

Eligibility: only *pure* paths (``CompiledPath.pure`` -- no predicates,
no value tests) run here, because they provably never create
conditions or watchers.  :class:`~repro.core.evaluator.StreamingEvaluator`
and :class:`~repro.core.multicast.MultiSubjectEvaluator` pick the token
engine instead when any path is impure; the choice is made once, from
the complete path set at construction, and never revisited.

Sharing: slots are keyed by compiled-path identity, so two lanes (or
two registry users) carrying the same ``CompiledPolicy`` share one slot
per automaton with a per-sink fan-out -- a 1,000-subscriber broadcast
under one effective policy advances *one* product machine per event.
"""

from __future__ import annotations

from repro.core.conditions import EMPTY_CONDITIONS
from repro.core.nfa import CompiledPath
from repro.core.runtime import (
    FRAME_BYTES,
    TOKEN_BYTES,
    EngineStats,
    MatchSink,
)


class _Totals:
    """Process-wide dispatch counters (``run_experiments.py --profile``)."""

    __slots__ = ("events_pumped", "tokens_touched", "product_states_interned")

    def __init__(self) -> None:
        self.events_pumped = 0
        self.tokens_touched = 0
        self.product_states_interned = 0


_TOTALS = _Totals()


def dispatch_totals() -> dict[str, int]:
    """Cumulative product-machine counters since interpreter start."""
    return {
        "events_pumped": _TOTALS.events_pumped,
        "tokens_touched": _TOTALS.tokens_touched,
        "product_states_interned": _TOTALS.product_states_interned,
    }


class _Slot:
    """One automaton of the product: a compiled path plus its sinks.

    The same path object registered several times (several lanes of a
    shared policy, or one policy seeding several engines' lanes) folds
    into one slot whose ``sinks`` fan a completed match out to every
    registrant -- the token engine would have kept one token per sink;
    here the duplication is a scalar weight.
    """

    __slots__ = ("path", "sinks", "steps")

    def __init__(self, path: CompiledPath) -> None:
        self.path = path
        self.sinks: list[MatchSink] = []
        #: (match_name, descendant) per step, hoisted once.
        self.steps = tuple(
            (step.match_name, step.descendant) for step in path.steps
        )


class _StateEntry:
    """One interned product state: a canonical set of live positions."""

    __slots__ = (
        "positions",  # tuple[(slot_index, step_index), ...] sorted
        "weights",  # per-position sink fan-out (token multiplier)
        "suffixes",  # per-position suffix label sets (skip-index test)
        "transitions",  # tag -> _Transition, built lazily
        "reach_memo",  # tags_inside -> bool, for can_complete_inside
    )

    def __init__(
        self,
        positions: tuple[tuple[int, int], ...],
        weights: tuple[int, ...],
        suffixes: tuple[frozenset[str], ...],
    ) -> None:
        self.positions = positions
        self.weights = weights
        self.suffixes = suffixes
        self.transitions: dict[str, _Transition] = {}
        self.reach_memo: dict[frozenset[str], bool] = {}


class _Transition:
    """The solved effect of one tag on one product state."""

    __slots__ = ("next_entry", "moves", "advance", "matchers", "memo")

    def __init__(
        self,
        next_entry: _StateEntry,
        moves: tuple[tuple[int, int], ...],
        advance: tuple[tuple[int, int], ...],
        matchers: tuple[tuple[int, tuple[MatchSink, ...]], ...],
    ) -> None:
        self.next_entry = next_entry
        #: Per next-state position: (source position in the current
        #: state or -1, +1 if an advance lands there).  Together with
        #: the count vector this reproduces the token engine's frame
        #: contents exactly (stays keep multiplicity, the advance is
        #: deduped to one token per sink).
        self.moves = moves
        #: (current position, weight) pairs whose step matches the tag
        #: -- the token engine's ``token_advances`` increments.
        self.advance = advance
        #: (current position, sinks) pairs whose *final* step matches
        #: -- each sink fires once per token of that position.
        self.matchers = matchers
        #: counts -> (new_counts, new_total, advances, fires) memo.
        self.memo: dict[
            tuple[int, ...],
            tuple[tuple[int, ...], int, int, tuple[MatchSink, ...]],
        ] = {}


class ProductEngine:
    """Drop-in engine for :class:`~repro.core.runtime.TokenEngine`
    restricted to pure navigational paths (see module docstring).

    ``memory`` is the optional secure-RAM meter; charges land in the
    same ``engine`` pool, in the same per-event amounts, as the token
    engine's.
    """

    def __init__(self, memory=None, stats: EngineStats | None = None) -> None:
        self._memory = memory
        self.stats = stats or EngineStats()
        self._slots: list[_Slot] = []
        self._slot_of: dict[int, int] = {}  # id(path) -> slot index
        self._intern: dict[frozenset[tuple[int, int]], _StateEntry] = {}
        #: Stack of (entry, counts, weighted token total); built from
        #: the registered slots when the root opens.
        self._frames: list[tuple[_StateEntry, tuple[int, ...], int]] | None = None
        self._root_tokens = 0
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
        if self._frames is None:
            return 0
        return len(self._frames) - 1

    def add_automaton(self, path: CompiledPath, sink: MatchSink) -> None:
        """Seed a root slot for an absolute pure path."""
        if self._frames is not None:
            raise RuntimeError("automata must be added before the root opens")
        if not path.pure:
            raise ValueError(
                "ProductEngine only runs pure navigational paths; "
                "predicate-carrying paths need the TokenEngine"
            )
        index = self._slot_of.get(id(path))
        if index is None:
            index = len(self._slots)
            self._slot_of[id(path)] = index
            self._slots.append(_Slot(path))
        self._slots[index].sinks.append(sink)
        self._root_tokens += 1
        self._charge(TOKEN_BYTES)

    def add_policy(self, policy, sinks: "list[MatchSink]") -> None:
        """Seed every automaton of a prebuilt compiled policy."""
        if len(policy.automata) != len(sinks):
            raise ValueError("one sink per automaton required")
        for path, sink in zip(policy.automata, sinks):
            self.add_automaton(path, sink)

    def _intern_state(
        self, key: frozenset[tuple[int, int]]
    ) -> _StateEntry:
        entry = self._intern.get(key)
        if entry is None:
            positions = tuple(sorted(key))
            slots = self._slots
            entry = _StateEntry(
                positions,
                tuple(len(slots[s].sinks) for s, _ in positions),
                tuple(
                    slots[s].path.suffix_labels[j] for s, j in positions
                ),
            )
            self._intern[key] = entry
            self.stats.product_states_interned += 1
            _TOTALS.product_states_interned += 1
        return entry

    def _seal(self) -> None:
        """Build the root frame from the registered slots."""
        key = frozenset(
            (index, 0) for index in range(len(self._slots))
        )
        entry = self._intern_state(key)
        counts = (1,) * len(entry.positions)
        self._frames = [(entry, counts, self._root_tokens)]

    # -- transition construction ---------------------------------------

    def _build_transition(self, entry: _StateEntry, tag: str) -> _Transition:
        """Solve the effect of ``tag`` on ``entry``, once.

        Reproduces the token engine's ``open()`` loop at the level of
        position sets: a position *stays* when its step rides the
        descendant axis, *advances* when its step accepts the tag
        (wildcard or exact), and *fires* instead of advancing when it
        sits on the final step.  The advance into a given position is
        deduped to one token per sink -- exactly the engine's ``seen``
        set under empty guards.
        """
        slots = self._slots
        positions = entry.positions
        self.stats.tokens_touched += len(positions)
        _TOTALS.tokens_touched += len(positions)
        # target (slot, step) -> [stay source position or -1, advance 0/1]
        targets: dict[tuple[int, int], list[int]] = {}
        advance: list[tuple[int, int]] = []
        matchers: list[tuple[int, tuple[MatchSink, ...]]] = []
        for i, (s, j) in enumerate(positions):
            slot = slots[s]
            name, descendant = slot.steps[j]
            weight = len(slot.sinks)
            if name is None or name == tag:
                advance.append((i, weight))
                if j == len(slot.steps) - 1:
                    matchers.append((i, tuple(slot.sinks)))
                else:
                    cell = targets.get((s, j + 1))
                    if cell is None:
                        targets[(s, j + 1)] = [-1, 1]
                    else:
                        cell[1] = 1
            if descendant:
                cell = targets.get((s, j))
                if cell is None:
                    targets[(s, j)] = [i, 0]
                else:
                    cell[0] = i
        next_entry = self._intern_state(frozenset(targets))
        moves = tuple(
            (targets[position][0], targets[position][1])
            for position in next_entry.positions
        )
        transition = _Transition(
            next_entry, moves, tuple(advance), tuple(matchers)
        )
        entry.transitions[tag] = transition
        return transition

    def _build_memo(
        self, transition: _Transition, counts: tuple[int, ...]
    ) -> tuple[tuple[int, ...], int, int, tuple[MatchSink, ...]]:
        """Solve the count arithmetic of one (transition, counts) pair."""
        self.stats.tokens_touched += len(counts)
        _TOTALS.tokens_touched += len(counts)
        new_counts = tuple(
            (counts[source] + add) if source >= 0 else 1
            for source, add in transition.moves
        )
        new_total = sum(
            weight * count
            for weight, count in zip(transition.next_entry.weights, new_counts)
        )
        advances = sum(
            weight * counts[i] for i, weight in transition.advance
        )
        fires: list[MatchSink] = []
        for i, sinks in transition.matchers:
            count = counts[i]
            if count == 1:
                fires.extend(sinks)
            else:
                for sink in sinks:
                    fires.extend([sink] * count)
        memo = (new_counts, new_total, advances, tuple(fires))
        transition.memo[counts] = memo
        return memo

    # -- event processing ------------------------------------------------

    def open(self, tag: str) -> None:
        """Advance the product machine on an opening tag: one dict hit
        per event in the steady state."""
        frames = self._frames
        if frames is None:
            self._seal()
            frames = self._frames
        entry, counts, total = frames[-1]
        stats = self.stats
        stats.events += 1
        stats.events_pumped += 1
        _TOTALS.events_pumped += 1
        stats.token_checks += total
        transition = entry.transitions.get(tag)
        if transition is None:
            transition = self._build_transition(entry, tag)
        memo = transition.memo.get(counts)
        if memo is None:
            memo = self._build_memo(transition, counts)
        new_counts, new_total, advances, fires = memo
        stats.token_advances += advances
        for sink in fires:
            sink.on_match(EMPTY_CONDITIONS)
        frames.append((transition.next_entry, new_counts, new_total))
        # One combined allocation: the token engine charges the frame
        # then its tokens back to back with no release in between, so
        # the running total (and therefore the high-water mark) is
        # identical.
        if self._memory is not None:
            self._memory.allocate(
                "engine", FRAME_BYTES + TOKEN_BYTES * new_total
            )

    def value(self, text: str) -> None:
        """Text events carry no watchers on pure paths: count and move on."""
        stats = self.stats
        stats.events += 1
        stats.events_pumped += 1
        _TOTALS.events_pumped += 1

    def close(self) -> None:
        """Backtrack: pop the frame and release its modeled RAM."""
        stats = self.stats
        stats.events += 1
        stats.events_pumped += 1
        _TOTALS.events_pumped += 1
        frames = self._frames
        if frames is None or len(frames) <= 1:
            raise RuntimeError("close event without a matching open")
        __, __, total = frames.pop()
        self._release(FRAME_BYTES + TOKEN_BYTES * total)

    # -- skip-index queries ----------------------------------------------

    def can_complete_inside(self, tags_inside: frozenset[str]) -> bool:
        """Reachability test of Section 2.3, memoized per interned state.

        Pure paths carry no conditions, so the token engine's "skip
        suspended rules" filter never removes anything and the answer
        depends only on (state set, tag set) -- cacheable on the entry.
        """
        if self._frames is None:
            self._seal()
        entry = self._frames[-1][0]
        memo = entry.reach_memo
        result = memo.get(tags_inside)
        if result is None:
            result = any(
                needed <= tags_inside for needed in entry.suffixes
            )
            memo[tags_inside] = result
        return result

    def has_watchers_on_top(self) -> bool:
        """Pure paths never register value watchers."""
        return False

    def active_token_count(self) -> int:
        """Number of live tokens (used by RAM benchmarks)."""
        if self._frames is None:
            return self._root_tokens
        return sum(total for __, __, total in self._frames)
