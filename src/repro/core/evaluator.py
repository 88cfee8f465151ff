"""The streaming access-rights evaluator.

Binds together an automata engine (:mod:`repro.core.product` or
:mod:`repro.core.runtime`, chosen once per path set) and the decision
chain (:mod:`repro.core.decisions`): on every ``open`` all
automata advance and the direct matches reported for the new node
decide it -- a fresh :class:`DecisionNode` when a match is conditional
or there is none, a shared resolved decision when every match is
unconditional; ``close`` backtracks the automata, finalizes the
predicate conditions anchored at the node and pops the decision.

The same class evaluates the user *query* (pull scenarios): a query is
compiled exactly like a single positive rule under a closed-world
default, so "the authorized subpart matching the query" (Section 2) is
the conjunction of two evaluator instances, taken by the delivery
engine.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.compiled import CompiledPolicy, compile_policy
from repro.core.conditions import Condition
from repro.core.decisions import DECISION_BYTES, DENIED, PERMITTED, DecisionNode
from repro.core.nfa import CompiledPath, compile_path
from repro.core.product import ProductEngine
from repro.core.rules import RuleSet, Sign, Subject
from repro.core.runtime import EngineStats, TokenEngine
from repro.xpathlib.ast import Path


class _RuleSink:
    """Routes completed rule matches to the node being opened."""

    __slots__ = ("collected", "sign")

    def __init__(
        self, collected: list[tuple[Sign, frozenset[Condition]]], sign: Sign
    ) -> None:
        self.collected = collected
        self.sign = sign

    def on_match(self, conditions: frozenset[Condition]) -> None:
        self.collected.append((self.sign, conditions))


class StreamingEvaluator:
    """Evaluates a set of signed paths over an event stream.

    For access control, construct with :meth:`for_policy` (or
    :meth:`from_compiled`); for query selection, with :meth:`for_query`.

    The engine is chosen once, at construction, from the complete path
    set: a purely navigational set (no predicates, no value tests --
    every E1 workload) runs on the table-driven
    :class:`~repro.core.product.ProductEngine`; anything with
    conditions runs on the :class:`~repro.core.runtime.TokenEngine`.
    Both produce identical decisions, stats and modeled RAM charges;
    the choice only moves wall-clock time.  The secure-RAM charge order
    is the engine's frame, then one token per path.
    """

    def __init__(
        self,
        default: Sign,
        paths: Iterable[tuple[CompiledPath, Sign]],
        memory=None,
        stats: EngineStats | None = None,
    ) -> None:
        self._stats = stats or EngineStats()
        self._memory = memory
        root = DecisionNode.default_root(default)
        self._decisions: list[DecisionNode] = [root]
        self._collected: list[tuple[Sign, frozenset[Condition]]] = []
        paths = list(paths)
        cls = (
            ProductEngine
            if all(path.pure for path, __ in paths)
            else TokenEngine
        )
        self.engine: ProductEngine | TokenEngine = cls(
            memory=memory, stats=self._stats
        )
        for path, sign in paths:
            self.engine.add_automaton(path, _RuleSink(self._collected, sign))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_compiled(
        cls,
        policy: CompiledPolicy,
        memory=None,
        stats: EngineStats | None = None,
    ) -> "StreamingEvaluator":
        """Build an evaluator around prebuilt automata.

        This is the hot construction path: it seeds one token per
        automaton and allocates nothing else -- no parsing, no NFA
        compilation.  The same :class:`CompiledPolicy` may back any
        number of concurrent evaluators.
        """
        return cls(
            policy.default,
            zip(policy.automata, policy.signs),
            memory=memory,
            stats=stats,
        )

    @classmethod
    def for_policy(
        cls,
        rules: RuleSet,
        subject: Subject | str | None = None,
        default: Sign = Sign.DENY,
        memory=None,
        stats: EngineStats | None = None,
    ) -> "StreamingEvaluator":
        """Build the access-control evaluator for one subject.

        Thin wrapper over :meth:`from_compiled` that compiles the
        policy on the spot.  Callers that evaluate the same policy many
        times should compile once (or use a
        :class:`~repro.core.compiled.PolicyRegistry`) and call
        :meth:`from_compiled` instead.

        ``subject=None`` means the rule set is already subject-specific
        (that is how the card receives it: the DSP stores per-subject
        encrypted rule sets).
        """
        return cls.from_compiled(
            compile_policy(rules, subject, default), memory=memory, stats=stats
        )

    @classmethod
    def for_query(
        cls,
        query: Path | CompiledPath,
        memory=None,
        stats: EngineStats | None = None,
    ) -> "StreamingEvaluator":
        """Build a selector: nodes in the query's subtrees are PERMIT."""
        if not isinstance(query, CompiledPath):
            query = compile_path(query)
        return cls(
            Sign.DENY, [(query, Sign.PERMIT)], memory=memory, stats=stats
        )

    # -- events -------------------------------------------------------------

    def open(self, tag: str) -> DecisionNode:
        """Advance automata on an open; return the new node's decision.

        A node whose direct matches are all unconditional has a final
        sign the moment it opens (Denial-Takes-Precedence), so a shared
        resolved decision stands in for it; only nodes with no match
        (which fall back to their parent) or with a conditional match
        get a decision node of their own.
        """
        collected = self._collected
        collected.clear()
        self.engine.open(tag)
        decisions = self._decisions
        if self._memory is not None:
            self._memory.allocate("signs", DECISION_BYTES)
        if not collected or any(conditions for __, conditions in collected):
            node = DecisionNode(decisions[-1])
            for sign, conditions in collected:
                node.add_match(sign, conditions)
        elif any(sign is Sign.DENY for sign, __ in collected):
            node = DENIED
        else:
            node = PERMITTED
        decisions.append(node)
        return node

    def value(self, text: str) -> None:
        self.engine.value(text)

    def close(self) -> None:
        self.engine.close()
        self._decisions.pop()
        if self._memory is not None:
            self._memory.release("signs", DECISION_BYTES)

    # -- state --------------------------------------------------------------

    def current_decision(self) -> DecisionNode:
        """Decision of the innermost open element (or the default)."""
        return self._decisions[-1]

    def active_token_count(self) -> int:
        return self.engine.active_token_count()

    @property
    def stats(self) -> EngineStats:
        return self._stats
