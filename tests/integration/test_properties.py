"""Property-based tests over the complete architecture.

These are the repository's strongest guarantees: on *random* documents
and rule sets, the full pipeline -- SXS encoding, chunked encryption,
APDU transport, on-card decryption, skip index, streaming evaluation --
must deliver exactly the oracle's view, and skipping must never change
any output.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.harness import PullSetup, run_pull_session
from repro.core.reference import reference_view
from repro.skipindex.encoder import IndexMode
from repro.smartcard.applet import PendingStrategy
from repro.terminal.transfer import TransferPolicy
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string

from tests.strategies import elements, rule_sets

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_SETTINGS
@given(root=elements(), rules=rule_sets())
def test_full_stack_matches_oracle(root, rules):
    """Encrypted, chunked, card-evaluated == plain oracle."""
    events = list(tree_to_events(root))
    outcome = run_pull_session(
        PullSetup(events=events, rules=rules, subject="u", chunk_size=32)
    )
    expected = write_string(reference_view(root, rules, "u"))
    assert outcome.xml == expected


@_SETTINGS
@given(root=elements(), rules=rule_sets())
def test_skip_index_never_changes_output(root, rules):
    """The skip index is a pure optimization: RECURSIVE == NONE == FLAT."""
    events = list(tree_to_events(root))
    views = {}
    for mode in (IndexMode.RECURSIVE, IndexMode.NONE, IndexMode.FLAT):
        outcome = run_pull_session(
            PullSetup(
                events=events,
                rules=rules,
                subject="u",
                index_mode=mode,
                chunk_size=32,
            )
        )
        views[mode] = outcome.xml
    assert views[IndexMode.RECURSIVE] == views[IndexMode.NONE]
    assert views[IndexMode.FLAT] == views[IndexMode.NONE]


@_SETTINGS
@given(
    root=elements(),
    rules=rule_sets(),
    chunk=st.sampled_from([8, 16, 24, 40, 48, 96, 256]),
    windowed=st.booleans(),
    strategy=st.sampled_from([PendingStrategy.BUFFER, PendingStrategy.REFETCH]),
)
def test_chunk_size_never_changes_output(root, rules, chunk, windowed, strategy):
    """Chunking granularity is invisible in the delivered view.

    The card runs one pump pass per chunk, so the small sizes (8, 24,
    40) split tokens mid-field and the pass must resume a straddling
    token in the next chunk; ``windowed(8)`` puts several chunks in one
    APDU batch.  A BUFFER view must equal the oracle; a REFETCH view
    and its fragments must equal a single-chunk pull's.
    """
    events = list(tree_to_events(root))
    transfer = TransferPolicy.windowed(8) if windowed else None
    small = run_pull_session(
        PullSetup(
            events=events,
            rules=rules,
            subject="u",
            chunk_size=chunk,
            strategy=strategy,
            transfer=transfer,
        )
    )
    if strategy is PendingStrategy.BUFFER:
        assert small.xml == write_string(reference_view(root, rules, "u"))
    else:
        whole = run_pull_session(
            PullSetup(
                events=events,
                rules=rules,
                subject="u",
                chunk_size=1 << 16,
                strategy=strategy,
            )
        )
        assert small.xml == whole.xml
        assert small.fragments == whole.fragments


@_SETTINGS
@given(root=elements(), rules=rule_sets())
def test_ram_accounting_balances(root, rules):
    """After a session every released tag balances its allocations
    (no leaks in the engine's modeled RAM)."""
    from repro.core.pipeline import AccessController
    from repro.smartcard.memory import MemoryMeter

    meter = MemoryMeter(quota=None)
    controller = AccessController(rules, "u", memory=meter)
    for event in tree_to_events(root):
        controller.feed(event)
    controller.finish()
    # Engine frames/tokens and the sign stack fully unwind; only the
    # base frame and root automata tokens may remain charged.
    assert meter.usage("signs") == 0
    assert meter.usage("pending") == 0
