"""One-call experiment runner.

Every benchmark builds a fresh full stack for each measured point, so
no state leaks between rows; the simulated clock makes the numbers
deterministic across runs and machines.  Scenarios are constructed
through the :class:`repro.community.Community` facade -- the same
wiring applications use (PKI, DSP, publisher, terminal, card).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.community import Community
from repro.core.compiled import PolicyRegistry
from repro.core.delivery import ViewMode
from repro.core.rules import RuleSet
from repro.skipindex.encoder import IndexMode
from repro.smartcard.applet import PendingStrategy
from repro.smartcard.resources import SessionMetrics
from repro.terminal.transfer import TransferPolicy
from repro.xmlstream.events import Event


@dataclass(slots=True)
class PullSetup:
    """Parameters of one measured pull session."""

    events: list[Event]
    rules: RuleSet
    subject: str
    query: str | None = None
    index_mode: IndexMode = IndexMode.RECURSIVE
    strategy: PendingStrategy = PendingStrategy.BUFFER
    view_mode: ViewMode = ViewMode.SKELETON
    chunk_size: int = 96
    ram_quota: int | None = 1024
    strict_memory: bool = False
    doc_id: str = "bench-doc"
    owner: str = "owner"
    #: Optional compiled-policy cache shared across sessions; sweeps
    #: that re-run the same policy point pay compilation only once.
    registry: PolicyRegistry | None = None
    #: Chunk transport plan (prefetch window / APDU batch); ``None``
    #: is the sequential window=1, batch=1 path.
    transfer: TransferPolicy | None = None


@dataclass(slots=True)
class PullOutcome:
    """The result and all measurements of one session."""

    xml: str
    fragments: list[tuple[int, str]]
    metrics: SessionMetrics
    container_bytes: int = 0
    plaintext_bytes: int = 0


def run_pull_session(setup: PullSetup) -> PullOutcome:
    """Publish + query through a fresh facade stack; view and metrics."""
    community = Community(registry=setup.registry)
    owner = community.enroll(setup.owner)
    subject = community.enroll(
        setup.subject,
        ram_quota=setup.ram_quota,
        strict_memory=setup.strict_memory,
    )
    document = owner.publish(
        setup.events,
        setup.rules,
        [subject],
        doc_id=setup.doc_id,
        index_mode=setup.index_mode,
        chunk_size=setup.chunk_size,
    )
    with subject.open(document, transfer=setup.transfer) as session:
        stream = session.query(
            setup.query,
            strategy=setup.strategy,
            view_mode=setup.view_mode,
        )
        pieces = stream.pieces
        metrics = stream.metrics
    container = document.container
    return PullOutcome(
        xml="".join(p.text for p in pieces if p.kind == "view"),
        fragments=[
            (p.entry_id, p.text) for p in pieces if p.kind == "fragment"
        ],
        metrics=metrics,
        container_bytes=container.stored_size,
        plaintext_bytes=container.header.total_length,
    )


# -- reporting ---------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
) -> str:
    """Render an aligned table (also returned as a string)."""
    materialized = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    text = "\n".join(lines)
    print(text)
    return text


def print_series(title: str, pairs: Iterable[tuple]) -> str:
    """Render an x/y series as a two-column table."""
    return print_table(title, ["x", "y"], [list(p) for p in pairs])
