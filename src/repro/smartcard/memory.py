"""Secure-RAM accounting for the simulated card.

The Python process obviously uses more than 1 KB; what the meter tracks
is the *modeled* RAM a compact C implementation of the same structures
would occupy on the card (each structure declares its modeled size, see
e.g. ``TOKEN_BYTES`` in :mod:`repro.core.runtime`).  Experiment E5
reports the high-water mark and checks it stays under the e-gate's
1 KB; ``strict`` mode turns an overflow into a hard fault, which the
failure-injection tests exercise.
"""

from __future__ import annotations

from repro.errors import ResourceExhausted

DEFAULT_QUOTA = 1024  # bytes of application RAM on the e-gate card


class CardMemoryError(ResourceExhausted, MemoryError):
    """The applet exceeded the card's secure working memory."""

    def __init__(self, requested: int, used: int, quota: int) -> None:
        super().__init__(
            f"secure RAM exhausted: {used} + {requested} bytes over "
            f"quota {quota}"
        )
        self.requested = requested
        self.used = used
        self.quota = quota


class MemoryMeter:
    """Tracks modeled allocations per tag, with quota and high-water.

    ``strict=False`` records overflows (for measurement sweeps) instead
    of raising.
    """

    def __init__(self, quota: int | None = DEFAULT_QUOTA, strict: bool = True) -> None:
        self.quota = quota
        self.strict = strict
        self._usage: dict[str, int] = {}
        self._total = 0
        self.high_water = 0
        self.overflowed = False

    def allocate(self, tag: str, nbytes: int) -> None:
        """Charge ``nbytes`` against the quota."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if (
            self.quota is not None
            and self._total + nbytes > self.quota
        ):
            self.overflowed = True
            if self.strict:
                raise CardMemoryError(nbytes, self._total, self.quota)
        self._usage[tag] = self._usage.get(tag, 0) + nbytes
        self._total += nbytes
        if self._total > self.high_water:
            self.high_water = self._total

    def release(self, tag: str, nbytes: int) -> None:
        """Return ``nbytes`` to the pool."""
        held = self._usage.get(tag, 0)
        if nbytes > held:
            raise ValueError(
                f"releasing {nbytes} bytes from {tag!r} which holds {held}"
            )
        self._usage[tag] = held - nbytes
        self._total -= nbytes

    def release_all(self, tag: str) -> None:
        """Return everything ``tag`` holds to the pool."""
        self._total -= self._usage.pop(tag, 0)

    def usage(self, tag: str | None = None) -> int:
        """Current usage of one tag, or total."""
        if tag is None:
            return self._total
        return self._usage.get(tag, 0)

    def breakdown(self) -> dict[str, int]:
        """Current per-tag usage (non-zero tags only)."""
        return {tag: used for tag, used in self._usage.items() if used}
