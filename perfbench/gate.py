"""The benchmark's correctness gate.

Every view the benchmark receives -- a pulled view or a view a feed
subscriber holds after a broadcast -- is compared byte for byte with
the oracle's rendering of ``repro.core.reference.reference_view``,
computed before the measured phase.  Two security properties are
checked on top:

* after a revoke, the member's next pull (or feed catch-up) must raise
  :class:`~repro.errors.KeyNotGranted`;
* a revoked subject is never served, from cache or otherwise.

A failed check counts the op as failed; any failed op makes the run
incorrect.
"""

from __future__ import annotations

from repro.errors import KeyNotGranted

#: How many failure descriptions a run keeps for its report.
_KEPT = 20


class Gate:
    """Counts checks and keeps the first few failure descriptions."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures = 0
        self.examples: list[str] = []

    def _fail(self, what: str) -> bool:
        self.failures += 1
        if len(self.examples) < _KEPT:
            self.examples.append(what)
        return False

    def view(self, what: str, got: str, expected: str) -> bool:
        """A delivered view must equal the reference view exactly."""
        self.checks += 1
        if got == expected:
            return True
        return self._fail(
            f"{what}: view differs from the reference "
            f"({len(got)} bytes, expected {len(expected)})"
        )

    def refused(self, what: str, outcome: "BaseException | str") -> bool:
        """A revoked member's request must end in ``KeyNotGranted``.

        ``outcome`` is the exception the request raised, or the view
        text it returned (a serve after revoke).
        """
        self.checks += 1
        if isinstance(outcome, KeyNotGranted):
            return True
        if isinstance(outcome, str):
            return self._fail(f"{what}: revoked subject was served a view")
        return self._fail(
            f"{what}: expected KeyNotGranted after revoke, got "
            f"{type(outcome).__name__}: {outcome}"
        )

    def unexpected(self, what: str, exc: BaseException) -> bool:
        """An op raised where it should have succeeded."""
        self.checks += 1
        return self._fail(f"{what}: {type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return self.failures == 0
